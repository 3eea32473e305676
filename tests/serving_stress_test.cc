// Concurrent-correctness stress for the serving subsystem, written to
// run clean under ThreadSanitizer (see the CI tsan job): reader
// threads hammer the engine with query batches while the writer
// applies a randomized insert/delete stream, and at quiesce points
// every served answer is checked against a BFS oracle on the live
// graph. All OpenMP knobs are pinned to one thread — libgomp is not
// TSan-instrumented, and a team of one never spawns — so every thread
// TSan watches is one of ours.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/label/query_engine.h"
#include "src/serve/serving_engine.h"

namespace pspc {
namespace {

constexpr int kReaders = 3;
constexpr int kRounds = 8;
constexpr size_t kUpdatesPerRound = 6;
constexpr size_t kReaderBatch = 8;
constexpr size_t kOracleChecks = 24;
constexpr VertexId kN = 48;

/// Parks reader threads at quiesce points: readers CheckIn between
/// batches; the writer pauses them all, verifies, and resumes.
class QuiesceGate {
 public:
  void Pause(int readers) {
    spc::MutexLock lock(mu_);
    pause_ = true;
    while (parked_ != readers) parked_cv_.Wait(mu_);
  }

  void Resume() {
    {
      spc::MutexLock lock(mu_);
      pause_ = false;
    }
    resume_cv_.NotifyAll();
  }

  void CheckIn() {
    spc::MutexLock lock(mu_);
    if (!pause_) return;
    ++parked_;
    parked_cv_.NotifyAll();
    while (pause_) resume_cv_.Wait(mu_);
    --parked_;
  }

 private:
  spc::Mutex mu_;
  spc::CondVar parked_cv_;
  spc::CondVar resume_cv_;
  int parked_ GUARDED_BY(mu_) = 0;
  bool pause_ GUARDED_BY(mu_) = false;
};

/// What the writer's stream drives the index through.
enum class StressMode {
  kRepairOnly,   // no threshold: the overlay only grows
  kFolds,        // the overlay folds into the base under the same order
  kFullRebuild,  // insert-heavy until a folded base outgrows the bound
};

void RunStress(StressMode mode) {
  BuildOptions build;
  build.num_landmarks = 4;
  build.num_threads = 1;
  DynamicOptions dynamic;
  dynamic.rebuild_threshold = mode == StressMode::kRepairOnly ? 1e18
                              : mode == StressMode::kFolds    ? 0.25
                                                              : 0.1;
  dynamic.rebuild_options = build;
  dynamic.num_threads = 1;
  // The full-rebuild stream deletes rarely, so the labels grow.
  const double delete_share = mode == StressMode::kFullRebuild ? 0.1 : 0.5;

  const Graph graph = GenerateErdosRenyi(kN, 100, 7);
  DynamicSpcIndex index(graph, build, dynamic);
  const VertexOrder order = index.Order();

  ServingOptions serving;
  serving.num_workers = 2;
  serving.max_batch = 16;
  ServingEngine engine(&index, serving);

  // Evolving edge set mirrored writer-side, for drawing valid updates.
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < kN; ++u) {
    for (const VertexId v : graph.Neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }

  QuiesceGate gate;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + static_cast<uint64_t>(r));
      // relaxed: stop/progress flag only; thread join is the sync point.
      while (!stop.load(std::memory_order_relaxed)) {
        gate.CheckIn();
        const QueryBatch batch =
            MakeRandomQueries(kN, kReaderBatch, rng.Next());
        const std::vector<SpcResult> results =
            engine.SubmitBatch(batch).get();
        // Mid-churn answers are exact for *some* recent generation;
        // structural invariants must hold for every one of them.
        for (size_t i = 0; i < batch.size(); ++i) {
          const auto [s, t] = batch[i];
          if (s == t) {
            EXPECT_EQ(results[i], (SpcResult{0, 1}));
          } else if (results[i].distance == kInfSpcDistance) {
            EXPECT_EQ(results[i].count, 0u);
          } else {
            EXPECT_GT(results[i].count, 0u);
          }
        }
      }
    });
  }

  Rng rng(4242);
  int rounds = 0;
  for (int round = 0;; ++round) {
    const bool full_rebuild_ran =
        index.Stats().rebuilds > index.Stats().folds;
    if (mode == StressMode::kFullRebuild ? full_rebuild_ran
                                         : round == kRounds) {
      break;
    }
    ASSERT_LT(round, 20 * kRounds) << "no full rebuild under insert churn";
    ++rounds;
    // A randomized mixed batch, valid against the mirrored edge set.
    EdgeUpdateBatch batch;
    for (size_t i = 0; i < kUpdatesPerRound; ++i) {
      const bool remove = !edges.empty() && rng.NextBool(delete_share);
      if (remove) {
        auto it = edges.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(edges.size())));
        batch.Delete(it->first, it->second);
        edges.erase(it);
      } else {
        VertexId u, v;
        do {
          u = static_cast<VertexId>(rng.NextBounded(kN));
          v = static_cast<VertexId>(rng.NextBounded(kN));
        } while (u == v ||
                 edges.contains(std::minmax(u, v)));
        batch.Insert(u, v);
        edges.insert(std::minmax(u, v));
      }
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());

    // Quiesce: park the readers, drain in-flight queries, and demand
    // oracle-exact answers for the now-current graph.
    gate.Pause(kReaders);
    engine.Drain();
    ASSERT_EQ(index.NumEdges(), edges.size());
    const Graph current = index.MaterializeGraph();
    const QueryBatch checks =
        MakeRandomQueries(kN, kOracleChecks, rng.Next());
    const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
    for (size_t i = 0; i < checks.size(); ++i) {
      const auto [s, t] = checks[i];
      EXPECT_EQ(served[i], BfsSpcPair(current, s, t))
          << "round " << round << " query (" << s << "," << t << ")";
    }
    gate.Resume();
  }

  // relaxed: stop/progress flag only; thread join is the sync point.
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  engine.Stop();

  const DynamicStats& stats = index.Stats();
  switch (mode) {
    case StressMode::kRepairOnly:
      EXPECT_EQ(stats.rebuilds, 0u);
      break;
    case StressMode::kFolds:
      // Every base swap was a fold: the order never moved mid-serve.
      EXPECT_GT(stats.folds, 0u);
      EXPECT_EQ(stats.rebuilds, stats.folds);
      EXPECT_EQ(index.Order(), order);
      break;
    case StressMode::kFullRebuild:
      // The last batch ended in the full rebuild: readers were switched
      // to a re-ordered base mid-serve, and that base is exactly a
      // fresh build of the current graph.
      EXPECT_GT(stats.folds, 0u);
      EXPECT_NE(index.Order(), order);
      EXPECT_EQ(index.StalenessRatio(), 0.0);
      EXPECT_TRUE(index.BaseIndex() ==
                  BuildIndex(index.MaterializeGraph(), build).index);
      break;
  }

  const ServingCounters counters = engine.Counters();
  const size_t submitted = static_cast<size_t>(rounds) * kUpdatesPerRound;
  // Batches apply their *net* effect: an insert later cancelled by a
  // delete in the same batch coalesces away instead of applying twice.
  EXPECT_EQ(counters.updates_applied + stats.updates_coalesced, submitted);
  EXPECT_LE(counters.updates_applied, submitted);
  EXPECT_GE(counters.generations_published, static_cast<uint64_t>(rounds));
  // Every retired generation must eventually be reclaimed or pending;
  // none may leak outside the manager's books.
  EXPECT_EQ(counters.snapshots_reclaimed + counters.snapshots_retired_pending,
            counters.generations_published);
}

TEST(ServingStressTest, ReadersExactUnderRepairChurn) {
  RunStress(StressMode::kRepairOnly);
}

TEST(ServingStressTest, ReadersExactUnderFoldChurn) {
  // Folds mid-serve: publishes swap whole base indexes, not just
  // overlay deltas, under the unchanged order.
  RunStress(StressMode::kFolds);
}

TEST(ServingStressTest, ReadersExactAcrossFullRebuild) {
  RunStress(StressMode::kFullRebuild);
}

}  // namespace
}  // namespace pspc
