// Concurrent-correctness tests for folds published through the serving
// engine, written to run clean under ThreadSanitizer (CI runs every
// serving_* test in the tsan lane). The dynamic index folds its overlay
// into a fresh base on the tail of an ApplyBatch once the overlay
// passes the staleness threshold; ApplyUpdates then publishes that
// fresh base as the batch's snapshot. Reader threads hammer the engine
// throughout, and at every quiesce point served answers must be
// oracle-exact — a fold is a representation change, never a result
// change. All OpenMP knobs are pinned to one thread (libgomp is not
// TSan-instrumented; a team of one never spawns).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/digraph/dbfs_spc.h"
#include "src/digraph/digraph.h"
#include "src/dynamic/dynamic_dspc_index.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/dynamic/edge_update.h"
#include "src/graph/generators.h"
#include "src/label/query_engine.h"
#include "src/serve/serving_engine.h"

namespace pspc {
namespace {

constexpr int kReaders = 2;
constexpr int kRounds = 8;
constexpr size_t kUpdatesPerRound = 5;
constexpr size_t kReaderBatch = 8;
constexpr size_t kOracleChecks = 20;
constexpr VertexId kN = 40;

BuildOptions SmallBuild() {
  BuildOptions build;
  build.num_landmarks = 4;
  build.num_threads = 1;
  return build;
}

/// The default policy: fold once the overlay holds 25% of the base.
/// These streams cross it several times while the folded base stays
/// within 1.25x of the initial build, so every base swap is a fold.
DynamicOptions EagerFoldOptions() {
  DynamicOptions dynamic;
  dynamic.rebuild_threshold = 0.25;
  dynamic.rebuild_options = SmallBuild();
  dynamic.num_threads = 1;
  return dynamic;
}

ServingOptions SmallServing() {
  ServingOptions serving;
  serving.num_workers = 2;
  serving.max_batch = 16;
  return serving;
}

std::set<std::pair<VertexId, VertexId>> EdgeSet(const Graph& graph) {
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (const VertexId v : graph.Neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }
  return edges;
}

TEST(ServingCompactionTest, ReadersExactAcrossPublishedFolds) {
  const Graph graph = GenerateErdosRenyi(kN, 85, 23);
  DynamicSpcIndex index(graph, SmallBuild(), EagerFoldOptions());
  const VertexOrder order = index.Order();
  ServingEngine engine(&index, SmallServing());
  std::set<std::pair<VertexId, VertexId>> edges = EdgeSet(graph);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(7000 + static_cast<uint64_t>(r));
      // relaxed: stop/progress flag only; thread join is the sync point.
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryBatch batch = MakeRandomQueries(kN, kReaderBatch, rng.Next());
        const std::vector<SpcResult> results = engine.SubmitBatch(batch).get();
        // Mid-churn answers are exact for *some* recent generation,
        // folded or not; the structural invariants hold for all.
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

  Rng rng(90210);
  uint64_t oracle_mismatches = 0;
  for (int round = 0; round < kRounds; ++round) {
    EdgeUpdateBatch batch;
    for (size_t i = 0; i < kUpdatesPerRound; ++i) {
      const bool remove = !edges.empty() && rng.NextBool(0.5);
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
        } while (u == v || edges.contains(std::minmax(u, v)));
        batch.Insert(u, v);
        edges.insert(std::minmax(u, v));
      }
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
    // Whatever the batch ended in, its snapshot is the one published.
    EXPECT_EQ(engine.PublishedGeneration(), index.Generation());

    // Quiesce: drain in-flight queries, then demand oracle-exact
    // answers for the now-current graph.
    engine.Drain();
    ASSERT_EQ(index.NumEdges(), edges.size());
    const Graph current = index.MaterializeGraph();
    const QueryBatch checks = MakeRandomQueries(kN, kOracleChecks, rng.Next());
    const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
    for (size_t i = 0; i < checks.size(); ++i) {
      const auto [s, t] = checks[i];
      if (served[i] != BfsSpcPair(current, s, t)) ++oracle_mismatches;
      EXPECT_EQ(served[i], BfsSpcPair(current, s, t))
          << "round " << round << " query (" << s << "," << t << ")";
    }
  }

  // relaxed: stop/progress flag only; thread join is the sync point.
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  engine.Stop();

  EXPECT_EQ(oracle_mismatches, 0u);
  EXPECT_GT(index.Stats().folds, 0u);
  // Folds only: no full rebuild, so the order never moved.
  EXPECT_EQ(index.Stats().rebuilds, index.Stats().folds);
  EXPECT_EQ(index.Order(), order);
}

TEST(ServingCompactionTest, FoldPublishesTheFreshBase) {
  const Graph graph = GenerateWattsStrogatz(kN, 3, 0.2, 5);
  DynamicSpcIndex index(graph, SmallBuild(), EagerFoldOptions());
  ServingEngine engine(&index, SmallServing());
  std::set<std::pair<VertexId, VertexId>> edges = EdgeSet(graph);

  Rng rng(61);
  size_t folding_batches = 0;
  for (int round = 0; round < 6; ++round) {
    EdgeUpdateBatch batch;
    VertexId u, v;
    do {
      u = static_cast<VertexId>(rng.NextBounded(kN));
      v = static_cast<VertexId>(rng.NextBounded(kN));
    } while (u == v || edges.contains(std::minmax(u, v)));
    batch.Insert(u, v);
    edges.insert(std::minmax(u, v));
    const size_t folds_before = index.Stats().folds;
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());

    const SnapshotRef snapshot = engine.PinSnapshot();
    EXPECT_EQ(snapshot->Generation(), index.Generation());
    if (index.Stats().folds > folds_before) {
      // The batch ended in a fold: readers now serve the fresh base
      // itself — no overlay chunk, the very CSR arrays the index holds.
      ++folding_batches;
      EXPECT_EQ(snapshot->OverlaidVertices(), 0u);
      for (VertexId w = 0; w < kN; ++w) {
        ASSERT_EQ(snapshot->Labels(w).data(),
                  index.BaseIndex().Labels(w).data())
            << "round " << round << " vertex " << w;
      }
    }

    const Graph current = index.MaterializeGraph();
    const QueryBatch checks = MakeRandomQueries(kN, kOracleChecks, rng.Next());
    const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
    for (size_t i = 0; i < checks.size(); ++i) {
      const auto [s, t] = checks[i];
      ASSERT_EQ(served[i], BfsSpcPair(current, s, t))
          << "round " << round << " query (" << s << "," << t << ")";
    }
  }
  engine.Stop();
  EXPECT_GT(folding_batches, 0u);
}

TEST(ServingCompactionTest, DirectedReadersExactAcrossPublishedFolds) {
  DynamicDiOptions dynamic;
  dynamic.rebuild_threshold = 0.25;
  dynamic.rebuild_options.num_threads = 1;
  dynamic.num_threads = 1;
  const DiGraph graph = GenerateRandomDiGraph(kN, 120, 29);
  DynamicDspcIndex index(graph, dynamic.rebuild_options, dynamic);
  const VertexOrder order = index.Order();
  ServingEngine engine(&index, SmallServing());

  Rng rng(4711);
  for (int round = 0; round < kRounds; ++round) {
    EdgeUpdateBatch batch;
    std::set<std::pair<VertexId, VertexId>> in_batch;
    while (batch.Size() < kUpdatesPerRound) {
      const auto u = static_cast<VertexId>(rng.NextBounded(kN));
      const auto v = static_cast<VertexId>(rng.NextBounded(kN));
      if (u == v || !in_batch.insert({u, v}).second) continue;
      if (index.HasEdge(u, v)) {
        batch.Delete(u, v);
      } else {
        batch.Insert(u, v);
      }
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
    EXPECT_EQ(engine.PublishedGeneration(), index.Generation());

    const DiGraph current = index.MaterializeGraph();
    const QueryBatch checks = MakeRandomQueries(kN, kOracleChecks, rng.Next());
    const std::vector<SpcResult> served = engine.SubmitBatch(checks).get();
    for (size_t i = 0; i < checks.size(); ++i) {
      const auto [s, t] = checks[i];
      ASSERT_EQ(served[i], DiBfsSpcPair(current, s, t))
          << "round " << round << " query (" << s << " -> " << t << ")";
    }
  }
  engine.Stop();
  EXPECT_GT(index.Stats().folds, 0u);
  EXPECT_EQ(index.Stats().rebuilds, index.Stats().folds);
  EXPECT_EQ(index.Order(), order);
}

}  // namespace
}  // namespace pspc
