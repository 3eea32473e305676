#include "src/digraph/dpspc_builder.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include <omp.h>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/saturating.h"
#include "src/common/timer.h"
#include "src/label/label_set.h"

namespace pspc {
namespace {

struct ThreadScratch {
  std::vector<Count> cand_count;
  std::vector<uint32_t> cand_epoch;
  std::vector<Rank> cand_hubs;
  std::vector<Distance> tmp_dist;
  uint32_t epoch = 0;
  std::vector<LabelEntry> pending;
  size_t candidates = 0;
  size_t pruned = 0;

  void Init(VertexId n) {
    cand_count.assign(n, 0);
    cand_epoch.assign(n, 0);
    tmp_dist.assign(n, kInfDistance);
  }
};

/// One side of the tandem construction. For the Lin side, `pull_side`
/// is the in-store, `witness_side` the out-store, and candidates are
/// pulled from in-neighbors; the Lout side mirrors it.
struct SideContext {
  LevelLabelStore* pull_side;           // side being extended
  const LevelLabelStore* witness_side;  // opposite side, for pruning
  bool pull_from_in_neighbors;
};

void ProcessVertex(const DiGraph& graph, const VertexOrder& order,
                   const SideContext& side, ThreadScratch& s, VertexId u,
                   Distance d, std::vector<LabelEntry>* staging) {
  const Rank my_rank = order.RankOf(u);
  ++s.epoch;
  s.cand_hubs.clear();
  const auto neighbors = side.pull_from_in_neighbors
                             ? graph.InNeighbors(u)
                             : graph.OutNeighbors(u);
  for (VertexId v : neighbors) {
    for (const LabelEntry& e : side.pull_side->Level(v, d - 1)) {
      if (e.hub_rank >= my_rank) break;  // level entries rank-sorted
      if (s.cand_epoch[e.hub_rank] != s.epoch) {
        s.cand_epoch[e.hub_rank] = s.epoch;
        s.cand_count[e.hub_rank] = e.count;
        s.cand_hubs.push_back(e.hub_rank);
      } else {
        s.cand_count[e.hub_rank] = SatAdd(s.cand_count[e.hub_rank], e.count);
      }
    }
  }
  if (s.cand_hubs.empty()) return;

  std::sort(s.cand_hubs.begin(), s.cand_hubs.end());
  // tmp maps hub rank -> distance on u's *own* pull side: for an
  // in-candidate, Lin(u) supplies the z -> u legs of potential
  // witnesses; the h -> z legs are scanned from Lout(h) below.
  const auto my_labels = side.pull_side->Entries(u);
  for (const LabelEntry& e : my_labels) s.tmp_dist[e.hub_rank] = e.dist;

  s.pending.clear();
  for (Rank hub_rank : s.cand_hubs) {
    ++s.candidates;
    const VertexId h = order.VertexAt(hub_rank);
    uint32_t q = kInfSpcDistance;
    for (const LabelEntry& e : side.witness_side->Entries(h)) {
      if (e.dist >= d) break;  // committed levels are distance-sorted
      const Distance leg = s.tmp_dist[e.hub_rank];
      if (leg == kInfDistance) continue;
      q = std::min<uint32_t>(q, static_cast<uint32_t>(e.dist) + leg);
      if (q < d) break;
    }
    if (q < d) {
      ++s.pruned;
      continue;
    }
    s.pending.push_back({hub_rank, d, s.cand_count[hub_rank]});
  }
  for (const LabelEntry& e : my_labels) s.tmp_dist[e.hub_rank] = kInfDistance;
  *staging = s.pending;
}

size_t RunSide(const DiGraph& graph, const VertexOrder& order,
               const SideContext& side, std::vector<ThreadScratch>& scratch,
               std::vector<std::vector<LabelEntry>>& staging, Distance d,
               int num_threads) {
  const VertexId n = graph.NumVertices();
  ParallelForDynamic(n, num_threads, 32, [&](size_t ui) {
    const auto u = static_cast<VertexId>(ui);
    ProcessVertex(graph, order, side, scratch[omp_get_thread_num()], u, d,
                  &staging[u]);
  });
  std::atomic<size_t> committed{0};
  ParallelForStatic(n, num_threads, [&](size_t ui) {
    const auto u = static_cast<VertexId>(ui);
    side.pull_side->CommitLevel(u, staging[u]);
    if (!staging[u].empty()) {
      // relaxed: per-thread tally; the parallel-for join orders it
      // before the final load.
      committed.fetch_add(staging[u].size(), std::memory_order_relaxed);
      staging[u].clear();
    }
  });
  return committed.load();
}

}  // namespace

DiPspcBuildResult BuildDirectedPspcIndex(const DiGraph& graph,
                                         const VertexOrder& order,
                                         const DiPspcOptions& options) {
  const VertexId n = graph.NumVertices();
  PSPC_CHECK(order.Size() == n);
  DiPspcBuildResult result;
  int num_threads = options.num_threads;
  if (num_threads <= 0) num_threads = MaxThreads();

  WallTimer timer;
  LevelLabelStore in_store(n), out_store(n);
  for (VertexId v = 0; v < n; ++v) {
    const LabelEntry self{order.RankOf(v), 0, 1};
    in_store.CommitLevel(v, {&self, 1});
    out_store.CommitLevel(v, {&self, 1});
  }
  result.stats.entries_per_level.push_back(2 * static_cast<size_t>(n));
  result.stats.num_iterations = 1;

  std::vector<ThreadScratch> scratch(num_threads);
  for (auto& s : scratch) s.Init(n);
  std::vector<std::vector<LabelEntry>> staging(n);

  const SideContext in_side{&in_store, &out_store,
                            /*pull_from_in_neighbors=*/true};
  const SideContext out_side{&out_store, &in_store,
                             /*pull_from_in_neighbors=*/false};
  for (Distance d = 1; d < kInfDistance; ++d) {
    // Both sides of iteration d read only committed (< d) levels of
    // both stores; the in side's commit happens before the out side's
    // processing, but distance-d entries can only raise query values
    // to >= d, never below, so the strict prune is unaffected — the
    // same argument that makes the undirected commit order benign.
    const size_t in_added =
        RunSide(graph, order, in_side, scratch, staging, d, num_threads);
    const size_t out_added =
        RunSide(graph, order, out_side, scratch, staging, d, num_threads);
    if (in_added + out_added == 0) break;
    result.stats.entries_per_level.push_back(in_added + out_added);
    ++result.stats.num_iterations;
  }

  for (const ThreadScratch& s : scratch) {
    result.stats.candidates_after_merge += s.candidates;
    result.stats.pruned_by_query += s.pruned;
  }
  result.stats.total_entries =
      in_store.TotalEntries() + out_store.TotalEntries();
  result.stats.labels_inserted = result.stats.total_entries;
  result.index =
      DiSpcIndex(order, out_store.TakeEntries(), in_store.TakeEntries());
  result.stats.construction_seconds = timer.ElapsedSeconds();
  return result;
}

VertexOrder DirectedDegreeOrder(const DiGraph& graph) {
  std::vector<VertexId> order(graph.NumVertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&graph](VertexId a, VertexId b) {
                     return graph.InDegree(a) + graph.OutDegree(a) >
                            graph.InDegree(b) + graph.OutDegree(b);
                   });
  return VertexOrder(std::move(order));
}

}  // namespace pspc
