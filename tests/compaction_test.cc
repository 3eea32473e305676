// Oracle tests for the dynamic indexes' fold: base (+) overlay
// materialized into a fresh CSR base under the unchanged order. In both
// directions the fold must empty the overlay, bump the generation, keep
// the order, copy every vertex's pre-fold labels entry by entry, and
// answer every pair exactly as BFS does. The strongest check compares
// the folded base against a fresh build of the materialized graph under
// the same order (the ESPC label set is unique per order): the only
// entries allowed to differ are stale ones, whose distance exceeds the
// true distance to their hub.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/bfs_spc.h"
#include "src/common/random.h"
#include "src/core/builder_facade.h"
#include "src/core/pspc_builder.h"
#include "src/digraph/dbfs_spc.h"
#include "src/digraph/digraph.h"
#include "src/digraph/dpspc_builder.h"
#include "src/dynamic/dynamic_dspc_index.h"
#include "src/dynamic/dynamic_spc_index.h"
#include "src/graph/generators.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metric_names.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace pspc {
namespace {

BuildOptions SmallBuildOptions() {
  BuildOptions options;
  options.num_landmarks = 4;
  return options;
}

DynamicOptions ManualOptions() {
  DynamicOptions options;
  options.auto_rebuild = false;  // the tests drive Fold() themselves
  options.rebuild_options = SmallBuildOptions();
  return options;
}

/// Applies `steps` valid updates: inserts with probability
/// `insert_prob`, deletions of existing edges otherwise. `Index` is
/// either dynamic index; `u -> v` is an ordered pair for the directed.
template <typename Index>
void Churn(Index& index, int steps, double insert_prob, uint64_t seed) {
  Rng rng(seed);
  const VertexId n = index.NumVertices();
  for (int step = 0; step < steps;) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    if (rng.NextBool(insert_prob)) {
      if (index.HasEdge(u, v)) continue;
      ASSERT_TRUE(index.InsertEdge(u, v).ok());
    } else {
      if (!index.HasEdge(u, v)) continue;
      ASSERT_TRUE(index.DeleteEdge(u, v).ok());
    }
    ++step;
  }
}

using Labels = std::vector<std::vector<LabelEntry>>;

template <typename LabelsOf>
Labels Snapshot(VertexId n, LabelsOf labels_of) {
  Labels out(n);
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const LabelEntry> span = labels_of(v);
    out[v].assign(span.begin(), span.end());
  }
  return out;
}

/// Canonical-equality oracle for one label side. `folded` and
/// `canonical` hold each vertex's rank-sorted entries under the same
/// order; `true_dist(v, hub)` is the BFS distance the entry records.
/// Every canonical entry must appear unchanged in `folded`; a folded
/// entry missing from `canonical` must be stale (dist > BFS distance).
/// Returns the number of stale entries.
size_t ExpectCanonicalUpToStale(
    const Labels& folded, const std::function<std::span<const LabelEntry>(
                              VertexId)>& canonical,
    const VertexOrder& order,
    const std::function<uint32_t(VertexId, VertexId)>& true_dist,
    const std::string& side) {
  size_t stale = 0;
  for (VertexId v = 0; v < folded.size(); ++v) {
    const std::span<const LabelEntry> want = canonical(v);
    size_t i = 0, j = 0;
    while (i < folded[v].size() || j < want.size()) {
      const LabelEntry* got = i < folded[v].size() ? &folded[v][i] : nullptr;
      const LabelEntry* ref = j < want.size() ? &want[j] : nullptr;
      if (got != nullptr && ref != nullptr &&
          got->hub_rank == ref->hub_rank) {
        EXPECT_EQ(*got, *ref) << side << " vertex " << v << " hub rank "
                              << ref->hub_rank;
        ++i, ++j;
      } else if (ref == nullptr ||
                 (got != nullptr && got->hub_rank < ref->hub_rank)) {
        const VertexId hub = order.VertexAt(got->hub_rank);
        EXPECT_GT(static_cast<uint32_t>(got->dist), true_dist(v, hub))
            << side << " vertex " << v << ": extra entry for hub " << hub
            << " is not stale";
        ++stale, ++i;
      } else {
        ADD_FAILURE() << side << " vertex " << v << ": canonical entry for "
                      << "hub rank " << ref->hub_rank << " missing";
        ++j;
      }
    }
  }
  return stale;
}

// ------------------------------------------------------------ undirected

void ExpectUndirectedFold(DynamicSpcIndex& index, const std::string& name) {
  ASSERT_GT(index.Overlay().OverlaidEntries(), 0u) << name;
  ASSERT_EQ(index.Stats().rebuilds, 0u) << name << ": auto_rebuild is off";
  const VertexId n = index.NumVertices();
  const Labels before =
      Snapshot(n, [&](VertexId v) { return index.Labels(v); });
  const uint64_t generation = index.Generation();
  const VertexOrder order = index.Order();

  index.Fold();

  EXPECT_EQ(index.Overlay().OverlaidVertices(), 0u) << name;
  EXPECT_EQ(index.StalenessRatio(), 0.0) << name;
  EXPECT_EQ(index.Generation(), generation + 1) << name;
  EXPECT_EQ(index.Order(), order) << name;
  EXPECT_EQ(index.Stats().folds, 1u) << name;
  EXPECT_EQ(index.Stats().rebuilds, 1u) << name;
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const LabelEntry> base = index.BaseIndex().Labels(v);
    ASSERT_EQ(std::vector<LabelEntry>(base.begin(), base.end()), before[v])
        << name << " vertex " << v;
    ASSERT_EQ(index.Labels(v).data(), base.data()) << name << " vertex " << v;
  }

  const Graph g = index.MaterializeGraph();
  for (const auto& [s, t] : testing::AllPairs(n)) {
    ASSERT_EQ(index.Query(s, t), BfsSpcPair(g, s, t))
        << name << " pair (" << s << "," << t << ")";
  }

  const PspcBuildResult fresh = BuildPspcIndex(g, order, PspcOptions{});
  std::vector<SingleSourceSpc> bfs(n);
  for (VertexId v = 0; v < n; ++v) bfs[v] = BfsSpcFromSource(g, v);
  const size_t stale = ExpectCanonicalUpToStale(
      before, [&](VertexId v) { return fresh.index.Labels(v); }, order,
      [&](VertexId v, VertexId hub) -> uint32_t {
        return bfs[v].distance[hub];
      },
      name);
  std::printf("[ fold     ] %s: %zu of %zu folded entries are stale\n",
              name.c_str(), stale, index.BaseIndex().TotalEntries());
}

TEST(FoldTest, UndirectedMixedChurn) {
  DynamicSpcIndex index(GenerateWattsStrogatz(36, 3, 0.2, 13),
                        SmallBuildOptions(), ManualOptions());
  Churn(index, 30, 0.5, 302);
  ExpectUndirectedFold(index, "undirected mixed");
}

TEST(FoldTest, UndirectedInsertHeavyChurn) {
  // Insertions shorten true distances, so repair may leave entries
  // whose recorded distance exceeds the new shortest: the fold keeps
  // them (merge-neutral), and the canonical oracle names them.
  DynamicSpcIndex index(GenerateErdosRenyi(40, 60, 17), SmallBuildOptions(),
                        ManualOptions());
  Churn(index, 40, 0.9, 303);
  ExpectUndirectedFold(index, "undirected insert-heavy");
}

TEST(FoldTest, UndirectedRepairsContinueAfterFold) {
  DynamicSpcIndex index(GenerateErdosRenyi(36, 70, 19), SmallBuildOptions(),
                        ManualOptions());
  Churn(index, 15, 0.5, 304);
  index.Fold();
  Churn(index, 15, 0.5, 305);  // repairs now overlay the folded base
  const Graph g = index.MaterializeGraph();
  for (const auto& [s, t] : testing::AllPairs(g.NumVertices())) {
    ASSERT_EQ(index.Query(s, t), BfsSpcPair(g, s, t))
        << "pair (" << s << "," << t << ")";
  }
}

TEST(FoldTest, FoldsAndFullBuildsAreToldApartInMetricsAndFlightRecorder) {
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder;
  DynamicOptions options = ManualOptions();
  options.metrics = &registry;
  options.flight_recorder = &recorder;
  DynamicSpcIndex index(GenerateErdosRenyi(30, 60, 19), SmallBuildOptions(),
                        options);
  Churn(index, 10, 0.5, 308);
  index.Fold();
  index.Rebuild();

  // Both replace the base and are timed as that stage; folds_total
  // tells the fold apart.
  EXPECT_EQ(registry.GetCounter(obs::kDynamicRebuildsTotal)->Value(), 2u);
  EXPECT_EQ(registry.GetCounter(obs::kDynamicFoldsTotal)->Value(), 1u);
  EXPECT_EQ(registry.GetHistogram(obs::kDynamicRebuildUs)->Count(), 2u);
  EXPECT_EQ(registry.GetGauge(obs::kDynamicRebuildInProgress)->Value(), 0);

  std::vector<std::pair<obs::FlightEventKind, uint64_t>> seen;  // kind, fold
  for (const obs::FlightEvent& e : recorder.Events()) {
    if (e.kind == obs::FlightEventKind::kRebuildStart) {
      seen.push_back({e.kind, e.args[2]});
    } else if (e.kind == obs::FlightEventKind::kRebuildEnd) {
      seen.push_back({e.kind, e.args[3]});
    }
  }
  const std::vector<std::pair<obs::FlightEventKind, uint64_t>> want = {
      {obs::FlightEventKind::kRebuildStart, 1},
      {obs::FlightEventKind::kRebuildEnd, 1},
      {obs::FlightEventKind::kRebuildStart, 0},
      {obs::FlightEventKind::kRebuildEnd, 0}};
  EXPECT_EQ(seen, want);
}

// -------------------------------------------------------------- directed

void ExpectDirectedFold(DynamicDspcIndex& index, const std::string& name) {
  ASSERT_GT(index.OutOverlay().OverlaidEntries() +
                index.InOverlay().OverlaidEntries(),
            0u)
      << name;
  ASSERT_EQ(index.Stats().rebuilds, 0u) << name << ": auto_rebuild is off";
  const VertexId n = index.NumVertices();
  const Labels out_before =
      Snapshot(n, [&](VertexId v) { return index.OutLabels(v); });
  const Labels in_before =
      Snapshot(n, [&](VertexId v) { return index.InLabels(v); });
  const uint64_t generation = index.Generation();
  const VertexOrder order = index.Order();

  index.Fold();

  EXPECT_EQ(index.OutOverlay().OverlaidVertices(), 0u) << name;
  EXPECT_EQ(index.InOverlay().OverlaidVertices(), 0u) << name;
  EXPECT_EQ(index.StalenessRatio(), 0.0) << name;
  EXPECT_EQ(index.Generation(), generation + 1) << name;
  EXPECT_EQ(index.Order(), order) << name;
  EXPECT_EQ(index.Stats().folds, 1u) << name;
  EXPECT_EQ(index.Stats().rebuilds, 1u) << name;
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const LabelEntry> out = index.BaseIndex().OutLabels(v);
    const std::span<const LabelEntry> in = index.BaseIndex().InLabels(v);
    ASSERT_EQ(std::vector<LabelEntry>(out.begin(), out.end()), out_before[v])
        << name << " out vertex " << v;
    ASSERT_EQ(std::vector<LabelEntry>(in.begin(), in.end()), in_before[v])
        << name << " in vertex " << v;
    ASSERT_EQ(index.OutLabels(v).data(), out.data()) << name << " " << v;
    ASSERT_EQ(index.InLabels(v).data(), in.data()) << name << " " << v;
  }

  const DiGraph g = index.MaterializeGraph();
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(index.Query(s, t), DiBfsSpcPair(g, s, t))
          << name << " pair (" << s << " -> " << t << ")";
    }
  }

  const DiPspcBuildResult fresh =
      BuildDirectedPspcIndex(g, order, DiPspcOptions{});
  // Out-entries record sd(v, hub); in-entries record sd(hub, v).
  const size_t stale_out = ExpectCanonicalUpToStale(
      out_before, [&](VertexId v) { return fresh.index.OutLabels(v); },
      order,
      [&](VertexId v, VertexId hub) {
        return DiBfsSpcPair(g, v, hub).distance;
      },
      name + " out");
  const size_t stale_in = ExpectCanonicalUpToStale(
      in_before, [&](VertexId v) { return fresh.index.InLabels(v); }, order,
      [&](VertexId v, VertexId hub) {
        return DiBfsSpcPair(g, hub, v).distance;
      },
      name + " in");
  std::printf("[ fold     ] %s: %zu out + %zu in of %zu folded entries are "
              "stale\n",
              name.c_str(), stale_out, stale_in,
              index.BaseIndex().TotalEntries());
}

DynamicDiOptions ManualDiOptions() {
  DynamicDiOptions options;
  options.auto_rebuild = false;
  return options;
}

TEST(FoldTest, DirectedMixedChurn) {
  DynamicDspcIndex index(GenerateRandomDiGraph(32, 120, 41), DiPspcOptions{},
                         ManualDiOptions());
  Churn(index, 30, 0.5, 306);
  ExpectDirectedFold(index, "directed mixed");
}

TEST(FoldTest, DirectedInsertHeavyChurn) {
  DynamicDspcIndex index(GenerateRandomDiGraph(36, 80, 42), DiPspcOptions{},
                         ManualDiOptions());
  Churn(index, 40, 0.9, 307);
  ExpectDirectedFold(index, "directed insert-heavy");
}

}  // namespace
}  // namespace pspc
