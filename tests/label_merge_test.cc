#include "src/label/label_merge.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/saturating.h"
#include "src/common/types.h"
#include "src/core/builder_facade.h"
#include "src/graph/generators.h"

namespace pspc {
namespace {

/// Brute-force min-plus reference for Eqs. (1)-(2): every pair of
/// entries with a common hub, no reliance on either list being sorted.
SpcResult NestedLoopMerge(const std::vector<LabelEntry>& a,
                          const std::vector<LabelEntry>& b) {
  uint32_t best = kInfSpcDistance;
  Count count = 0;
  for (const LabelEntry& x : a) {
    for (const LabelEntry& y : b) {
      if (x.hub_rank != y.hub_rank) continue;
      const uint32_t d =
          static_cast<uint32_t>(x.dist) + static_cast<uint32_t>(y.dist);
      if (d < best) {
        best = d;
        count = SatMul(x.count, y.count);
      } else if (d == best) {
        count = SatAdd(count, SatMul(x.count, y.count));
      }
    }
  }
  if (best == kInfSpcDistance) return {kInfSpcDistance, 0};
  return {best, count};
}

SpcResult Merge(const std::vector<LabelEntry>& a,
                const std::vector<LabelEntry>& b) {
  return MergeLabelCounts(std::span<const LabelEntry>(a.data(), a.size()),
                          std::span<const LabelEntry>(b.data(), b.size()));
}

std::vector<LabelEntry> RandomLabel(Rng& rng, size_t max_len) {
  const size_t n = rng.NextBounded(max_len + 1);
  std::vector<LabelEntry> entries;
  Rank rank = static_cast<Rank>(rng.NextBounded(8));
  for (size_t i = 0; i < n; ++i) {
    LabelEntry e;
    e.hub_rank = rank;
    // Small gaps most of the time so the two sides share many hubs
    // (the interesting merge case), wide gaps sometimes so one side
    // skips long runs of the other.
    rank += 1 + static_cast<uint32_t>(
                    rng.NextBounded(rng.NextBool(0.15) ? 5000 : 4));
    e.dist = rng.NextBool(0.05)
                 ? kInfDistance
                 : static_cast<Distance>(rng.NextBounded(64));
    e.count = rng.NextBool(0.05) ? kSaturatedCount : 1 + rng.NextBounded(1000);
    entries.push_back(e);
  }
  return entries;
}

TEST(LabelMergeTest, RandomListsMatchNestedLoopReference) {
  Rng rng(99173);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<LabelEntry> a = RandomLabel(rng, 48);
    const std::vector<LabelEntry> b = RandomLabel(rng, 48);
    ASSERT_EQ(Merge(a, b), NestedLoopMerge(a, b)) << "trial " << trial;
    ASSERT_EQ(Merge(b, a), NestedLoopMerge(a, b)) << "trial " << trial;
  }
}

TEST(LabelMergeTest, DegenerateShapes) {
  const std::vector<LabelEntry> empty;
  const std::vector<LabelEntry> one = {{5, 2, 3}};
  std::vector<LabelEntry> disjoint_low, disjoint_high;
  for (uint32_t i = 0; i < 20; ++i) {
    disjoint_low.push_back({i, 1, 1});
    disjoint_high.push_back({1000 + i, 1, 1});
  }
  const std::vector<const std::vector<LabelEntry>*> shapes = {
      &empty, &one, &disjoint_low, &disjoint_high};
  for (const auto* a : shapes) {
    for (const auto* b : shapes) {
      EXPECT_EQ(Merge(*a, *b), NestedLoopMerge(*a, *b));
    }
  }
  EXPECT_EQ(Merge(empty, one), (SpcResult{kInfSpcDistance, 0}));
  EXPECT_EQ(Merge(disjoint_low, disjoint_high),
            (SpcResult{kInfSpcDistance, 0}));
  EXPECT_EQ(Merge(one, one), (SpcResult{4, 9}));
}

TEST(LabelMergeTest, TiesSumAndSaturate) {
  // Two hubs at the same total distance: counts add; a saturated
  // factor saturates the product and the sum.
  const std::vector<LabelEntry> a = {{1, 1, 2}, {4, 2, 3}, {9, 1, 7}};
  const std::vector<LabelEntry> b = {{1, 2, 5}, {4, 1, 4}, {9, 5, 1}};
  EXPECT_EQ(Merge(a, b), (SpcResult{3, 2 * 5 + 3 * 4}));

  std::vector<LabelEntry> sat = a;
  sat[1].count = kSaturatedCount;
  EXPECT_EQ(Merge(sat, b), (SpcResult{3, kSaturatedCount}));
}

// Every pair of label lists a production query merges, from a real
// index: the CSR-backed query agrees with the nested-loop reference.
TEST(LabelMergeTest, RealIndexLabelsMatchReference) {
  const Graph g = GenerateClusteredBa(150, 3, 0.3, 31);
  BuildOptions options;
  options.num_landmarks = 8;
  const SpcIndex index = BuildIndex(g, options).index;

  Rng rng(88);
  for (int trial = 0; trial < 300; ++trial) {
    const auto s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    if (s == t) continue;
    const std::span<const LabelEntry> ls = index.Labels(s);
    const std::span<const LabelEntry> lt = index.Labels(t);
    const SpcResult expected =
        NestedLoopMerge({ls.begin(), ls.end()}, {lt.begin(), lt.end()});
    ASSERT_EQ(MergeLabelCounts(ls, lt), expected) << "(" << s << "," << t << ")";
    ASSERT_EQ(index.Query(s, t), expected) << "(" << s << "," << t << ")";
  }
}

}  // namespace
}  // namespace pspc
