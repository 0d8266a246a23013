// Tests for top-k queries and seed-set estimation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "hkpr/power_method.h"
#include "hkpr/queries.h"
#include "hkpr/tea_plus.h"
#include "test_util.h"

namespace hkpr {
namespace {

ApproxParams TightParams(const Graph& g) {
  ApproxParams p;
  p.t = 5.0;
  p.eps_r = 0.3;
  p.delta = 0.1 / static_cast<double>(g.Volume());
  p.p_f = 1e-4;
  return p;
}

TEST(TopKTest, OrderedAndBounded) {
  Graph g = PowerlawCluster(500, 4, 0.3, 1);
  TeaPlusEstimator est(g, TightParams(g), 2);
  const auto top = TopKQuery(g, est, 7, 10);
  ASSERT_LE(top.size(), 10u);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(TopKTest, SeedRanksFirstOnItsOwnQuery) {
  // The seed's normalized HKPR dominates on low-degree seeds.
  Graph g = testing::MakeBarbell(8);
  TeaPlusEstimator est(g, TightParams(g), 3);
  const auto top = TopKQuery(g, est, 0, 5);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].node, 0u);
}

TEST(TopKTest, MatchesExactTopSet) {
  Graph g = PowerlawCluster(300, 3, 0.3, 4);
  const NodeId seed = 11;
  std::vector<double> exact = ExactHkpr(g, 5.0, seed);
  NormalizeByDegree(g, exact);
  // Exact top-5 node set.
  std::vector<NodeId> order(g.NumNodes());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return exact[a] > exact[b];
  });

  TeaPlusEstimator est(g, TightParams(g), 5);
  const auto top = TopKQuery(g, est, seed, 5);
  ASSERT_EQ(top.size(), 5u);
  size_t overlap = 0;
  for (const ScoredNode& s : top) {
    if (std::find(order.begin(), order.begin() + 5, s.node) !=
        order.begin() + 5) {
      ++overlap;
    }
  }
  EXPECT_GE(overlap, 4u);
}

TEST(TopKTest, KLargerThanSupport) {
  Graph g = testing::MakePath(5);
  SparseVector est;
  est.Add(2, 0.5);
  est.Add(3, 0.25);
  const auto top = TopKNormalized(g, est, 100);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopKTest, IncludesDegreeOffsetInScores) {
  Graph g = testing::MakeStar(4);
  SparseVector est;
  est.Add(1, 0.1);
  est.set_degree_offset(0.05);
  const auto top = TopKNormalized(g, est, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.1 + 0.05);  // (0.1 + 0.05*1)/1
}

// Reference ranking: score every kept entry through ValueWithOffset into
// an nnz-sized buffer, then (partial-)sort it under the same order.
std::vector<ScoredNode> FullSortTopK(const Graph& graph,
                                     const SparseVector& estimate, size_t k) {
  std::vector<ScoredNode> scored;
  for (const auto& e : estimate.entries()) {
    const uint32_t d = graph.Degree(e.key);
    if (d == 0 || e.value <= 0.0) continue;
    scored.push_back({e.key, estimate.ValueWithOffset(e.key, d) / d});
  }
  const auto better = [](const ScoredNode& a, const ScoredNode& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  };
  if (scored.size() > k) {
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      better);
    scored.resize(k);
  } else {
    std::sort(scored.begin(), scored.end(), better);
  }
  return scored;
}

TEST(TopKTest, BoundedHeapMatchesFullSortBitForBit) {
  // A graph with isolated nodes (ids >= 150 have degree 0) and many equal
  // degrees, so equal scores are common and the node-id tie-break matters.
  GraphBuilder builder(200);
  Rng edges(17);
  for (int i = 0; i < 600; ++i) {
    builder.AddEdge(static_cast<NodeId>(edges.UniformInt(150)),
                    static_cast<NodeId>(edges.UniformInt(150)));
  }
  const Graph g = builder.Build();
  ASSERT_EQ(g.Degree(199), 0u);

  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    SparseVector est;
    const size_t support = 1 + rng.UniformInt(g.NumNodes());
    for (size_t i = 0; i < support; ++i) {
      const NodeId v = static_cast<NodeId>(rng.UniformInt(g.NumNodes()));
      // A few distinct degree-proportional values (tied scores), zeros
      // and negatives that must never be ranked, and positive values on
      // isolated nodes, which must never be ranked either.
      const double value =
          static_cast<double>(static_cast<int>(rng.UniformInt(6)) - 1) *
          0.125 * std::max(g.Degree(v), 1u);
      est.Set(v, value);
    }
    est.set_degree_offset(trial % 2 == 0 ? 0.0 : 1e-3 * (1 + trial % 5));
    const size_t nnz = est.nnz();
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, nnz - 1, nnz,
                     nnz + 5}) {
      const std::vector<ScoredNode> expected = FullSortTopK(g, est, k);
      const std::vector<ScoredNode> actual = TopKNormalized(g, est, k);
      ASSERT_EQ(actual.size(), expected.size())
          << "trial " << trial << " k=" << k;
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].node, expected[i].node)
            << "trial " << trial << " k=" << k << " rank " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(actual[i].score),
                  std::bit_cast<uint64_t>(expected[i].score))
            << "trial " << trial << " k=" << k << " rank " << i;
      }
    }
  }
}

TEST(SeedSetTest, SingleSeedMatchesPlainEstimate) {
  Graph g = PowerlawCluster(300, 3, 0.3, 6);
  TeaPlusEstimator est(g, TightParams(g), 7);
  std::vector<NodeId> seeds = {13};
  SparseVector combined = EstimateSeedSet(g, est, seeds);
  // Same estimator + single seed -> same support scale (not bit-identical:
  // a second Estimate() call consumes fresh randomness).
  EXPECT_GT(combined.Sum(), 0.5);
}

TEST(SeedSetTest, SingleSeedIsBitIdenticalToPlainEstimate) {
  // A one-element seed set is the degenerate mixture: weight 1 exactly, so
  // every combined entry equals the plain estimate's entry bit-for-bit
  // (same estimator seed => same randomness).
  Graph g = PowerlawCluster(300, 3, 0.3, 6);
  const ApproxParams params = TightParams(g);
  TeaPlusEstimator plain(g, params, 21);
  const SparseVector expected = plain.Estimate(13);

  TeaPlusEstimator mixed(g, params, 21);
  std::vector<NodeId> seeds = {13};
  const SparseVector combined = EstimateSeedSet(g, mixed, seeds);
  ASSERT_EQ(combined.nnz(), expected.nnz());
  EXPECT_DOUBLE_EQ(combined.degree_offset(), expected.degree_offset());
  for (const auto& e : expected.entries()) {
    EXPECT_DOUBLE_EQ(combined.Get(e.key), e.value);
  }
}

TEST(SeedSetTest, ZeroWeightSeedsAreSkippedEntirely) {
  // A zero-weight seed must not be estimated at all: it contributes no
  // entries AND consumes no randomness, so the result is bit-identical to
  // dropping it from the seed list.
  Graph g = PowerlawCluster(300, 3, 0.3, 6);
  const ApproxParams params = TightParams(g);
  TeaPlusEstimator plain(g, params, 22);
  const SparseVector expected = plain.Estimate(13);

  TeaPlusEstimator mixed(g, params, 22);
  std::vector<NodeId> seeds = {13, 5, 40};
  std::vector<double> weights = {2.0, 0.0, 0.0};
  const SparseVector combined = EstimateSeedSet(g, mixed, seeds, weights);
  ASSERT_EQ(combined.nnz(), expected.nnz());
  for (const auto& e : expected.entries()) {
    EXPECT_DOUBLE_EQ(combined.Get(e.key), e.value);
  }
}

TEST(SeedSetTest, RejectsWeightsLongerThanSeeds) {
  Graph g = testing::MakeCycle(6);
  ApproxParams params;
  params.delta = 1e-2;
  params.p_f = 1e-2;
  TeaPlusEstimator est(g, params, 5);
  std::vector<NodeId> seeds = {0, 1};
  std::vector<double> weights = {0.5, 0.25, 0.25};
  EXPECT_DEATH(EstimateSeedSet(g, est, seeds, weights), "weights");
}

TEST(SeedSetTest, UniformAverageOfDisjointSeeds) {
  // Two seeds in different components: the combined vector is exactly the
  // average (each component keeps its own mass = 0.5).
  GraphBuilder b(12);
  for (NodeId v = 0; v < 5; ++v) b.AddEdge(v, (v + 1) % 6);
  b.AddEdge(5, 0);
  for (NodeId v = 6; v < 11; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(11, 6);
  Graph g = b.Build();
  ApproxParams params = TightParams(g);
  TeaPlusEstimator est(g, params, 8);
  std::vector<NodeId> seeds = {0, 6};
  SparseVector combined = EstimateSeedSet(g, est, seeds);
  double mass_a = 0.0, mass_b = 0.0;
  for (const auto& e : combined.entries()) {
    (e.key < 6 ? mass_a : mass_b) += e.value;
  }
  EXPECT_NEAR(mass_a, 0.5, 0.05);
  EXPECT_NEAR(mass_b, 0.5, 0.05);
}

TEST(SeedSetTest, WeightsBiasTheMixture) {
  GraphBuilder b(12);
  for (NodeId v = 0; v < 5; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(5, 0);
  for (NodeId v = 6; v < 11; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(11, 6);
  Graph g = b.Build();
  TeaPlusEstimator est(g, TightParams(g), 9);
  std::vector<NodeId> seeds = {0, 6};
  std::vector<double> weights = {3.0, 1.0};
  SparseVector combined = EstimateSeedSet(g, est, seeds, weights);
  double mass_a = 0.0, mass_b = 0.0;
  for (const auto& e : combined.entries()) {
    (e.key < 6 ? mass_a : mass_b) += e.value;
  }
  EXPECT_NEAR(mass_a, 0.75, 0.05);
  EXPECT_NEAR(mass_b, 0.25, 0.05);
}

TEST(SeedSetTest, CombinesDegreeOffsets) {
  Graph g = PowerlawCluster(800, 5, 0.3, 10);
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1e-5;
  params.p_f = 1e-4;
  TeaPlusOptions options;
  options.c = 1.0;  // force the walk phase so offsets are attached
  TeaPlusEstimator est(g, params, 11, options);
  std::vector<NodeId> seeds = {3, 4};
  SparseVector combined = EstimateSeedSet(g, est, seeds);
  // Both estimates carry the same offset; the uniform mixture keeps it.
  EXPECT_NEAR(combined.degree_offset(), params.eps_r * params.delta / 2.0,
              1e-12);
}

}  // namespace
}  // namespace hkpr
