// Group nearest neighbor (MAX/SUM-GNN) tests: aggregate distance math,
// bounded best-first search vs brute force, full-depth ordering, and keys
// on the search's boundaries (ties with the bound, nodes and points keyed
// alike, bounds whose squares underflow or overflow).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gnn_boundary_inputs.h"
#include "index/gnn.h"
#include "util/rng.h"

namespace mpn {
namespace {

std::vector<Point> RandomPoints(size_t n, uint64_t seed,
                                double extent = 1000.0) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
  }
  return pts;
}

TEST(AggDistTest, MaxAndSum) {
  const std::vector<Point> users = {{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(AggDist({0, 0}, users, Objective::kMax), 10.0);
  EXPECT_DOUBLE_EQ(AggDist({5, 0}, users, Objective::kMax), 5.0);
  EXPECT_DOUBLE_EQ(AggDist({5, 0}, users, Objective::kSum), 10.0);
  EXPECT_DOUBLE_EQ(AggDist({0, 0}, users, Objective::kSum), 10.0);
}

TEST(AggDistTest, MbrLowerBoundIsValid) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Point> users;
    const int m = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < m; ++i) {
      users.push_back({rng.Uniform(-100, 100), rng.Uniform(-100, 100)});
    }
    const Point lo{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    const Rect mbr(lo, {lo.x + rng.Uniform(1, 50), lo.y + rng.Uniform(1, 50)});
    for (Objective obj : {Objective::kMax, Objective::kSum}) {
      const double lb = AggMinDist(mbr, users, obj);
      for (int s = 0; s < 30; ++s) {
        const Point p{rng.Uniform(mbr.lo.x, mbr.hi.x),
                      rng.Uniform(mbr.lo.y, mbr.hi.y)};
        EXPECT_LE(lb, AggDist(p, users, obj) + 1e-9);
      }
    }
  }
}

TEST(AggDistTest, MbrUpperBoundAndOneRootAreExact) {
  // FindGnn prunes with a leaf's AggMaxDist and compares keys bit for bit,
  // so the bounds must hold with no tolerance, on the MBR's corners and
  // edges too, and a MAX aggregate's one root must equal the per-user fold.
  Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Point> users;
    const int m = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < m; ++i) {
      users.push_back({rng.Uniform(-100, 100), rng.Uniform(-100, 100)});
    }
    const Point lo{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    const Rect mbr(lo, {lo.x + rng.Uniform(0, 50), lo.y + rng.Uniform(0, 50)});
    for (Objective obj : {Objective::kMax, Objective::kSum}) {
      const double lb = AggMinDist(mbr, users, obj);
      const double ub = AggMaxDist(mbr, users, obj);
      for (int s = 0; s < 40; ++s) {
        // The corners, then uniform samples, some moved onto an edge.
        Point p = mbr.Corner(s);
        if (s >= 4) {
          p.x = std::min(rng.Uniform(mbr.lo.x, mbr.hi.x), mbr.hi.x);
          p.y = std::min(rng.Uniform(mbr.lo.y, mbr.hi.y), mbr.hi.y);
          if (s % 4 == 1) p.x = mbr.lo.x;
          if (s % 4 == 2) p.y = mbr.hi.y;
        }
        const double agg = AggDist(p, users, obj);
        EXPECT_LE(lb, agg);
        EXPECT_LE(agg, ub);
      }
      double max_dist = 0.0, max_min = 0.0, max_max = 0.0;
      for (const Point& u : users) {
        max_dist = std::max(max_dist, Dist(mbr.lo, u));
        max_min = std::max(max_min, mbr.MinDist(u));
        max_max = std::max(max_max, mbr.MaxDist(u));
      }
      if (obj == Objective::kMax) {
        EXPECT_EQ(AggDist(mbr.lo, users, obj), max_dist);
        EXPECT_EQ(lb, max_min);
        EXPECT_EQ(ub, max_max);
      }
    }
  }
}

TEST(GnnTest, KnownConfiguration) {
  // Fig. 11 of the paper: U = {u1, u2}, P = {p1, p2};
  // p1 minimizes the sum (1.5 + 9.5 = 11).
  const std::vector<Point> users = {{1.5, 0}, {-9.5, 0}};
  const std::vector<Point> pois = {{0, 0}, {6, 0}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const auto sum = FindGnn(&tree, users, Objective::kSum, 1);
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_EQ(sum[0].id, 0u);
  EXPECT_DOUBLE_EQ(sum[0].agg, 1.5 + 9.5);
}

class GnnParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, Objective>> {
};

TEST_P(GnnParamTest, MatchesBruteForce) {
  const auto [n, m, obj] = GetParam();
  const auto pois = RandomPoints(n, 11 * n + m);
  const PackedRTree tree = PackedRTree::Build(pois);
  Rng rng(n * 7 + m);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> users;
    for (size_t i = 0; i < m; ++i) {
      users.push_back({rng.Uniform(-200, 1200), rng.Uniform(-200, 1200)});
    }
    const size_t k = 1 + static_cast<size_t>(rng.UniformInt(0, 20));
    const auto got = FindGnn(&tree, users, obj, k);
    const auto want = FindGnnBruteForce(pois, users, obj, k);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].agg, want[i].agg, 1e-9)
          << "rank " << i << " trial " << trial;
    }
    // The first result (the optimal meeting point) must match exactly
    // (deterministic tie-breaking by id).
    if (!got.empty()) {
      EXPECT_EQ(got[0].id, want[0].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GnnParamTest,
    ::testing::Combine(::testing::Values(size_t{20}, size_t{200},
                                         size_t{3000}),
                       ::testing::Values(size_t{1}, size_t{3}, size_t{6}),
                       ::testing::Values(Objective::kMax, Objective::kSum)),
    [](const ::testing::TestParamInfo<GnnParamTest::ParamType>& info) {
      return std::string(ObjectiveName(std::get<2>(info.param))) + "_n" +
             std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

TEST(GnnTest, CursorStreamsInNonDecreasingOrder) {
  const auto pois = RandomPoints(500, 321);
  const PackedRTree tree = PackedRTree::Build(pois);
  const std::vector<Point> users = {{100, 100}, {900, 200}, {400, 800}};
  for (Objective obj : {Objective::kMax, Objective::kSum}) {
    // k = n: the whole dataset, in (agg, id) order.
    const auto all = FindGnn(&tree, users, obj, pois.size());
    ASSERT_EQ(all.size(), pois.size());
    std::vector<bool> seen(pois.size(), false);
    for (size_t i = 0; i < all.size(); ++i) {
      if (i > 0) {
        const GnnItem& prev = all[i - 1];
        EXPECT_TRUE(prev.agg < all[i].agg ||
                    (prev.agg == all[i].agg && prev.id < all[i].id))
            << "rank " << i;
      }
      ASSERT_LT(all[i].id, pois.size());
      EXPECT_FALSE(seen[all[i].id]) << "id " << all[i].id;  // once each
      seen[all[i].id] = true;
      EXPECT_EQ(all[i].p, pois[all[i].id]);
      EXPECT_EQ(all[i].agg, AggDist(pois[all[i].id], users, obj));
    }
  }
}

TEST(GnnTest, CursorExhaustsAndReturnsNullopt) {
  const auto pois = RandomPoints(10, 5);
  const PackedRTree tree = PackedRTree::Build(pois);
  // k = n + 1: the search runs out of points and returns all n, exactly as
  // the brute force ranks them.
  const auto got = FindGnn(&tree, {{0, 0}}, Objective::kMax, 11);
  const auto want = FindGnnBruteForce(pois, {{0, 0}}, Objective::kMax, 11);
  ASSERT_EQ(got.size(), 10u);
  ASSERT_EQ(want.size(), 10u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].agg, want[i].agg) << "rank " << i;
  }
  EXPECT_TRUE(FindGnn(&tree, {{0, 0}}, Objective::kMax, 0).empty());
}

TEST(GnnTest, SingleUserEqualsKnn) {
  const auto pois = RandomPoints(800, 2718);
  const PackedRTree tree = PackedRTree::Build(pois);
  const Point q{333, 444};
  // With one user both objectives reduce to the distance to q, so the
  // search is a k-NN search and must match the exhaustive (dist, id) order.
  const auto knn = FindGnnBruteForce(pois, {q}, Objective::kMax, 15);
  const auto gnn = FindGnn(&tree, {q}, Objective::kMax, 15);
  ASSERT_EQ(knn.size(), gnn.size());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_EQ(gnn[i].id, knn[i].id) << "rank " << i;
    EXPECT_EQ(gnn[i].agg, knn[i].agg) << "rank " << i;
  }
}

/// FindGnn must return exactly the brute-force ranking's first k: ids,
/// points and aggregates, bit for bit.
void ExpectBruteForceTopK(const std::vector<Point>& pois,
                          const PackedRTree& tree,
                          const std::vector<Point>& users, Objective obj,
                          size_t k) {
  SCOPED_TRACE(testing::Message() << ObjectiveName(obj)
                                  << " m=" << users.size() << " k=" << k);
  const auto got = FindGnn(&tree, users, obj, k);
  const auto want = FindGnnBruteForce(pois, users, obj, k);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].agg, want[i].agg) << "rank " << i;
    EXPECT_EQ(got[i].p, want[i].p) << "rank " << i;
  }
}

TEST(GnnTest, KeysOnTheBoundMatchBruteForce) {
  // Points on the ring of radius R around the users, their one-ulp
  // neighbours, duplicates with equal keys and a leaf keyed like them
  // (gnn_boundary_inputs.h). At every depth the k-th result's key is the
  // bound some later point or node ties with.
  const auto pois = gnn_inputs::UlpRingPoints(0x1A1);
  const PackedRTree tree = PackedRTree::Build(pois);
  for (size_t m = 1; m <= 6; ++m) {
    for (Objective obj : {Objective::kMax, Objective::kSum}) {
      for (size_t k = 1; k <= pois.size() + 1; ++k) {
        ExpectBruteForceTopK(pois, tree, gnn_inputs::RingUsers(m), obj, k);
      }
    }
  }
}

TEST(GnnTest, BoundsWhoseSquaresUnderflowOrOverflowMatchBruteForce) {
  // At 1e-160 the squared keys and the bound's square are subnormal or
  // zero; at 1.2e154 they overflow to +inf, for some keys as well.
  constexpr size_t kFanout = PackedRTree::kFanout;
  for (double extent : {1e-160, 1.2e154}) {
    SCOPED_TRACE(testing::Message() << "extent=" << extent);
    const auto pois = gnn_inputs::ScaledPoints(1000, extent, 0x1A2);
    const PackedRTree tree = PackedRTree::Build(pois);
    Rng rng(0x1A3);
    for (size_t m = 1; m <= 6; ++m) {
      std::vector<Point> users;
      for (size_t j = 0; j < m; ++j) {
        users.push_back({rng.Uniform(-0.1 * extent, 1.1 * extent),
                         rng.Uniform(-0.1 * extent, 1.1 * extent)});
      }
      for (Objective obj : {Objective::kMax, Objective::kSum}) {
        for (size_t k : {size_t{1}, size_t{2}, kFanout, kFanout + 1,
                         pois.size(), pois.size() + 1}) {
          ExpectBruteForceTopK(pois, tree, users, obj, k);
        }
      }
    }
  }
}

TEST(GnnTest, LeafWithFewerThanKPointsBoundsNothing) {
  // 33 points tile into two leaves, the 17 of least x and the other 16.
  // The 16 sit next to the user; with k = 17 their leaf's AggMaxDist lies
  // below the 17th result, which is in the far leaf, so taking it as a
  // bound would prune that leaf.
  std::vector<Point> pois;
  for (int i = 0; i < 17; ++i) pois.push_back({0.05 * i, 500.0 + 0.05 * i});
  for (int i = 0; i < 16; ++i) pois.push_back({100.0 + 0.05 * i, 0.05 * i});
  const PackedRTree tree = PackedRTree::Build(pois);
  for (Objective obj : {Objective::kMax, Objective::kSum}) {
    for (size_t k : {15, 16, 17, 18, 33, 34}) {
      ExpectBruteForceTopK(pois, tree, {{100.4, 0.4}}, obj, k);
      ExpectBruteForceTopK(pois, tree, {{100.4, 0.4}, {100.0, 0.0}}, obj, k);
    }
  }
}

TEST(GnnTest, ObjectiveNameStrings) {
  EXPECT_STREQ(ObjectiveName(Objective::kMax), "MAX");
  EXPECT_STREQ(ObjectiveName(Objective::kSum), "SUM");
}

}  // namespace
}  // namespace mpn
