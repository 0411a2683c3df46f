// R-tree query tests: what the POI index (index/packed_rtree.h) answers.
// Range and circle retrievals are pruned Traverse calls and k-NN is the
// one-user GNN cursor; each is checked against brute force across sizes,
// together with the structural invariants and the node-access counter.
// The layout and its identity with the reference STR tree are covered in
// packed_rtree_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "index/gnn.h"
#include "index/packed_rtree.h"
#include "util/rng.h"

namespace mpn {
namespace {

std::vector<Point> RandomPoints(size_t n, uint64_t seed,
                                double extent = 1000.0) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
  }
  return pts;
}

/// Ids of the points inside `r` (closed), sorted.
std::vector<uint32_t> RangeQuery(const PackedRTree& tree, const Rect& r) {
  std::vector<uint32_t> out;
  tree.Traverse([&](const Rect& mbr) { return mbr.Intersects(r); },
                [&](const Point& p, uint32_t id) {
                  if (r.Contains(p)) out.push_back(id);
                });
  std::sort(out.begin(), out.end());
  return out;
}

/// Ids of the points within `radius` of `center`, sorted.
std::vector<uint32_t> CircleQuery(const PackedRTree& tree,
                                  const Point& center, double radius) {
  const double r2 = radius * radius;
  std::vector<uint32_t> out;
  tree.Traverse([&](const Rect& mbr) { return mbr.MinDist2(center) <= r2; },
                [&](const Point& p, uint32_t id) {
                  if (Dist2(p, center) <= r2) out.push_back(id);
                });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> BruteRange(const std::vector<Point>& pts,
                                 const Rect& r) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (r.Contains(pts[i])) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

std::vector<uint32_t> BruteKnn(const std::vector<Point>& pts, const Point& q,
                               size_t k) {
  std::vector<uint32_t> ids(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    const double da = Dist(q, pts[a]), db = Dist(q, pts[b]);
    if (da != db) return da < db;
    return a < b;
  });
  if (ids.size() > k) ids.resize(k);
  return ids;
}

TEST(RTreeTest, EmptyTree) {
  const PackedRTree tree = PackedRTree::Build({});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_LT(tree.root(), 0);
  EXPECT_TRUE(RangeQuery(tree, Rect({0, 0}, {1, 1})).empty());
  EXPECT_TRUE(FindGnn(&tree, {{0, 0}}, Objective::kMax, 5).empty());
  tree.CheckInvariants();
}

TEST(RTreeTest, SinglePoint) {
  const PackedRTree tree = PackedRTree::Build({{5, 5}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.IsLeafNode(tree.root()));
  EXPECT_EQ(RangeQuery(tree, Rect({4, 4}, {6, 6})),
            std::vector<uint32_t>{0});
  tree.CheckInvariants();
}

TEST(RTreeTest, BulkLoadInvariantsAcrossSizes) {
  // Sizes around the fanout, its square and its cube exercise short last
  // leaves per slice and every height from 1 to 4.
  for (size_t n : {1u, 5u, 31u, 32u, 33u, 100u, 1023u, 1025u, 5000u, 32769u,
                   40000u}) {
    const auto pts = RandomPoints(n, 2000 + n);
    const PackedRTree tree = PackedRTree::Build(pts);
    EXPECT_EQ(tree.size(), n);
    tree.CheckInvariants();
  }
}

TEST(RTreeTest, DuplicatePointsSupported) {
  const std::vector<Point> pts(50, Point{7.0, 7.0});
  const PackedRTree tree = PackedRTree::Build(pts);
  tree.CheckInvariants();
  EXPECT_EQ(RangeQuery(tree, Rect({7, 7}, {7, 7})).size(), 50u);
}

// Param: (POI count, bulk-loaded). PackedRTree::Build is the only builder,
// so every instance is bulk-loaded; the flag only keeps the instance names
// (`n<N>_bulk`) and their printed parameters stable.
class RTreeQueryTest : public ::testing::TestWithParam<
                           std::tuple<size_t, bool /*bulk*/>> {};

TEST_P(RTreeQueryTest, RangeMatchesBruteForce) {
  const size_t n = std::get<0>(GetParam());
  const auto pts = RandomPoints(n, 31 * n + 1);
  const PackedRTree tree = PackedRTree::Build(pts);
  Rng rng(n + 77);
  for (int q = 0; q < 25; ++q) {
    const Point lo{rng.Uniform(-50, 1000), rng.Uniform(-50, 1000)};
    const Rect r(lo, {lo.x + rng.Uniform(1, 400), lo.y + rng.Uniform(1, 400)});
    EXPECT_EQ(RangeQuery(tree, r), BruteRange(pts, r));
  }
}

TEST_P(RTreeQueryTest, KnnMatchesBruteForce) {
  const size_t n = std::get<0>(GetParam());
  const auto pts = RandomPoints(n, 57 * n + 1);
  const PackedRTree tree = PackedRTree::Build(pts);
  Rng rng(n + 13);
  for (int q = 0; q < 20; ++q) {
    const Point query{rng.Uniform(-100, 1100), rng.Uniform(-100, 1100)};
    for (size_t k : {size_t{1}, size_t{3}, size_t{10}, n + 5}) {
      const auto got = FindGnn(&tree, {query}, Objective::kMax, k);
      const auto want = BruteKnn(pts, query, k);
      ASSERT_EQ(got.size(), want.size());
      // Compare by distance (ids may differ only on exact ties).
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(Dist(query, pts[got[i].id]), Dist(query, pts[want[i]]),
                    1e-9);
      }
    }
  }
}

TEST_P(RTreeQueryTest, CircleRangeMatchesBruteForce) {
  const size_t n = std::get<0>(GetParam());
  const auto pts = RandomPoints(n, 91 * n + 1);
  const PackedRTree tree = PackedRTree::Build(pts);
  Rng rng(n + 5);
  for (int q = 0; q < 20; ++q) {
    const Point c{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double radius = rng.Uniform(1, 300);
    std::vector<uint32_t> want;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (Dist(c, pts[i]) <= radius) want.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_EQ(CircleQuery(tree, c, radius), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RTreeQueryTest,
    ::testing::Combine(::testing::Values(size_t{10}, size_t{100},
                                         size_t{1000}, size_t{4000}),
                       ::testing::Values(true)),
    [](const ::testing::TestParamInfo<RTreeQueryTest::ParamType>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_bulk";
    });

TEST(RTreeTest, TraversePruningRespectsPredicate) {
  const auto pts = RandomPoints(500, 4242);
  const PackedRTree tree = PackedRTree::Build(pts);
  // Predicate rejecting everything visits only the root.
  tree.ResetNodeAccesses();
  size_t visited = 0;
  tree.Traverse([](const Rect&) { return false; },
                [&](const Point&, uint32_t) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(tree.node_accesses(), 1u);
  // Predicate accepting everything visits every point.
  tree.Traverse([](const Rect&) { return true; },
                [&](const Point&, uint32_t) { ++visited; });
  EXPECT_EQ(visited, 500u);
}

TEST(RTreeTest, NodeAccessCounterMonotone) {
  const auto pts = RandomPoints(2000, 8);
  const PackedRTree tree = PackedRTree::Build(pts);
  tree.ResetNodeAccesses();
  RangeQuery(tree, Rect({0, 0}, {100, 100}));
  const uint64_t a1 = tree.node_accesses();
  EXPECT_GT(a1, 0u);
  RangeQuery(tree, Rect({0, 0}, {100, 100}));
  EXPECT_GT(tree.node_accesses(), a1);
}

}  // namespace
}  // namespace mpn
