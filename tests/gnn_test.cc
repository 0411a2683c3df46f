// Group nearest neighbor (MAX/SUM-GNN) tests: aggregate distance math,
// best-first search vs brute force, incremental cursor ordering.
#include <gtest/gtest.h>

#include <cmath>

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
    GnnCursor cursor(&tree, users, obj);
    double prev = -1.0;
    size_t count = 0;
    while (auto item = cursor.Next()) {
      EXPECT_GE(item->agg, prev - 1e-12);
      prev = item->agg;
      ++count;
    }
    EXPECT_EQ(count, pois.size());  // exhausts the whole dataset exactly once
  }
}

TEST(GnnTest, CursorExhaustsAndReturnsNullopt) {
  const auto pois = RandomPoints(10, 5);
  const PackedRTree tree = PackedRTree::Build(pois);
  GnnCursor cursor(&tree, {{0, 0}}, Objective::kMax);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(cursor.Next().has_value());
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_FALSE(cursor.Next().has_value());
}

TEST(GnnTest, SingleUserEqualsKnn) {
  const auto pois = RandomPoints(800, 2718);
  const PackedRTree tree = PackedRTree::Build(pois);
  const Point q{333, 444};
  // With one user both objectives reduce to the distance to q, so the
  // cursor is a k-NN search and must match the exhaustive (dist, id) order.
  const auto knn = FindGnnBruteForce(pois, {q}, Objective::kMax, 15);
  const auto gnn = FindGnn(&tree, {q}, Objective::kMax, 15);
  ASSERT_EQ(knn.size(), gnn.size());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_EQ(gnn[i].id, knn[i].id) << "rank " << i;
    EXPECT_EQ(gnn[i].agg, knn[i].agg) << "rank " << i;
  }
}

TEST(GnnTest, ObjectiveNameStrings) {
  EXPECT_STREQ(ObjectiveName(Objective::kMax), "MAX");
  EXPECT_STREQ(ObjectiveName(Objective::kSum), "SUM");
}

}  // namespace
}  // namespace mpn
