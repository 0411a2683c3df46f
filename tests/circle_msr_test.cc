// Circle-MSR tests (Theorem 1 / Theorem 5): radius formulas, soundness of
// the resulting regions against brute force, and near-maximality.
#include <gtest/gtest.h>

#include "mpn/circle_msr.h"
#include "msr_test_util.h"
#include "util/rng.h"

namespace mpn {
namespace {

using testutil::IsOptimalMeetingPoint;
using testutil::MakeScenario;
using testutil::SampleRegion;
using testutil::Scenario;

TEST(CircleRadiusTest, MaxFormula) {
  // Theorem 1: rmax = (d2 - d1) / 2.
  EXPECT_DOUBLE_EQ(MaxCircleRadius(10.0, 16.0, 3, Objective::kMax), 3.0);
  EXPECT_DOUBLE_EQ(MaxCircleRadius(10.0, 10.0, 3, Objective::kMax), 0.0);
}

TEST(CircleRadiusTest, SumFormulaDividesByGroupSize) {
  // Theorem 5: rmax = (d2 - d1) / (2m).
  EXPECT_DOUBLE_EQ(MaxCircleRadius(10.0, 16.0, 3, Objective::kSum), 1.0);
  EXPECT_DOUBLE_EQ(MaxCircleRadius(10.0, 16.0, 1, Objective::kSum), 3.0);
}

TEST(CircleMsrTest, TwoPoiHandComputedExample) {
  // One user at the origin; POIs at distance 2 and 8: rmax = (8-2)/2 = 3.
  const std::vector<Point> pois = {{2, 0}, {-8, 0}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const auto result = ComputeCircleMsr(&tree, {{0, 0}}, Objective::kMax);
  EXPECT_EQ(result.po_id, 0u);
  EXPECT_DOUBLE_EQ(result.rmax, 3.0);
  ASSERT_EQ(result.regions.size(), 1u);
  EXPECT_TRUE(result.regions[0].is_circle());
  EXPECT_DOUBLE_EQ(result.regions[0].circle().radius, 3.0);
}

TEST(CircleMsrTest, SinglePoiGivesUnboundedRegion) {
  const std::vector<Point> pois = {{5, 5}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const auto result = ComputeCircleMsr(&tree, {{0, 0}, {9, 3}},
                                       Objective::kMax);
  EXPECT_EQ(result.po_id, 0u);
  EXPECT_GT(result.rmax, 1e12);  // the result can never change
}

class CircleSoundnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, Objective>> {};

TEST_P(CircleSoundnessTest, RegionsKeepOptimumInvariant) {
  const auto [m, obj] = GetParam();
  Rng rng(9100 + m * 10 + (obj == Objective::kSum ? 1 : 0));
  for (int trial = 0; trial < 30; ++trial) {
    const Scenario s =
        MakeScenario(120, m, 5000 + trial * 17 + m, /*extent=*/500.0);
    const auto result = ComputeCircleMsr(&s.tree, s.users, obj);
    ASSERT_EQ(result.regions.size(), m);
    // Every user sits at her circle's center.
    for (size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(result.regions[i].Contains(s.users[i]));
    }
    // Property: for sampled instances inside the circles, po stays optimal.
    for (int inst = 0; inst < 60; ++inst) {
      std::vector<Point> locations;
      for (size_t i = 0; i < m; ++i) {
        locations.push_back(SampleRegion(result.regions[i], &rng));
      }
      EXPECT_TRUE(
          IsOptimalMeetingPoint(s.pois, result.po_id, locations, obj, 1e-7))
          << "trial " << trial << " instance " << inst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Groups, CircleSoundnessTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{5}),
                       ::testing::Values(Objective::kMax, Objective::kSum)),
    [](const ::testing::TestParamInfo<CircleSoundnessTest::ParamType>& info) {
      return std::string(ObjectiveName(std::get<1>(info.param))) + "_m" +
             std::to_string(std::get<0>(info.param));
    });

TEST(CircleMsrTest, RadiusIsTightInWorstCase) {
  // Theorem 1 is worst-case tight: one user between two POIs. rmax =
  // (d2 - d1)/2; moving the user 5% beyond rmax toward the second-best POI
  // flips the optimum, while moving exactly rmax keeps po optimal (tie).
  const double d1 = 10.0, d2 = 16.0;
  const std::vector<Point> pois = {{d1, 0}, {-d2, 0}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const auto result = ComputeCircleMsr(&tree, {{0, 0}}, Objective::kMax);
  ASSERT_EQ(result.po_id, 0u);
  ASSERT_DOUBLE_EQ(result.rmax, (d2 - d1) / 2.0);
  const Point at_boundary{-result.rmax, 0};
  EXPECT_TRUE(IsOptimalMeetingPoint(pois, result.po_id, {at_boundary},
                                    Objective::kMax, 1e-12));
  const Point beyond{-result.rmax * 1.05, 0};
  EXPECT_FALSE(IsOptimalMeetingPoint(pois, result.po_id, {beyond},
                                     Objective::kMax, 1e-12));
}

TEST(CircleMsrTest, SumRadiusIsTightInWorstCase) {
  // Theorem 5 analogue for two users moving jointly toward the runner-up:
  // each user contributes 2r of sum-distance swing, so r = (s2 - s1)/(2m).
  const std::vector<Point> pois = {{0, 0}, {10, 0}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const std::vector<Point> users = {{4, 0}, {3, 0}};
  // s1 = 4+3 = 7 (po = p0); s2 = 6+7 = 13; rmax = 6/(2*2) = 1.5.
  const auto result = ComputeCircleMsr(&tree, users, Objective::kSum);
  ASSERT_EQ(result.po_id, 0u);
  ASSERT_DOUBLE_EQ(result.rmax, 1.5);
  // Move both users rmax*1.05 toward p1 (east): p1's sum drops below po's.
  std::vector<Point> beyond;
  for (const Point& u : users) beyond.push_back({u.x + 1.575, u.y});
  EXPECT_FALSE(
      IsOptimalMeetingPoint(pois, result.po_id, beyond, Objective::kSum,
                            1e-12));
  // At exactly rmax the sums tie and po survives.
  std::vector<Point> boundary;
  for (const Point& u : users) boundary.push_back({u.x + 1.5, u.y});
  EXPECT_TRUE(IsOptimalMeetingPoint(pois, result.po_id, boundary,
                                    Objective::kSum, 1e-12));
}

TEST(CircleMsrTest, DeterministicAcrossCalls) {
  const Scenario s = MakeScenario(200, 3, 777);
  const auto a = ComputeCircleMsr(&s.tree, s.users, Objective::kMax);
  const auto b = ComputeCircleMsr(&s.tree, s.users, Objective::kMax);
  EXPECT_EQ(a.po_id, b.po_id);
  EXPECT_DOUBLE_EQ(a.rmax, b.rmax);
}

}  // namespace
}  // namespace mpn
