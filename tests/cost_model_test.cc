// Cost-model tests (Section-8 extension): protocol packet arithmetic is
// exact; the update-frequency estimator lands within a small constant
// factor of the simulated circle method.
#include <gtest/gtest.h>

#include "mpn/cost_model.h"
#include "sim/simulator.h"
#include "traj/generators.h"
#include "util/rng.h"

namespace mpn {
namespace {

TEST(PacketsPerUpdateTest, MatchesProtocolArithmetic) {
  const PacketModel model;
  // m = 3, circle regions (3 values): 1 + 2*(1+1) + 3*1 = 8 packets.
  EXPECT_DOUBLE_EQ(PacketsPerUpdate(3, kValuesPerCircle, model), 8.0);
  // m = 1: no probes; 1 + 0 + 1 = 2.
  EXPECT_DOUBLE_EQ(PacketsPerUpdate(1, kValuesPerCircle, model), 2.0);
  // Large regions spill into several result packets: 200 values + po -> 4.
  EXPECT_DOUBLE_EQ(PacketsPerUpdate(1, 200, model), 1.0 + 4.0);
}

TEST(PacketsPerUpdateTest, AgreesWithSimulatedAccounting) {
  // The closed form must reproduce the simulator's packet counters exactly
  // for the circle method (fixed 3-value regions).
  Rng rng(42);
  PoiOptions popt;
  popt.world = Rect({0, 0}, {20000, 20000});
  const auto pois = GeneratePois(400, popt, &rng);
  const PackedRTree tree = PackedRTree::Build(pois);
  RandomWalkGenerator::Options wopt;
  wopt.world = popt.world;
  wopt.mean_speed = 30.0;
  const RandomWalkGenerator gen(wopt);
  const auto fleet = gen.GenerateGroupedFleet(3, 3, 2000, 400, &rng);
  std::vector<const Trajectory*> group = {&fleet[0], &fleet[1], &fleet[2]};
  SimOptions opt;
  opt.server.method = Method::kCircle;
  Simulator sim(&pois, &tree, group, opt);
  const SimMetrics metrics = sim.Run();
  ASSERT_GT(metrics.updates, 0u);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(metrics.comm.TotalPackets()) /
          static_cast<double>(metrics.updates),
      PacketsPerUpdate(3, kValuesPerCircle));
}

TEST(CostModelTest, FrequencyEstimateWithinConstantFactor) {
  Rng rng(7);
  PoiOptions popt;
  popt.world = Rect({0, 0}, {50000, 50000});
  popt.clusters = 15;
  const auto pois = GeneratePois(3000, popt, &rng);
  const PackedRTree tree = PackedRTree::Build(pois);

  RandomWalkGenerator::Options wopt;
  wopt.world = popt.world;
  wopt.mean_speed = 8.0;
  wopt.heading_sigma = 0.05;
  const RandomWalkGenerator gen(wopt);
  const auto fleet = gen.GenerateGroupedFleet(9, 3, 2000, 1500, &rng);

  // Simulated truth over three groups.
  SimMetrics sim_total;
  std::vector<std::vector<Point>> configs;
  for (int g = 0; g < 3; ++g) {
    std::vector<const Trajectory*> group = {&fleet[3 * g], &fleet[3 * g + 1],
                                            &fleet[3 * g + 2]};
    SimOptions opt;
    opt.server.method = Method::kCircle;
    Simulator sim(&pois, &tree, group, opt);
    sim_total.Merge(sim.Run());
    // Model inputs: configurations sampled uniformly over the horizon.
    for (size_t t = 0; t < 1500; t += 50) {
      configs.push_back({group[0]->at(t), group[1]->at(t), group[2]->at(t)});
    }
  }
  const double truth = sim_total.UpdateFrequency();
  ASSERT_GT(truth, 0.0);

  const CircleCostEstimate est =
      EstimateCircleCost(&tree, configs, Objective::kMax, wopt.mean_speed);
  EXPECT_GT(est.update_frequency, 0.0);
  // Order-of-magnitude agreement (movement is not perfectly straight and
  // escape directions are not adversarial, so a ~3x band is expected).
  const double ratio = est.update_frequency / truth;
  EXPECT_GT(ratio, 0.25) << "model " << est.update_frequency << " vs sim "
                         << truth;
  EXPECT_LT(ratio, 4.0) << "model " << est.update_frequency << " vs sim "
                        << truth;
  // Packets-per-timestamp estimate combines the two exact pieces.
  EXPECT_NEAR(est.packets_per_timestamp,
              est.update_frequency * est.packets_per_update, 1e-12);
}

TEST(CostModelTest, FrequencyDecreasesWithLargerRegions) {
  // Sanity: doubling speed should roughly double the estimate; holding
  // configs fixed isolates the model's speed dependence.
  Rng rng(9);
  PoiOptions popt;
  popt.world = Rect({0, 0}, {30000, 30000});
  const auto pois = GeneratePois(1000, popt, &rng);
  const PackedRTree tree = PackedRTree::Build(pois);
  std::vector<std::vector<Point>> configs;
  for (int i = 0; i < 50; ++i) {
    configs.push_back({{rng.Uniform(5000, 25000), rng.Uniform(5000, 25000)},
                       {rng.Uniform(5000, 25000), rng.Uniform(5000, 25000)}});
  }
  const auto slow = EstimateCircleCost(&tree, configs, Objective::kMax, 5.0);
  const auto fast = EstimateCircleCost(&tree, configs, Objective::kMax, 10.0);
  EXPECT_GT(fast.update_frequency, slow.update_frequency);
  EXPECT_LT(fast.update_frequency, 2.0 * slow.update_frequency + 1e-9);
  EXPECT_DOUBLE_EQ(slow.mean_rmax, fast.mean_rmax);
}

}  // namespace
}  // namespace mpn
