// Road-network MPN extension tests: network metric correctness (symmetry,
// triangle inequality, same-edge shortcuts), metric-ball materialization,
// the metric-space Theorem-1/5 soundness property, and the end-to-end
// network simulation invariant, checked by a test-side run of the protocol
// (RunCheckedNetworkSim), never inside SimulateNetworkMpn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "netmpn/network_mpn.h"
#include "util/rng.h"

namespace mpn {
namespace {

const Rect kWorld({0, 0}, {10000, 10000});

struct NetFixture {
  RoadNetwork network;
  NetworkSpace space;
  explicit NetFixture(uint64_t seed, int rows = 8, int cols = 8)
      : network([&] {
          Rng rng(seed);
          return RoadNetwork::RandomGrid(kWorld, rows, cols, 0.2, 0.1, 0.1,
                                         &rng);
        }()),
        space(&network) {}
};

// SimulateNetworkMpn's protocol, step for step, with the paper's invariant
// checked as gtest failures: after every recompute each user lies in its
// fresh ball, and at every tick without a violation the meeting point in
// force is still the exhaustive-scan optimum (1e-6 relative tolerance).
NetworkSimMetrics SimulateChecked(
    const NetworkSpace& space, const NetworkMpn& engine,
    const std::vector<const NetworkTrajectory*>& group, Objective obj) {
  NetworkSimMetrics metrics;
  size_t horizon = group.front()->size();
  for (const NetworkTrajectory* t : group) {
    horizon = std::min(horizon, t->size());
  }
  std::vector<NetworkBall> regions;
  bool has_result = false;
  uint32_t current_po = 0;
  for (size_t t = 0; t < horizon; ++t) {
    ++metrics.timestamps;
    std::vector<EdgePosition> locations;
    for (const NetworkTrajectory* traj : group) {
      locations.push_back(traj->positions[t]);
    }
    bool violated = !has_result;
    for (size_t i = 0; has_result && !violated && i < locations.size(); ++i) {
      violated = !regions[i].Contains(locations[i]);
    }
    if (violated) {
      ++metrics.updates;
      NetworkMpnResult result = engine.Compute(locations, obj);
      if (has_result && result.po_index != current_po) {
        ++metrics.result_changes;
      }
      current_po = result.po_index;
      has_result = true;
      regions = std::move(result.regions);
      for (size_t i = 0; i < locations.size(); ++i) {
        metrics.region_values += regions[i].ValueCount();
        EXPECT_TRUE(regions[i].Contains(locations[i], 1e-6))
            << "network ball excludes user " << i << " at t " << t;
      }
    } else {
      std::vector<std::vector<double>> nd;
      for (const EdgePosition& u : locations) {
        nd.push_back(space.NodeDistancesFrom(u));
      }
      double best = 1e300;
      for (size_t j = 0; j < engine.pois().size(); ++j) {
        best = std::min(best, engine.AggNetworkDist(j, nd, locations, obj));
      }
      const double reported =
          engine.AggNetworkDist(current_po, nd, locations, obj);
      EXPECT_LE(reported, best + 1e-6 * (1.0 + best))
          << "stale network meeting point inside safe balls at t " << t;
    }
  }
  return metrics;
}

// SimulateNetworkMpn with the invariant checked: the group also runs
// through SimulateChecked, whose metrics must equal the library run's,
// which are returned.
NetworkSimMetrics RunCheckedNetworkSim(
    const NetworkSpace& space, const NetworkMpn& engine,
    const std::vector<const NetworkTrajectory*>& group, Objective obj) {
  const NetworkSimMetrics checked = SimulateChecked(space, engine, group, obj);
  const NetworkSimMetrics served = SimulateNetworkMpn(engine, group, obj);
  EXPECT_EQ(checked.timestamps, served.timestamps);
  EXPECT_EQ(checked.updates, served.updates);
  EXPECT_EQ(checked.result_changes, served.result_changes);
  EXPECT_EQ(checked.region_values, served.region_values);
  return served;
}

TEST(NetworkSpaceTest, EdgeTableMatchesNetwork) {
  NetFixture f(1);
  EXPECT_EQ(f.space.EdgeCount(), f.network.EdgeCount());
  for (uint32_t id = 0; id < f.space.EdgeCount(); ++id) {
    const auto& e = f.space.edge(id);
    EXPECT_LT(e.a, e.b);
    EXPECT_NEAR(e.length,
                Dist(f.network.NodePos(e.a), f.network.NodePos(e.b)), 1e-9);
  }
}

TEST(NetworkSpaceTest, ToEuclideanInterpolates) {
  NetFixture f(2);
  const auto& e = f.space.edge(0);
  const Point pa = f.network.NodePos(e.a);
  const Point pb = f.network.NodePos(e.b);
  EXPECT_NEAR(Dist(f.space.ToEuclidean({0, 0.0}), pa), 0.0, 1e-9);
  EXPECT_NEAR(Dist(f.space.ToEuclidean({0, e.length}), pb), 0.0, 1e-9);
  const Point mid = f.space.ToEuclidean({0, e.length / 2});
  EXPECT_NEAR(Dist(mid, pa), Dist(mid, pb), 1e-9);
}

TEST(NetworkSpaceTest, DistanceIsSymmetric) {
  NetFixture f(3);
  Rng rng(33);
  for (int trial = 0; trial < 40; ++trial) {
    const EdgePosition a = RandomEdgePosition(f.space, &rng);
    const EdgePosition b = RandomEdgePosition(f.space, &rng);
    EXPECT_NEAR(f.space.Distance(a, b), f.space.Distance(b, a), 1e-6);
  }
}

TEST(NetworkSpaceTest, DistanceSatisfiesTriangleInequality) {
  NetFixture f(4);
  Rng rng(44);
  for (int trial = 0; trial < 40; ++trial) {
    const EdgePosition a = RandomEdgePosition(f.space, &rng);
    const EdgePosition b = RandomEdgePosition(f.space, &rng);
    const EdgePosition c = RandomEdgePosition(f.space, &rng);
    EXPECT_LE(f.space.Distance(a, c),
              f.space.Distance(a, b) + f.space.Distance(b, c) + 1e-6);
  }
}

TEST(NetworkSpaceTest, DistanceLowerBoundedByEuclidean) {
  NetFixture f(5);
  Rng rng(55);
  for (int trial = 0; trial < 40; ++trial) {
    const EdgePosition a = RandomEdgePosition(f.space, &rng);
    const EdgePosition b = RandomEdgePosition(f.space, &rng);
    EXPECT_GE(f.space.Distance(a, b) + 1e-6,
              Dist(f.space.ToEuclidean(a), f.space.ToEuclidean(b)));
  }
}

TEST(NetworkSpaceTest, SameEdgeShortcut) {
  NetFixture f(6);
  const auto& e = f.space.edge(0);
  const EdgePosition a{0, e.length * 0.25};
  const EdgePosition b{0, e.length * 0.75};
  EXPECT_NEAR(f.space.Distance(a, b), e.length * 0.5, 1e-9);
}

TEST(NetworkSpaceTest, ZeroDistanceToSelf) {
  NetFixture f(7);
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const EdgePosition a = RandomEdgePosition(f.space, &rng);
    EXPECT_NEAR(f.space.Distance(a, a), 0.0, 1e-9);
  }
}

TEST(NetworkBallTest, ContainsExactlyPositionsWithinRadius) {
  NetFixture f(8);
  Rng rng(88);
  for (int trial = 0; trial < 15; ++trial) {
    const EdgePosition center = RandomEdgePosition(f.space, &rng);
    const double radius = rng.Uniform(100, 3000);
    const NetworkBall ball = f.space.Ball(center, radius);
    for (int s = 0; s < 60; ++s) {
      const EdgePosition p = RandomEdgePosition(f.space, &rng);
      const double d = f.space.Distance(center, p);
      if (d <= radius - 1e-6) {
        EXPECT_TRUE(ball.Contains(p))
            << "dist " << d << " <= radius " << radius;
      }
      if (d > radius + 1e-6) {
        EXPECT_FALSE(ball.Contains(p))
            << "dist " << d << " > radius " << radius;
      }
    }
  }
}

TEST(NetworkBallTest, ContainsCenterAndGrowsWithRadius) {
  NetFixture f(9);
  Rng rng(99);
  const EdgePosition center = RandomEdgePosition(f.space, &rng);
  double prev_len = -1.0;
  for (double r : {0.0, 50.0, 500.0, 5000.0, 50000.0}) {
    const NetworkBall ball = f.space.Ball(center, r);
    EXPECT_TRUE(ball.Contains(center, 1e-6));
    EXPECT_GE(ball.TotalLength(), prev_len);
    prev_len = ball.TotalLength();
  }
  // A huge radius covers the whole network.
  double total_edges = 0.0;
  for (uint32_t id = 0; id < f.space.EdgeCount(); ++id) {
    total_edges += f.space.edge(id).length;
  }
  EXPECT_NEAR(f.space.Ball(center, 1e9).TotalLength(), total_edges, 1e-6);
}

TEST(NetworkBallTest, SegmentsAreMergedAndSorted) {
  NetworkBall ball;
  ball.AddSegment(3, 5.0, 10.0);
  ball.AddSegment(1, 0.0, 2.0);
  ball.AddSegment(3, 8.0, 12.0);
  ball.AddSegment(3, 20.0, 25.0);
  ball.Finalize();
  ASSERT_EQ(ball.SegmentCount(), 3u);
  EXPECT_EQ(ball.segments()[0].edge_id, 1u);
  EXPECT_DOUBLE_EQ(ball.segments()[1].lo, 5.0);
  EXPECT_DOUBLE_EQ(ball.segments()[1].hi, 12.0);
  EXPECT_DOUBLE_EQ(ball.TotalLength(), 2.0 + 7.0 + 5.0);
  EXPECT_EQ(ball.ValueCount(), 6u);
}

TEST(NetworkBallTest, EmptyAndNegativeRadius) {
  NetFixture f(10);
  const NetworkBall ball = f.space.Ball({0, 0.0}, -1.0);
  EXPECT_EQ(ball.SegmentCount(), 0u);
  EXPECT_FALSE(ball.Contains({0, 0.0}));
}

class NetworkMpnSoundnessTest : public ::testing::TestWithParam<Objective> {};

// Metric-space Theorem 1/5: sampled user positions inside the metric balls
// never change the optimal meeting point (exhaustive check over POIs).
TEST_P(NetworkMpnSoundnessTest, BallsKeepOptimumInvariant) {
  const Objective obj = GetParam();
  NetFixture f(11);
  Rng rng(obj == Objective::kMax ? 111 : 112);
  std::vector<EdgePosition> pois;
  for (int i = 0; i < 60; ++i) pois.push_back(RandomEdgePosition(f.space, &rng));
  const NetworkMpn engine(&f.space, pois);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<EdgePosition> users;
    const size_t m = 1 + trial % 3;
    for (size_t i = 0; i < m; ++i) {
      users.push_back(RandomEdgePosition(f.space, &rng));
    }
    const NetworkMpnResult result = engine.Compute(users, obj);
    if (result.rmax <= 0.0) continue;
    for (int inst = 0; inst < 15; ++inst) {
      // Sample a location inside each user's ball by rejection.
      std::vector<EdgePosition> locs;
      for (size_t i = 0; i < m; ++i) {
        EdgePosition l = users[i];
        for (int tries = 0; tries < 200; ++tries) {
          const EdgePosition cand = RandomEdgePosition(f.space, &rng);
          if (result.regions[i].Contains(cand)) {
            l = cand;
            break;
          }
        }
        locs.push_back(l);
      }
      // Exhaustive optimum for the sampled instance.
      std::vector<std::vector<double>> nd;
      for (const EdgePosition& u : locs) {
        nd.push_back(f.space.NodeDistancesFrom(u));
      }
      double best = 1e300;
      for (size_t j = 0; j < pois.size(); ++j) {
        best = std::min(best, engine.AggNetworkDist(j, nd, locs, obj));
      }
      const double reported =
          engine.AggNetworkDist(result.po_index, nd, locs, obj);
      EXPECT_LE(reported, best + 1e-6 * (1.0 + best))
          << "trial " << trial << " instance " << inst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Objectives, NetworkMpnSoundnessTest,
                         ::testing::Values(Objective::kMax, Objective::kSum),
                         [](const ::testing::TestParamInfo<Objective>& info) {
                           return ObjectiveName(info.param);
                         });

// Two views of the same network: a plain Dijkstra space and one with the
// CH index attached. Everything computed through them must be
// bit-identical.
struct ChFixture {
  RoadNetwork network;
  CHIndex ch;
  NetworkSpace dijkstra_space;
  NetworkSpace ch_space;
  explicit ChFixture(uint64_t seed, int rows = 9, int cols = 9)
      : network([&] {
          Rng rng(seed);
          return RoadNetwork::RandomGrid(kWorld, rows, cols, 0.25, 0.12, 0.12,
                                         &rng);
        }()),
        ch(network.BuildCHIndex()),
        dijkstra_space(&network),
        ch_space(&network) {
    ch_space.AttachIndex(&ch);
  }
};

TEST(NetworkSpaceChTest, DistanceBitIdenticalToDijkstra) {
  ChFixture f(16);
  Rng rng(166);
  for (int trial = 0; trial < 60; ++trial) {
    const EdgePosition a = RandomEdgePosition(f.dijkstra_space, &rng);
    const EdgePosition b = RandomEdgePosition(f.dijkstra_space, &rng);
    EXPECT_EQ(f.ch_space.Distance(a, b), f.dijkstra_space.Distance(a, b));
  }
}

// Regression: positions on edges that share an endpoint — the meeting node
// of the CH query is then a search *seed* on both sides, which the
// relax-time candidate events alone would miss.
TEST(NetworkSpaceChTest, AdjacentEdgePositionsBitIdentical) {
  ChFixture f(21);
  for (uint32_t e1 = 0; e1 < f.dijkstra_space.EdgeCount(); ++e1) {
    for (uint32_t e2 = e1 + 1; e2 < f.dijkstra_space.EdgeCount(); ++e2) {
      const auto& a = f.dijkstra_space.edge(e1);
      const auto& b = f.dijkstra_space.edge(e2);
      if (a.a != b.a && a.a != b.b && a.b != b.a && a.b != b.b) continue;
      for (double ta : {0.0, 0.3, 1.0}) {
        for (double tb : {0.0, 0.7, 1.0}) {
          const EdgePosition pa{e1, ta * a.length};
          const EdgePosition pb{e2, tb * b.length};
          EXPECT_EQ(f.ch_space.Distance(pa, pb),
                    f.dijkstra_space.Distance(pa, pb))
              << "edges " << e1 << "," << e2 << " t=" << ta << "," << tb;
        }
      }
      e1 = f.dijkstra_space.EdgeCount();  // one adjacent pair is plenty...
      break;
    }
  }
  // ...but also sweep a handful of random adjacent pairs.
  Rng rng(211);
  int found = 0;
  for (int trial = 0; trial < 400 && found < 12; ++trial) {
    const EdgePosition pa = RandomEdgePosition(f.dijkstra_space, &rng);
    const EdgePosition pb = RandomEdgePosition(f.dijkstra_space, &rng);
    const auto& a = f.dijkstra_space.edge(pa.edge_id);
    const auto& b = f.dijkstra_space.edge(pb.edge_id);
    if (a.a != b.a && a.a != b.b && a.b != b.a && a.b != b.b) continue;
    ++found;
    EXPECT_EQ(f.ch_space.Distance(pa, pb), f.dijkstra_space.Distance(pa, pb));
  }
  EXPECT_GT(found, 0);
}

TEST(NetworkSpaceChTest, DistancesToTargetsMatchNodeDistances) {
  ChFixture f(17);
  Rng rng(177);
  std::vector<uint32_t> nodes;
  for (int i = 0; i < 30; ++i) {
    nodes.push_back(static_cast<uint32_t>(rng.UniformInt(
        0, static_cast<int64_t>(f.network.NodeCount()) - 1)));
  }
  const CHIndex::TargetSet targets = f.ch.MakeTargetSet(nodes);
  for (int trial = 0; trial < 15; ++trial) {
    const EdgePosition src = RandomEdgePosition(f.ch_space, &rng);
    const std::vector<double> oracle =
        f.dijkstra_space.NodeDistancesFrom(src);
    std::vector<double> got;
    f.ch_space.DistancesToTargets(src, targets, &got);
    ASSERT_EQ(got.size(), nodes.size());
    for (size_t j = 0; j < nodes.size(); ++j) {
      EXPECT_EQ(got[j], oracle[nodes[j]]) << "target node " << nodes[j];
    }
  }
}

TEST(NetworkMpnChTest, ComputeIdenticalWithAndWithoutIndex) {
  ChFixture f(18);
  Rng rng(188);
  std::vector<EdgePosition> pois;
  for (int i = 0; i < 70; ++i) {
    pois.push_back(RandomEdgePosition(f.dijkstra_space, &rng));
  }
  const NetworkMpn dijkstra_engine(&f.dijkstra_space, pois);
  const NetworkMpn ch_engine(&f.ch_space, pois);
  for (Objective obj : {Objective::kMax, Objective::kSum}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<EdgePosition> users;
      for (int i = 0; i < 1 + trial % 4; ++i) {
        users.push_back(RandomEdgePosition(f.dijkstra_space, &rng));
      }
      const NetworkMpnResult a = dijkstra_engine.Compute(users, obj);
      const NetworkMpnResult b = ch_engine.Compute(users, obj);
      EXPECT_EQ(a.po_index, b.po_index);
      EXPECT_EQ(a.po_agg, b.po_agg);
      EXPECT_EQ(a.second_agg, b.second_agg);
      EXPECT_EQ(a.rmax, b.rmax);
      ASSERT_EQ(a.regions.size(), b.regions.size());
      for (size_t i = 0; i < a.regions.size(); ++i) {
        EXPECT_EQ(a.regions[i].SegmentCount(), b.regions[i].SegmentCount());
        EXPECT_EQ(a.regions[i].TotalLength(), b.regions[i].TotalLength());
      }
    }
  }
}

TEST(NetworkMpnChTest, NearestPOIsMatchesExhaustiveRanking) {
  ChFixture f(19);
  Rng rng(199);
  std::vector<EdgePosition> pois;
  for (int i = 0; i < 50; ++i) {
    pois.push_back(RandomEdgePosition(f.dijkstra_space, &rng));
  }
  const NetworkMpn engine(&f.ch_space, pois);
  const NetworkMpn oracle_engine(&f.dijkstra_space, pois);
  for (Objective obj : {Objective::kMax, Objective::kSum}) {
    std::vector<EdgePosition> users;
    for (int i = 0; i < 3; ++i) {
      users.push_back(RandomEdgePosition(f.dijkstra_space, &rng));
    }
    const auto ranks = engine.NearestPOIs(users, obj, 10);
    ASSERT_EQ(ranks.size(), 10u);
    // Exhaustive oracle: aggregate via per-user Dijkstra tables.
    std::vector<std::vector<double>> nd;
    for (const EdgePosition& u : users) {
      nd.push_back(f.dijkstra_space.NodeDistancesFrom(u));
    }
    std::vector<std::pair<double, uint32_t>> all;
    for (size_t j = 0; j < pois.size(); ++j) {
      all.push_back({oracle_engine.AggNetworkDist(j, nd, users, obj),
                     static_cast<uint32_t>(j)});
    }
    std::sort(all.begin(), all.end());
    for (size_t r = 0; r < ranks.size(); ++r) {
      EXPECT_EQ(ranks[r].poi_index, all[r].second) << "rank " << r;
      EXPECT_EQ(ranks[r].agg, all[r].first) << "rank " << r;
    }
    // Ascending aggregates.
    for (size_t r = 1; r < ranks.size(); ++r) {
      EXPECT_LE(ranks[r - 1].agg, ranks[r].agg);
    }
  }
}

TEST(NetworkSimChTest, SimulationMetricsIdenticalWithAndWithoutIndex) {
  ChFixture f(20, 7, 7);
  Rng rng(200);
  std::vector<EdgePosition> pois;
  for (int i = 0; i < 40; ++i) {
    pois.push_back(RandomEdgePosition(f.dijkstra_space, &rng));
  }
  const NetworkMpn dijkstra_engine(&f.dijkstra_space, pois);
  const NetworkMpn ch_engine(&f.ch_space, pois);
  std::vector<NetworkTrajectory> trajs;
  for (int i = 0; i < 3; ++i) {
    trajs.push_back(
        GenerateNetworkTrajectory(f.dijkstra_space, f.network, 30.0, 200,
                                  &rng));
  }
  const std::vector<const NetworkTrajectory*> group = {&trajs[0], &trajs[1],
                                                       &trajs[2]};
  for (Objective obj : {Objective::kMax, Objective::kSum}) {
    const NetworkSimMetrics a =
        RunCheckedNetworkSim(f.dijkstra_space, dijkstra_engine, group, obj);
    const NetworkSimMetrics b =
        RunCheckedNetworkSim(f.ch_space, ch_engine, group, obj);
    EXPECT_EQ(a.timestamps, b.timestamps);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.result_changes, b.result_changes);
    EXPECT_EQ(a.region_values, b.region_values);
  }
}

TEST(NetworkTrajectoryTest, PositionsValidAndSpeedBounded) {
  NetFixture f(13);
  Rng rng(133);
  const NetworkTrajectory traj =
      GenerateNetworkTrajectory(f.space, f.network, 40.0, 500, &rng);
  ASSERT_EQ(traj.size(), 500u);
  for (size_t t = 0; t < traj.size(); ++t) {
    EXPECT_TRUE(f.space.IsValid(traj.positions[t])) << "t=" << t;
  }
  // Network distance between consecutive samples never exceeds the speed.
  for (size_t t = 1; t < traj.size(); t += 25) {
    EXPECT_LE(f.space.Distance(traj.positions[t - 1], traj.positions[t]),
              40.0 + 1e-6)
        << "t=" << t;
  }
}

TEST(NetworkSimTest, EndToEndInvariantHolds) {
  NetFixture f(14, 6, 6);
  Rng rng(144);
  std::vector<EdgePosition> pois;
  for (int i = 0; i < 40; ++i) pois.push_back(RandomEdgePosition(f.space, &rng));
  const NetworkMpn engine(&f.space, pois);
  std::vector<NetworkTrajectory> trajs;
  for (int i = 0; i < 3; ++i) {
    trajs.push_back(
        GenerateNetworkTrajectory(f.space, f.network, 25.0, 250, &rng));
  }
  const std::vector<const NetworkTrajectory*> group = {&trajs[0], &trajs[1],
                                                       &trajs[2]};
  for (Objective obj : {Objective::kMax, Objective::kSum}) {
    const NetworkSimMetrics metrics =
        RunCheckedNetworkSim(f.space, engine, group, obj);
    EXPECT_EQ(metrics.timestamps, 250u);
    EXPECT_GT(metrics.updates, 0u);
    EXPECT_LT(metrics.updates, 250u);  // balls must save some updates
  }
}

TEST(NetworkSimTest, SafeRegionsBeatPerTickReporting) {
  NetFixture f(15);
  Rng rng(155);
  std::vector<EdgePosition> pois;
  for (int i = 0; i < 80; ++i) pois.push_back(RandomEdgePosition(f.space, &rng));
  const NetworkMpn engine(&f.space, pois);
  std::vector<NetworkTrajectory> trajs;
  for (int i = 0; i < 2; ++i) {
    trajs.push_back(
        GenerateNetworkTrajectory(f.space, f.network, 15.0, 600, &rng));
  }
  const std::vector<const NetworkTrajectory*> group = {&trajs[0], &trajs[1]};
  const NetworkSimMetrics metrics =
      SimulateNetworkMpn(engine, group, Objective::kMax);
  EXPECT_LT(metrics.UpdateFrequency(), 0.5);
}

}  // namespace
}  // namespace mpn
