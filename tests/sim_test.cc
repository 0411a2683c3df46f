// Protocol and end-to-end simulation tests, including the global system
// invariant: whenever all users are inside their safe regions, the last
// reported meeting point is still optimal (checked against brute force at
// every timestamp).
#include <gtest/gtest.h>

#include "engine_fuzz_util.h"
#include "net/message.h"
#include "sim/simulator.h"
#include "traj/generators.h"
#include "util/rng.h"

namespace mpn {
namespace {

const Rect kWorld({0, 0}, {20000, 20000});

struct World {
  std::vector<Point> pois;
  PackedRTree tree;
  std::vector<Trajectory> trajs;
};

World MakeWorld(size_t n_pois, size_t n_trajs, size_t timestamps,
                uint64_t seed) {
  World w;
  Rng rng(seed);
  PoiOptions popt;
  popt.world = kWorld;
  popt.clusters = 12;
  w.pois = GeneratePois(n_pois, popt, &rng);
  w.tree = PackedRTree::Build(w.pois);
  RandomWalkGenerator::Options wopt;
  wopt.world = kWorld;
  wopt.mean_speed = 60.0;
  const RandomWalkGenerator gen(wopt);
  w.trajs = gen.GenerateFleet(n_trajs, timestamps, &rng);
  return w;
}

// --- Packet model -----------------------------------------------------------

TEST(PacketModelTest, SixtySevenValuesPerPacket) {
  const PacketModel model;
  EXPECT_EQ(model.ValuesPerPacket(), 67u);  // (576-40)/8, RFC 879 MTU
  EXPECT_EQ(model.PacketsForValues(0), 1u);
  EXPECT_EQ(model.PacketsForValues(1), 1u);
  EXPECT_EQ(model.PacketsForValues(67), 1u);
  EXPECT_EQ(model.PacketsForValues(68), 2u);
  EXPECT_EQ(model.PacketsForValues(134), 2u);
  EXPECT_EQ(model.PacketsForValues(135), 3u);
}

TEST(PacketModelTest, RegionValueCounts) {
  const SafeRegion circle = SafeRegion::MakeCircle(Circle({0, 0}, 5));
  EXPECT_EQ(RegionValueCount(circle, true), kValuesPerCircle);
  TileRegion tiles({0, 0}, 1.0);
  for (int i = 0; i < 10; ++i) tiles.Add(GridTile{0, i, 0});
  const SafeRegion tr = SafeRegion::MakeTiles(tiles);
  EXPECT_EQ(RegionValueCount(tr, false), 30u);            // 3 per square
  EXPECT_LT(RegionValueCount(tr, true), 30u);             // compression wins
}

TEST(CommAccountingTest, RecordsPerTypeAndMerges) {
  const PacketModel model;
  CommAccounting a;
  a.Record(MessageType::kLocationUpdate, 4, model);
  a.Record(MessageType::kResult, 70, model);
  EXPECT_EQ(a.messages(MessageType::kLocationUpdate), 1u);
  EXPECT_EQ(a.packets(MessageType::kResult), 2u);
  EXPECT_EQ(a.TotalMessages(), 2u);
  EXPECT_EQ(a.TotalPackets(), 3u);
  EXPECT_EQ(a.TotalValues(), 74u);
  CommAccounting b;
  b.Record(MessageType::kProbe, 0, model);
  b.Merge(a);
  EXPECT_EQ(b.TotalMessages(), 3u);
  EXPECT_EQ(b.TotalPackets(), 4u);
}

// --- Client -----------------------------------------------------------------

TEST(ClientTest, TracksHeadingAndTheta) {
  Trajectory traj;
  for (int i = 0; i < 10; ++i) traj.positions.push_back({i * 1.0, 0.0});
  MpnClient client(&traj);
  EXPECT_FALSE(client.Hint().has_heading);  // not moved yet
  client.Advance(0);
  EXPECT_FALSE(client.Hint().has_heading);  // still at start
  client.Advance(1);
  const MotionHint h = client.Hint();
  EXPECT_TRUE(h.has_heading);
  EXPECT_NEAR(h.heading, 0.0, 1e-12);       // moving east
  EXPECT_GT(h.theta, 0.0);                  // clamped to theta_min
}

TEST(ClientTest, RegionContainmentDrivesViolation) {
  Trajectory traj;
  traj.positions = {{0, 0}, {1, 0}, {10, 0}};
  MpnClient client(&traj);
  client.Advance(0);
  EXPECT_FALSE(client.InsideRegion());  // no region yet
  client.SetRegion(SafeRegion::MakeCircle(Circle({0, 0}, 2)));
  EXPECT_TRUE(client.InsideRegion());
  client.Advance(1);
  EXPECT_TRUE(client.InsideRegion());
  client.Advance(2);
  EXPECT_FALSE(client.InsideRegion());
}

// --- End-to-end simulation ---------------------------------------------------

struct SimCase {
  Method method;
  Objective obj;
  const char* name;
};

class SimulationInvariantTest : public ::testing::TestWithParam<SimCase> {};

// The headline integration test: run the full protocol with brute-force
// checking enabled. MPN_ASSERTs inside the simulator abort on any stale or
// non-optimal meeting point, any user outside a freshly assigned region,
// or a codec mismatch.
TEST_P(SimulationInvariantTest, MeetingPointNeverGoesStale) {
  const SimCase& sc = GetParam();
  const World w = MakeWorld(300, 3, 400, 0xB0B + static_cast<int>(sc.method));
  std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                          &w.trajs[2]};
  SimOptions opt;
  opt.server.method = sc.method;
  opt.server.objective = sc.obj;
  opt.server.alpha = 10;
  opt.server.buffer_b = 30;
  opt.check_correctness = true;
  const SimMetrics metrics =
      fuzz::RunSingleGroup(&w.pois, &w.tree, group, opt);
  EXPECT_EQ(metrics.timestamps, 400u);
  EXPECT_GT(metrics.updates, 0u);
  EXPECT_GT(metrics.comm.TotalPackets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, SimulationInvariantTest,
    ::testing::Values(SimCase{Method::kCircle, Objective::kMax, "CircleMax"},
                      SimCase{Method::kTile, Objective::kMax, "TileMax"},
                      SimCase{Method::kTileD, Objective::kMax, "TileDMax"},
                      SimCase{Method::kTileDBuffered, Objective::kMax,
                              "TileDbMax"},
                      SimCase{Method::kCircle, Objective::kSum, "CircleSum"},
                      SimCase{Method::kTile, Objective::kSum, "TileSum"},
                      SimCase{Method::kTileD, Objective::kSum, "TileDSum"},
                      SimCase{Method::kTileDBuffered, Objective::kSum,
                              "TileDbSum"}),
    [](const ::testing::TestParamInfo<SimCase>& info) {
      return info.param.name;
    });

TEST(SimulationTest, TileRegionsReduceUpdatesVsCircle) {
  // The paper's headline claim (Fig. 13): tile-based safe regions cut the
  // update frequency substantially relative to circles.
  const World w = MakeWorld(400, 6, 600, 0xFEED);
  const auto groups = MakeGroups(w.trajs, 3, 3);
  SimOptions circle_opt;
  circle_opt.server.method = Method::kCircle;
  SimOptions tile_opt;
  tile_opt.server.method = Method::kTileD;
  tile_opt.server.alpha = 20;
  SimMetrics circle, tile;
  for (const auto& group : groups) {
    circle.Merge(fuzz::RunSingleGroup(&w.pois, &w.tree, group, circle_opt));
    tile.Merge(fuzz::RunSingleGroup(&w.pois, &w.tree, group, tile_opt));
  }
  EXPECT_LT(tile.updates, circle.updates);
  EXPECT_LT(tile.comm.TotalPackets(), circle.comm.TotalPackets());
}

TEST(SimulationTest, ProtocolMessageArithmetic) {
  // Per update: 1 location-update, (m-1) probes, (m-1) replies, m results.
  const World w = MakeWorld(200, 3, 200, 0xCAFE);
  std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                          &w.trajs[2]};
  SimOptions opt;
  opt.server.method = Method::kCircle;
  const SimMetrics metrics =
      fuzz::RunSingleGroup(&w.pois, &w.tree, group, opt);
  const size_t u = metrics.updates;
  EXPECT_EQ(metrics.comm.messages(MessageType::kLocationUpdate), u);
  EXPECT_EQ(metrics.comm.messages(MessageType::kProbe), 2 * u);
  EXPECT_EQ(metrics.comm.messages(MessageType::kProbeReply), 2 * u);
  EXPECT_EQ(metrics.comm.messages(MessageType::kResult), 3 * u);
}

TEST(SimulationTest, BufferingCutsIndexAccesses) {
  // Fig. 16 mechanism: Tile-D-b touches the R-tree far less than Tile-D.
  const World w = MakeWorld(2000, 3, 300, 0xACE);
  std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                          &w.trajs[2]};
  SimOptions plain;
  plain.server.method = Method::kTileD;
  plain.server.alpha = 15;
  SimOptions buffered = plain;
  buffered.server.method = Method::kTileDBuffered;
  buffered.server.buffer_b = 50;
  const SimMetrics m1 = fuzz::RunSingleGroup(&w.pois, &w.tree, group, plain);
  const SimMetrics m2 =
      fuzz::RunSingleGroup(&w.pois, &w.tree, group, buffered);
  ASSERT_GT(m1.updates, 0u);
  ASSERT_GT(m2.updates, 0u);
  EXPECT_LT(
      static_cast<double>(m2.msr.rtree_node_accesses) / m2.updates,
      static_cast<double>(m1.msr.rtree_node_accesses) / m1.updates);
}

TEST(SimulationTest, FasterUsersUpdateMoreOften) {
  // Fig. 15 mechanism: scaling user speed up increases update frequency.
  const World w = MakeWorld(300, 3, 500, 0xDEAD);
  std::vector<Trajectory> slow, fast;
  for (const auto& t : w.trajs) {
    slow.push_back(RescaleSpeed(t, 0.25, t.size()));
    fast.push_back(t);
  }
  SimOptions opt;
  opt.server.method = Method::kTileD;
  opt.server.alpha = 10;
  std::vector<const Trajectory*> gs = {&slow[0], &slow[1], &slow[2]};
  std::vector<const Trajectory*> gf = {&fast[0], &fast[1], &fast[2]};
  EXPECT_LE(fuzz::RunSingleGroup(&w.pois, &w.tree, gs, opt).updates,
            fuzz::RunSingleGroup(&w.pois, &w.tree, gf, opt).updates);
}

TEST(SimulationTest, MetricsMergeAddsFields) {
  SimMetrics a, b;
  a.timestamps = 10;
  a.updates = 2;
  a.server_seconds = 0.5;
  b.timestamps = 20;
  b.updates = 3;
  b.server_seconds = 0.25;
  a.Merge(b);
  EXPECT_EQ(a.timestamps, 30u);
  EXPECT_EQ(a.updates, 5u);
  EXPECT_DOUBLE_EQ(a.server_seconds, 0.75);
  EXPECT_NEAR(a.UpdateFrequency(), 5.0 / 30.0, 1e-12);
}

TEST(ServerTest, MethodNames) {
  EXPECT_STREQ(MethodName(Method::kCircle), "Circle");
  EXPECT_STREQ(MethodName(Method::kTile), "Tile");
  EXPECT_STREQ(MethodName(Method::kTileD), "Tile-D");
  EXPECT_STREQ(MethodName(Method::kTileDBuffered), "Tile-D-b");
}

}  // namespace
}  // namespace mpn
