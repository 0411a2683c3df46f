// Protocol and end-to-end simulation tests, including the global system
// invariant: whenever all users are inside their safe regions, the last
// reported meeting point is still optimal (checked against brute force at
// every timestamp through fuzz::InvariantChecks, engine_fuzz_util.h).
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

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
  EXPECT_GT(h.theta, 0.0);                  // clamped to kThetaMin
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

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(BitsOf(got[i]), BitsOf(want[i])) << "entry " << i;
  }
}

TEST(ClientTest, HeadingWindowMatchesTheLastEightHeadings) {
  // A 40-step walk whose headings are all distinct, spread so the learned
  // deviation lands both below and inside the clamp range; every fifth
  // step stands still and pushes no heading.
  Trajectory traj;
  Point p{100.0, 100.0};
  traj.positions.push_back(p);
  for (int i = 1; i <= 40; ++i) {
    if (i % 5 != 0) {
      const double angle = 0.05 * i * (i % 3 == 0 ? -7.0 : 1.0);
      p = p + UnitFromAngle(angle) * (1.0 + 0.1 * i);
    }
    traj.positions.push_back(p);
  }

  MpnClient client(&traj);
  std::unique_ptr<MpnClient> imported;  // from an export taken mid-wrap
  std::deque<double> model;             // the last eight headings
  size_t pushed = 0;
  client.Advance(0);
  for (size_t t = 1; t < traj.size(); ++t) {
    SCOPED_TRACE("t " + std::to_string(t));
    const Vec2 step = traj.at(t) - traj.at(t - 1);
    if (step.Norm2() > 0.0) {
      model.push_back(step.Angle());
      if (model.size() > MpnClient::kHeadingWindow) model.pop_front();
      ++pushed;
    }
    client.Advance(t);
    if (imported != nullptr) imported->Advance(t);

    const MpnClient::State state = client.ExportState();
    ExpectSameBits(state.recent_headings,
                   std::vector<double>(model.begin(), model.end()));
    const MotionHint hint = client.Hint();
    ASSERT_TRUE(hint.has_heading);
    double dev = 0.0;
    for (const double h : model) {
      dev = std::max(dev, AngleDiff(h, hint.heading));
    }
    EXPECT_EQ(BitsOf(hint.theta),
              BitsOf(std::clamp(dev, MpnClient::kThetaMin,
                                MpnClient::kThetaMax)));

    if (imported != nullptr) {
      ExpectSameBits(imported->ExportState().recent_headings,
                     state.recent_headings);
      const MotionHint other = imported->Hint();
      EXPECT_EQ(other.has_heading, hint.has_heading);
      EXPECT_EQ(BitsOf(other.heading), BitsOf(hint.heading));
      EXPECT_EQ(BitsOf(other.theta), BitsOf(hint.theta));
    } else if (pushed == MpnClient::kHeadingWindow + 3) {
      // Three headings past full: the ring's oldest entry sits at slot 3,
      // not at slot 0, while the import starts its ring at slot 0.
      imported = std::make_unique<MpnClient>(&traj);
      imported->ImportState(state);
    }
  }
  EXPECT_NE(imported, nullptr);
  EXPECT_GT(pushed, 30u);
}

// --- End-to-end simulation ---------------------------------------------------

struct SimCase {
  Method method;
  Objective obj;
  const char* name;
};

class SimulationInvariantTest : public ::testing::TestWithParam<SimCase> {};

// The headline integration test: run the full protocol in order with
// brute-force checks. Any stale or non-optimal meeting point, or any user
// outside a freshly assigned region, is a test failure; the engine run of
// the same group must report the same deterministic metrics.
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
  const SimMetrics metrics =
      fuzz::RunCheckedGroup(&w.pois, &w.tree, group, opt);
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

// The invariant checks are not vacuous. Handed the meeting point a session
// held until the recompute that replaced it, against that recompute's
// locations, InvariantChecks reports a stale meeting point; a fresh region
// moved off its user and a reported po that is not the optimum fail too.
// Each is one gtest failure, not an abort.
TEST(InvariantCheckTest, StaleMeetingPointIsATestFailure) {
  const World w = MakeWorld(300, 3, 400, 0xB0B);
  const std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                                &w.trajs[2]};
  SimOptions opt;
  opt.server.method = Method::kCircle;
  const fuzz::InvariantChecks checks(&w.pois, opt.server.objective);
  bool has_po = false;
  uint32_t held = 0;
  size_t replaced = 0;
  fuzz::DriveInOrder(
      &w.pois, &w.tree, group, opt, SessionTuning(), fuzz::kNoRetire,
      [&](const GroupSession::Snapshot& snap, const MsrResult& result) {
        checks.OnRecompute(snap, result);
        if (has_po && result.po_id != held && replaced++ == 0) {
          EXPECT_NONFATAL_FAILURE(checks.OnClean(snap, held),
                                  "stale meeting point");
          MsrResult wrong_po = result;
          wrong_po.po_id = held;
          EXPECT_NONFATAL_FAILURE(checks.OnRecompute(snap, wrong_po),
                                  "non-optimal meeting point");
          MsrResult moved = result;
          const Point away{snap.locations[0].x + 1e6, snap.locations[0].y};
          moved.regions[0] = SafeRegion::MakeCircle(Circle(away, 1.0));
          EXPECT_NONFATAL_FAILURE(checks.OnRecompute(snap, moved),
                                  "excludes user 0");
        }
        has_po = true;
        held = result.po_id;
      },
      [&](const GroupSession::Snapshot& snap, uint32_t po) {
        checks.OnClean(snap, po);
      });
  EXPECT_GT(replaced, 0u);
}

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
