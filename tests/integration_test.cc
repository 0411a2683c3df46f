// Cross-module integration sweeps: the full protocol under a grid of
// engine knobs (alpha, L, b, orderings, objectives), checked against brute
// force at every timestamp, plus consistency relations between the
// knobs (more tiles -> no worse update frequency; buffering never breaks
// convergence; codec on the wire preserves behaviour).
#include <gtest/gtest.h>

#include <string>

#include "engine_fuzz_util.h"
#include "sim/simulator.h"
#include "traj/generators.h"
#include "util/rng.h"

namespace mpn {
namespace {

struct SharedWorld {
  std::vector<Point> pois;
  PackedRTree tree;
  std::vector<Trajectory> trajs;

  static const SharedWorld& Get() {
    static SharedWorld* world = [] {
      auto* w = new SharedWorld();
      Rng rng(0x1A7E57);
      PoiOptions popt;
      popt.world = Rect({0, 0}, {30000, 30000});
      popt.clusters = 15;
      w->pois = GeneratePois(1500, popt, &rng);
      w->tree = PackedRTree::Build(w->pois);
      RandomWalkGenerator::Options wopt;
      wopt.world = popt.world;
      wopt.mean_speed = 10.0;
      wopt.heading_sigma = 0.08;
      const RandomWalkGenerator gen(wopt);
      w->trajs = gen.GenerateGroupedFleet(3, 3, 2500, 350, &rng);
      return w;
    }();
    return *world;
  }
};

struct KnobCase {
  int alpha;
  int split_level;
  int buffer_b;
  Method method;
  Objective obj;
  std::string name;
};

class KnobGridTest : public ::testing::TestWithParam<KnobCase> {};

TEST_P(KnobGridTest, ProtocolStaysCorrectUnderKnobs) {
  const KnobCase& kc = GetParam();
  const SharedWorld& w = SharedWorld::Get();
  std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                          &w.trajs[2]};
  SimOptions opt;
  opt.server.method = kc.method;
  opt.server.objective = kc.obj;
  opt.server.alpha = kc.alpha;
  opt.server.split_level = kc.split_level;
  opt.server.buffer_b = kc.buffer_b;
  const SimMetrics metrics =
      fuzz::RunCheckedGroup(&w.pois, &w.tree, group, opt);
  EXPECT_EQ(metrics.timestamps, 350u);
  EXPECT_GT(metrics.updates, 0u);
  // Protocol arithmetic must hold for any knob setting.
  EXPECT_EQ(metrics.comm.messages(MessageType::kLocationUpdate),
            metrics.updates);
  EXPECT_EQ(metrics.comm.messages(MessageType::kResult),
            3 * metrics.updates);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KnobGridTest,
    ::testing::Values(
        KnobCase{1, 0, 100, Method::kTile, Objective::kMax, "a1L0"},
        KnobCase{5, 1, 100, Method::kTile, Objective::kMax, "a5L1"},
        KnobCase{30, 2, 100, Method::kTile, Objective::kMax, "a30L2"},
        KnobCase{30, 3, 100, Method::kTileD, Objective::kMax, "a30L3D"},
        KnobCase{10, 2, 5, Method::kTileDBuffered, Objective::kMax, "b5"},
        KnobCase{10, 2, 200, Method::kTileDBuffered, Objective::kMax, "b200"},
        KnobCase{5, 1, 100, Method::kTile, Objective::kSum, "sum_a5L1"},
        KnobCase{30, 2, 50, Method::kTileDBuffered, Objective::kSum,
                 "sum_b50"},
        KnobCase{1, 0, 100, Method::kCircle, Objective::kSum, "sum_circle"}),
    [](const ::testing::TestParamInfo<KnobCase>& info) {
      return info.param.name;
    });

TEST(KnobRelationTest, LargerAlphaNeverHurtsUpdateFrequency) {
  const SharedWorld& w = SharedWorld::Get();
  std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                          &w.trajs[2]};
  size_t prev_updates = SIZE_MAX;
  for (int alpha : {1, 5, 15, 30}) {
    SimOptions opt;
    opt.server.method = Method::kTileD;
    opt.server.alpha = alpha;
    const size_t updates =
        fuzz::RunSingleGroup(&w.pois, &w.tree, group, opt).updates;
    // Bigger tile budgets grow regions monotonically per session; across a
    // whole run the frequency should not get *meaningfully* worse (10%
    // slack for trajectory-dependent session boundaries).
    EXPECT_LE(updates, prev_updates + prev_updates / 10 + 2)
        << "alpha=" << alpha;
    prev_updates = updates;
  }
}

TEST(KnobRelationTest, BufferedFrequencyConvergesToUnbuffered) {
  const SharedWorld& w = SharedWorld::Get();
  std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                          &w.trajs[2]};
  SimOptions plain;
  plain.server.method = Method::kTileD;
  plain.server.alpha = 15;
  const size_t unbuffered =
      fuzz::RunSingleGroup(&w.pois, &w.tree, group, plain).updates;
  SimOptions buffered = plain;
  buffered.server.method = Method::kTileDBuffered;
  buffered.server.buffer_b = 200;
  const size_t with_buffer =
      fuzz::RunSingleGroup(&w.pois, &w.tree, group, buffered).updates;
  // At large b the buffered run should be within ~15% of unbuffered.
  EXPECT_NEAR(static_cast<double>(with_buffer),
              static_cast<double>(unbuffered),
              0.15 * static_cast<double>(unbuffered) + 3.0);
}

TEST(KnobRelationTest, SplitLevelRecoversTiles) {
  // Deeper Divide-Verify recursion adds at least as many (sub)tiles.
  const SharedWorld& w = SharedWorld::Get();
  Rng rng(55);
  std::vector<Point> users;
  for (int i = 0; i < 3; ++i) {
    users.push_back({rng.Uniform(10000, 20000), rng.Uniform(10000, 20000)});
  }
  uint64_t prev_added = 0;
  for (int level : {0, 1, 2, 3}) {
    TileMsrConfig config;
    config.alpha = 10;
    config.split_level = level;
    const auto r = ComputeTileMsr(&w.tree, users, Objective::kMax, config);
    EXPECT_GE(r.stats.tiles_added + 2, prev_added) << "L=" << level;
    prev_added = r.stats.tiles_added;
  }
}

TEST(KnobRelationTest, WireCodecDoesNotChangeBehaviour) {
  // Two identical runs must produce identical update counts: a session
  // routes tile regions through encode/decode, so this also pins down codec
  // determinism end to end.
  const SharedWorld& w = SharedWorld::Get();
  std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1],
                                          &w.trajs[2]};
  SimOptions opt;
  opt.server.method = Method::kTileD;
  const SimMetrics ma = fuzz::RunSingleGroup(&w.pois, &w.tree, group, opt);
  const SimMetrics mb = fuzz::RunSingleGroup(&w.pois, &w.tree, group, opt);
  EXPECT_EQ(ma.updates, mb.updates);
  EXPECT_EQ(ma.comm.TotalPackets(), mb.comm.TotalPackets());
  EXPECT_EQ(ma.result_changes, mb.result_changes);
}

}  // namespace
}  // namespace mpn
