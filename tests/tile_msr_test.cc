// Tile-MSR tests (Section 5 + Section 6.3): the central soundness property
// (safe regions never let the optimum change), GT- vs IT-Verify agreement,
// orderings, buffering, and structural checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mpn/tile_msr.h"
#include "mpn/verify.h"
#include "msr_test_util.h"
#include "sim/client.h"
#include "util/rng.h"

namespace mpn {
namespace {

using testutil::IsOptimalMeetingPoint;
using testutil::MakeScenario;
using testutil::SampleRegion;
using testutil::Scenario;

std::vector<MotionHint> RandomHints(size_t m, Rng* rng) {
  std::vector<MotionHint> hints(m);
  for (auto& h : hints) {
    h.has_heading = true;
    h.heading = rng->Uniform(-3.14159, 3.14159);
    h.theta = rng->Uniform(0.3, 1.2);
  }
  return hints;
}

struct TileCase {
  Objective obj;
  bool directed;
  bool buffered;
  VerifierKind verifier;
  std::string name;
};

class TileSoundnessTest : public ::testing::TestWithParam<TileCase> {};

// The core paper invariant (Definition 3): for every sampled instance of
// user locations inside the computed regions, the reported meeting point
// remains optimal. Checked against brute force over all POIs.
TEST_P(TileSoundnessTest, RegionsKeepOptimumInvariant) {
  const TileCase& tc = GetParam();
  Rng rng(31337);
  TileMsrConfig config;
  config.alpha = 12;
  config.split_level = 2;
  config.directed = tc.directed;
  config.buffered = tc.buffered;
  config.buffer_b = 40;
  config.verifier = tc.verifier;
  for (int trial = 0; trial < 25; ++trial) {
    const size_t m = 1 + trial % 4;
    const Scenario s = MakeScenario(150, m, 8800 + trial * 31, 800.0);
    const auto hints = RandomHints(m, &rng);
    const auto result = ComputeTileMsr(&s.tree, s.users, tc.obj, config, hints);
    ASSERT_EQ(result.regions.size(), m);
    for (size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(result.regions[i].Contains(s.users[i]))
          << "user " << i << " outside her own region, trial " << trial;
    }
    for (int inst = 0; inst < 40; ++inst) {
      std::vector<Point> locations;
      for (size_t i = 0; i < m; ++i) {
        locations.push_back(SampleRegion(result.regions[i], &rng));
      }
      EXPECT_TRUE(
          IsOptimalMeetingPoint(s.pois, result.po_id, locations, tc.obj, 1e-7))
          << tc.name << " trial " << trial << " instance " << inst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TileSoundnessTest,
    ::testing::Values(
        TileCase{Objective::kMax, false, false, VerifierKind::kGt, "Tile"},
        TileCase{Objective::kMax, true, false, VerifierKind::kGt, "TileD"},
        TileCase{Objective::kMax, true, true, VerifierKind::kGt, "TileDb"},
        TileCase{Objective::kMax, false, false, VerifierKind::kIt, "TileIT"},
        TileCase{Objective::kSum, false, false, VerifierKind::kGt, "SumTile"},
        TileCase{Objective::kSum, true, false, VerifierKind::kGt, "SumTileD"},
        TileCase{Objective::kSum, true, true, VerifierKind::kGt, "SumTileDb"}),
    [](const ::testing::TestParamInfo<TileCase>& info) {
      return info.param.name;
    });

// GT-Verify is a conservative refinement: whenever GT accepts a tile,
// exhaustive IT must accept it too (Theorem 2 soundness at tile-group
// granularity).
TEST(GtVsItTest, GtAcceptanceImpliesItAcceptance) {
  Rng rng(1212);
  size_t gt_accepts = 0, checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const size_t m = 2 + trial % 2;
    const Scenario s = MakeScenario(60, m, 7100 + trial, 400.0);
    // Build small tile regions with the engine first.
    TileMsrConfig config;
    config.alpha = 4;
    config.split_level = 1;
    const auto result =
        ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
    // Reconstruct TileRegions (skip degenerate circle fallbacks).
    std::vector<TileRegion> regions;
    bool tiles_ok = true;
    for (const auto& r : result.regions) {
      if (r.is_circle()) {
        tiles_ok = false;
        break;
      }
      regions.push_back(r.tiles());
    }
    if (!tiles_ok) continue;
    // Try random new tiles around each user against random candidates.
    MaxGtVerifier gt;
    MaxItVerifier it;
    for (int probe = 0; probe < 20; ++probe) {
      const size_t ui = static_cast<size_t>(rng.UniformInt(0, m - 1));
      const GridTile cell{0, static_cast<int32_t>(rng.UniformInt(-3, 3)),
                          static_cast<int32_t>(rng.UniformInt(-3, 3))};
      const Rect rect = regions[ui].TileRect(cell);
      const uint32_t cid = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.pois.size()) - 1));
      if (cid == result.po_id) continue;
      const Candidate cand{cid, s.pois[cid]};
      ++checked;
      const bool g = gt.VerifyTile(regions, ui, rect, cand, result.po);
      if (g) {
        ++gt_accepts;
        EXPECT_TRUE(it.VerifyTile(regions, ui, rect, cand, result.po))
            << "GT accepted a tile IT rejects (unsound GT), trial " << trial;
      }
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(gt_accepts, 20u);
}

// Divide-Verify splits a rejected tile and can admit sub-tiles (Fig. 6b).
TEST(DivideVerifyTest, SplitsRecoverPartialTiles) {
  // po between two users; a competing point close to one side.
  const std::vector<Point> pois = {{0.0, 0.0}, {3.0, 0.4}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const std::vector<Point> users = {{-2, 0}, {2, 0}};
  TileMsrConfig config;
  config.alpha = 8;
  config.split_level = 2;
  const auto result = ComputeTileMsr(&tree, users, Objective::kMax, config);
  ASSERT_FALSE(result.regions.empty());
  // With L=2 splits enabled the engine usually admits sub-level tiles; the
  // stats must reflect divide calls beyond level-0 tests.
  EXPECT_GT(result.stats.divide_calls, result.stats.tiles_tried);
}

TEST(DivideVerifyTest, RespectsSplitLevelZero) {
  const Scenario s = MakeScenario(100, 2, 3333, 500.0);
  TileMsrConfig c0;
  c0.alpha = 6;
  c0.split_level = 0;
  const auto r0 = ComputeTileMsr(&s.tree, s.users, Objective::kMax, c0);
  for (const auto& region : r0.regions) {
    if (region.is_circle()) continue;
    for (const GridTile& t : region.tiles().tiles()) {
      EXPECT_EQ(t.level, 0);  // no splits allowed
    }
  }
}

TEST(TileMsrTest, TileRegionsContainInscribedSquareOfCircle) {
  // The initial tile equals the square inscribed in the Theorem-1 circle, so
  // tile regions are never smaller than that square.
  const Scenario s = MakeScenario(200, 3, 11);
  TileMsrConfig config;
  const auto tiles = ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
  const auto circles = ComputeCircleMsr(&s.tree, s.users, Objective::kMax);
  for (size_t i = 0; i < s.users.size(); ++i) {
    if (tiles.regions[i].is_circle()) continue;
    const Rect inscribed = Circle(s.users[i], circles.rmax).InscribedSquare();
    const Rect initial = tiles.regions[i].tiles().rects()[0];
    EXPECT_NEAR(initial.lo.x, inscribed.lo.x, 1e-9);
    EXPECT_NEAR(initial.hi.y, inscribed.hi.y, 1e-9);
  }
}

TEST(TileMsrTest, GrowsBeyondCircleRegions) {
  // Aggregate tile area should typically exceed the circle area (that is the
  // whole point of Section 5). Checked across scenarios on average.
  double tile_area = 0.0, circle_area = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const Scenario s = MakeScenario(150, 3, 500 + trial);
    TileMsrConfig config;
    config.alpha = 30;
    const auto t = ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
    const auto c = ComputeCircleMsr(&s.tree, s.users, Objective::kMax);
    if (c.rmax > 1e12) continue;
    for (const auto& r : t.regions) {
      if (r.is_circle()) continue;
      for (const Rect& rect : r.tiles().rects()) tile_area += rect.Area();
    }
    circle_area += 3.14159265 * c.rmax * c.rmax * 3;
  }
  EXPECT_GT(tile_area, circle_area);
}

TEST(TileMsrTest, BufferedRegionsAreSubsetsInSpirit) {
  // Buffering limits region extent by beta_b: buffered regions never extend
  // beyond max displacement beta_b from the user.
  const Scenario s = MakeScenario(300, 3, 919);
  TileMsrConfig config;
  config.buffered = true;
  config.buffer_b = 25;
  const auto result = ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
  BufferedCandidateSource source(&s.tree, s.users, Objective::kMax,
                                 config.buffer_b);
  const double beta_b = source.Beta(config.buffer_b);
  for (size_t i = 0; i < s.users.size(); ++i) {
    if (result.regions[i].is_circle()) continue;
    for (const Rect& t : result.regions[i].tiles().rects()) {
      EXPECT_LE(t.MaxDist(s.users[i]), beta_b + 1e-9);
    }
  }
}

TEST(TileMsrTest, DegenerateTiedOptimaFallBackToCircles) {
  // Two POIs equidistant from the single user: rmax = 0, no tile fits.
  const std::vector<Point> pois = {{1, 0}, {-1, 0}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const auto result =
      ComputeTileMsr(&tree, {{0, 0}}, Objective::kMax, TileMsrConfig{});
  ASSERT_EQ(result.regions.size(), 1u);
  EXPECT_TRUE(result.regions[0].is_circle());
  EXPECT_DOUBLE_EQ(result.regions[0].circle().radius, 0.0);
}

TEST(TileMsrTest, SinglePoiFallsBackToUnboundedCircle) {
  const std::vector<Point> pois = {{4, 4}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const auto result =
      ComputeTileMsr(&tree, {{0, 0}, {5, 5}}, Objective::kMax, TileMsrConfig{});
  for (const auto& r : result.regions) {
    EXPECT_TRUE(r.is_circle());
    EXPECT_GT(r.circle().radius, 1e12);
  }
}

TEST(TileMsrTest, AlphaBoundsTileCount) {
  const Scenario s = MakeScenario(100, 2, 2024);
  for (int alpha : {1, 5, 15}) {
    TileMsrConfig config;
    config.alpha = alpha;
    config.split_level = 0;  // one insert per round at most
    const auto result =
        ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
    for (const auto& r : result.regions) {
      if (r.is_circle()) continue;
      // initial tile + at most alpha successful rounds
      EXPECT_LE(r.tiles().size(), static_cast<size_t>(alpha) + 1);
    }
  }
}

TEST(TileMsrTest, DirectedOrderingBiasesGrowthTowardHeading) {
  // A user moving east should extend farther east than west on average.
  const Scenario s = MakeScenario(250, 1, 606);
  TileMsrConfig config;
  config.alpha = 20;
  config.directed = true;
  std::vector<MotionHint> hints(1);
  hints[0].has_heading = true;
  hints[0].heading = 0.0;  // east
  hints[0].theta = 0.6;
  const auto result =
      ComputeTileMsr(&s.tree, s.users, Objective::kMax, config, hints);
  if (!result.regions[0].is_circle()) {
    const Rect b = result.regions[0].tiles().Bounds();
    const double east = b.hi.x - s.users[0].x;
    const double west = s.users[0].x - b.lo.x;
    EXPECT_GE(east + 1e-9, west);
  }
}

TEST(TileMsrTest, StatsArePopulated) {
  const Scenario s = MakeScenario(150, 3, 321);
  TileMsrConfig config;
  const auto result = ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
  EXPECT_GT(result.stats.divide_calls, 0u);
  EXPECT_GT(result.stats.tiles_added, 0u);
  EXPECT_GT(result.stats.candidates.retrievals, 0u);
  EXPECT_GT(result.stats.rtree_node_accesses, 0u);
}

TEST(TileMsrTest, DeterministicAcrossCalls) {
  const Scenario s = MakeScenario(200, 3, 8);
  TileMsrConfig config;
  config.directed = false;
  const auto a = ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
  const auto b = ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
  EXPECT_EQ(a.po_id, b.po_id);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    ASSERT_EQ(a.regions[i].is_circle(), b.regions[i].is_circle());
    if (!a.regions[i].is_circle()) {
      EXPECT_EQ(a.regions[i].tiles().size(), b.regions[i].tiles().size());
    }
  }
}

// Same meeting point, same tiles and the same digested counters
// (engine/digest.h).
void ExpectSameResult(const MsrResult& a, const MsrResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.po_id, b.po_id) << what;
  ASSERT_EQ(a.regions.size(), b.regions.size()) << what;
  for (size_t i = 0; i < a.regions.size(); ++i) {
    ASSERT_EQ(a.regions[i].is_circle(), b.regions[i].is_circle()) << what;
    if (!a.regions[i].is_circle()) {
      EXPECT_TRUE(a.regions[i].tiles().tiles() == b.regions[i].tiles().tiles())
          << what << ", user " << i;
    }
  }
  const MsrStats& x = a.stats;
  const MsrStats& y = b.stats;
  EXPECT_EQ(x.tiles_tried, y.tiles_tried) << what;
  EXPECT_EQ(x.tiles_added, y.tiles_added) << what;
  EXPECT_EQ(x.divide_calls, y.divide_calls) << what;
  EXPECT_EQ(x.verify.calls, y.verify.calls) << what;
  EXPECT_EQ(x.verify.accepted, y.verify.accepted) << what;
  EXPECT_EQ(x.verify.tile_groups, y.verify.tile_groups) << what;
  EXPECT_EQ(x.verify.focal_evals, y.verify.focal_evals) << what;
  EXPECT_EQ(x.verify.memo_hits, y.verify.memo_hits) << what;
  EXPECT_EQ(x.candidates.retrievals, y.candidates.retrievals) << what;
  EXPECT_EQ(x.candidates.candidates_total, y.candidates.candidates_total)
      << what;
  EXPECT_EQ(x.candidates.rejected_by_buffer, y.candidates.rejected_by_buffer)
      << what;
}

// Two users a unit apart at `center`, a POI at the center, and a dense ring
// of POIs 20 units out. Every first-ring tile reaches past the ring, where
// a ring POI beats the center, so without splits Divide-Verify rejects
// them all and each region ends with its initial tile only.
Scenario RingWorld(const Point& center) {
  Scenario s;
  s.pois.push_back(center);
  for (int k = 0; k < 48; ++k) {
    s.pois.push_back(center + UnitFromAngle(k * 3.14159265358979 / 24) * 20.0);
  }
  s.users = {center + Point{-0.5, 0.1}, center + Point{0.5, -0.1}};
  s.tree = PackedRTree::Build(s.pois);
  return s;
}

// One MsrScratch serves many groups back to back, as MpnServer and the
// benchmark's trace replay use it: every computation must match one run on
// a fresh scratch. The random groups are each followed by the same group
// with its users nudged. The ring worlds end with one tile per user, the
// counts they started from, so a tile snapshot keyed on region sizes alone
// would serve the next group the previous group's tiles.
TEST(MsrScratchTest, ReusedScratchMatchesFreshScratch) {
  MsrScratch shared;
  const auto check = [&](const Scenario& s, Objective obj,
                         TileMsrConfig config,
                         const std::vector<MotionHint>& hints,
                         const std::string& what) {
    config.scratch = &shared;
    const MsrResult reused =
        ComputeTileMsr(&s.tree, s.users, obj, config, hints);
    config.scratch = nullptr;
    const MsrResult fresh =
        ComputeTileMsr(&s.tree, s.users, obj, config, hints);
    ExpectSameResult(reused, fresh, what);
    return fresh;
  };
  Rng rng(4242);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t m = 1 + trial % 4;
    const Objective obj = trial % 3 == 2 ? Objective::kSum : Objective::kMax;
    Scenario s = MakeScenario(200, m, 5150 + trial, 800.0);
    TileMsrConfig config;
    config.alpha = 4 + trial % 5;
    config.directed = trial % 2 == 1;
    config.buffered = trial % 5 == 4;
    const auto hints = RandomHints(m, &rng);
    for (int step = 0; step < 2; ++step) {
      check(s, obj, config, hints,
            "trial " + std::to_string(trial) + " step " + std::to_string(step));
      for (Point& u : s.users) {
        u = u + Point{rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
      }
    }
  }
  const Point centers[] = {{100, 100}, {300, 120}, {100, 100}, {130, 340}};
  for (size_t k = 0; k < 4; ++k) {
    Scenario s = RingWorld(centers[k]);
    if (k == 2) s.users[0] = s.users[0] + Point{0.2, 0.3};
    TileMsrConfig config;
    config.split_level = 0;
    const MsrResult r = check(s, Objective::kMax, config, {},
                              "ring world " + std::to_string(k));
    EXPECT_EQ(r.po_id, 0u);
    EXPECT_EQ(r.stats.divide_calls, 16u);
    for (const SafeRegion& region : r.regions) {
      ASSERT_FALSE(region.is_circle());
      EXPECT_EQ(region.tiles().size(), 1u);
    }
  }
}

// --- Tile ordering unit tests ----------------------------------------------

TEST(TileOrderingTest, FirstRingVisitsEightCellsCcwFromEast) {
  TileRegion region({0, 0}, 1.0);
  region.Add(GridTile{0, 0, 0});
  TileOrdering ordering;
  std::vector<std::pair<int, int>> cells;
  for (int i = 0; i < 8; ++i) {
    auto t = ordering.Next(region);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->level, 0);
    cells.push_back({t->ix, t->iy});
    ordering.MarkInserted();
  }
  const std::vector<std::pair<int, int>> want = {
      {1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}};
  EXPECT_EQ(cells, want);
}

TEST(TileOrderingTest, StopsWhenRingHadNoInsertion) {
  TileRegion region({0, 0}, 1.0);
  region.Add(GridTile{0, 0, 0});
  TileOrdering ordering;
  // Drain ring 1 without marking any insertion.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ordering.Next(region).has_value());
  EXPECT_FALSE(ordering.Next(region).has_value());
  EXPECT_FALSE(ordering.Next(region).has_value());  // stays exhausted
}

TEST(TileOrderingTest, AdvancesToOuterRingAfterInsertion) {
  TileRegion region({0, 0}, 1.0);
  region.Add(GridTile{0, 0, 0});
  TileOrdering ordering;
  auto first = ordering.Next(region);
  ASSERT_TRUE(first.has_value());
  ordering.MarkInserted();
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(ordering.Next(region).has_value());
  // Ring 2 opens because ring 1 had an insertion; it has 16 cells.
  auto t = ordering.Next(region);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(std::max(std::abs(t->ix), std::abs(t->iy)), 2);
}

TEST(TileOrderingTest, DirectedConeFiltersCells) {
  TileRegion region({0, 0}, 1.0);
  region.Add(GridTile{0, 0, 0});
  // Narrow cone toward east: western cells must be skipped.
  TileOrdering ordering(/*heading=*/0.0, /*theta=*/0.3);
  std::vector<std::pair<int, int>> cells;
  while (cells.size() < 6) {
    auto t = ordering.Next(region);
    if (!t) break;
    cells.push_back({t->ix, t->iy});
    ordering.MarkInserted();
  }
  ASSERT_FALSE(cells.empty());
  for (const auto& [ix, iy] : cells) {
    EXPECT_GT(ix, 0) << "cell (" << ix << "," << iy
                     << ") is not in the eastern cone";
  }
}

TEST(TileOrderingTest, WideConeBehavesLikeUndirected) {
  TileRegion region({0, 0}, 1.0);
  region.Add(GridTile{0, 0, 0});
  TileOrdering directed(/*heading=*/1.0, /*theta=*/3.2);  // > pi: everything
  TileOrdering undirected;
  for (int i = 0; i < 24; ++i) {
    auto a = directed.Next(region);
    auto b = undirected.Next(region);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->ix, b->ix);
    EXPECT_EQ(a->iy, b->iy);
    directed.MarkInserted();
    undirected.MarkInserted();
  }
}

// --- Directed ordering against the exact cone test --------------------------
//
// The directed ordering rejects most cells with a cheap certificate and
// decides every other cell with the exact atan2 test. The certificate may
// only reject cells the exact test rejects, so every walk must report the
// cells the exact test alone reports. ExactAccept is that test, computed
// exactly as AcceptCell's fallback computes it.

using Cell = std::pair<int, int>;

constexpr double kThetaDefault = 1.0471975511965976;  // pi/3
constexpr double kHalfPi = 1.5707963267948966;
constexpr double kPiD = 3.141592653589793;

Point UserOf(const TileRegion& region) {
  return {region.origin().x + region.delta() / 2.0,
          region.origin().y + region.delta() / 2.0};
}

// The cell's centre direction and half-span as the exact test has them.
void CenterAndHalfSpan(const TileRegion& region, int ix, int iy,
                       double* center_angle, double* half_span) {
  const Rect rect = region.TileRect(GridTile{0, ix, iy});
  const Point u = UserOf(region);
  *center_angle = (rect.Center() - u).Angle();
  *half_span = 0.0;
  for (int c = 0; c < 4; ++c) {
    *half_span = std::max(
        *half_span, AngleDiff((rect.Corner(c) - u).Angle(), *center_angle));
  }
}

bool ExactAccept(const TileRegion& region, double heading, double theta,
                 int ix, int iy) {
  if (region.TileRect(GridTile{0, ix, iy}).Contains(UserOf(region))) {
    return true;
  }
  double center_angle = 0.0, half_span = 0.0;
  CenterAndHalfSpan(region, ix, iy, &center_angle, &half_span);
  return AngleDiff(center_angle, heading) <= theta + half_span;
}

// Cells the directed ordering reports through ring `max_ring`, each one
// marked inserted.
std::vector<Cell> DirectedWalk(const TileRegion& region, double heading,
                               double theta, int max_ring) {
  TileOrdering ordering(heading, theta);
  std::vector<Cell> cells;
  while (auto t = ordering.Next(region)) {
    if (ordering.ring() > max_ring) break;
    cells.push_back({t->ix, t->iy});
    ordering.MarkInserted();
  }
  return cells;
}

// The same walk decided by ExactAccept: the undirected ordering gives the
// ring order, and the walk ends after a ring that reported nothing.
std::vector<Cell> ExactWalk(const TileRegion& region, double heading,
                            double theta, int max_ring) {
  TileOrdering ring_order;
  std::vector<Cell> cells;
  int ring = 1;
  bool reported = false;
  while (auto t = ring_order.Next(region)) {
    ring_order.MarkInserted();
    if (ring_order.ring() != ring) {
      if (!reported || ring_order.ring() > max_ring) break;
      ring = ring_order.ring();
      reported = false;
    }
    if (ExactAccept(region, heading, theta, t->ix, t->iy)) {
      cells.push_back({t->ix, t->iy});
      reported = true;
    }
  }
  return cells;
}

// Headings within `ulps` ulps of either edge of the exact test's cone for
// cell (ix, iy): centre direction +- (theta + half_span).
std::vector<double> EdgeHeadings(const TileRegion& region, double theta,
                                 int ix, int iy, int ulps) {
  double center_angle = 0.0, half_span = 0.0;
  CenterAndHalfSpan(region, ix, iy, &center_angle, &half_span);
  std::vector<double> headings;
  for (const double side : {-1.0, 1.0}) {
    const double edge =
        NormalizeAngle(center_angle + side * (theta + half_span));
    double below = edge, above = edge;
    headings.push_back(edge);
    for (int i = 0; i < ulps; ++i) {
      below = std::nextafter(below, -4.0);
      above = std::nextafter(above, 4.0);
      headings.insert(headings.end(), {below, above});
    }
  }
  return headings;
}

// Ring k's cells where a corner touches the half-span bound's tangent
// (k, k - 1) and its images, plus the axis and diagonal cells.
std::vector<Cell> EdgeTargets(int k) {
  std::set<Cell> cells;
  for (const int sx : {-1, 1}) {
    for (const int sy : {-1, 1}) {
      cells.insert({sx * k, sy * (k - 1)});
      cells.insert({sx * (k - 1), sy * k});
      cells.insert({sx * k, sy * k});
      cells.insert({sx * k, 0});
      cells.insert({0, sy * k});
    }
  }
  return {cells.begin(), cells.end()};
}

// Expects the two walks to agree; false (stop testing) when they do not.
bool SameWalk(const TileRegion& region, double heading, double theta,
              int max_ring) {
  const std::vector<Cell> directed =
      DirectedWalk(region, heading, theta, max_ring);
  const std::vector<Cell> exact = ExactWalk(region, heading, theta, max_ring);
  EXPECT_EQ(directed, exact)
      << "heading " << testing::PrintToString(heading) << " theta "
      << testing::PrintToString(theta) << " origin ("
      << testing::PrintToString(region.origin().x) << ", "
      << testing::PrintToString(region.origin().y) << ") delta "
      << region.delta();
  return directed == exact;
}

struct OrderingFrame {
  std::string name;
  Point origin;
  double delta;
};

void PrintTo(const OrderingFrame& frame, std::ostream* os) {
  *os << frame.name;
}

// Grids the certificate must agree with the exact test on. "unit" has
// exact coordinates. "tiny", "huge" and "guard_edge" are certified; the
// last has coordinates up to 0.97 * 2^22 delta, so they round by about
// 2^-31 delta and the half-span bound needs its inflation. "tiny_far" and
// the 1e15 and 1e16 grids fail the conditioning guard: their coordinates
// are multiples of 0.125 (1e15) and 2 (1e16), a large share of delta, so
// only the guard keeps the certificate off them. (With delta = 1 at 1e15
// every coordinate is still exact; delta = 1.1 is not.)
std::vector<OrderingFrame> OrderingFrames() {
  const double g = 0x1p22 * 0.7;  // guard_edge's 2^22 delta
  return {
      {"unit", {-0.5, -0.5}, 1.0},
      {"tiny", {1.3e-3, -2.1e-3}, 1e-9},
      {"tiny_far", {0.3, -0.7}, 1e-9},
      {"huge", {3.7e15, -1.1e15}, 1e14},
      {"guard_edge", {0.97 * g + 0.123, -0.96 * g - 0.377}, 0.7},
      {"origin_1e15", {1e15, 1e15}, 1.0},
      {"origin_1e15_odd", {1e15 + 0.375, -1e15 - 0.625}, 0.3},
      {"origin_1e15_wide", {-1e15, 1e15 + 0.125}, 1.1},
      {"origin_1e16", {1e16, -1e16}, 1.0},
  };
}

class OrderingEdgeTest : public testing::TestWithParam<OrderingFrame> {};

TEST_P(OrderingEdgeTest, HeadingsAtTheConeEdgeMatchTheExactTest) {
  const OrderingFrame& frame = GetParam();
  const TileRegion region = TileRegion::FromOrigin(frame.origin, frame.delta);
  for (const double theta :
       {MpnClient::kThetaMin, kThetaDefault, std::nextafter(kHalfPi, 0.0)}) {
    for (int k = 1; k <= 20; ++k) {
      for (const auto& [ix, iy] : EdgeTargets(k)) {
        for (const double heading : EdgeHeadings(region, theta, ix, iy, 2)) {
          if (!SameWalk(region, heading, theta, k)) return;
        }
      }
    }
  }
}

TEST_P(OrderingEdgeTest, HeadingsAtPlusMinusPiMatchTheExactTest) {
  const OrderingFrame& frame = GetParam();
  const TileRegion region = TileRegion::FromOrigin(frame.origin, frame.delta);
  for (const double theta : {MpnClient::kThetaMin, kThetaDefault}) {
    for (const double heading : {kPiD, -kPiD, std::nextafter(kPiD, 0.0),
                                 std::nextafter(-kPiD, 0.0)}) {
      if (!SameWalk(region, heading, theta, 20)) return;
    }
  }
}

TEST_P(OrderingEdgeTest, ThetaAroundHalfPiAndPastPiMatchesTheExactTest) {
  // Past pi/2 the certificate does not apply (theta + half_span can pass
  // pi, where comparing cosines stops comparing angles); from pi on the
  // exact test keeps every cell.
  const OrderingFrame& frame = GetParam();
  const TileRegion region = TileRegion::FromOrigin(frame.origin, frame.delta);
  Rng rng(0x0AD1);
  for (const double theta :
       {std::nextafter(kHalfPi, 0.0), kHalfPi, std::nextafter(kHalfPi, 4.0),
        2.0, 2.4, std::nextafter(kPiD, 0.0), kPiD, 3.2, 4.0}) {
    std::vector<double> headings = {0.0, 1.0, -2.0, kPiD};
    for (int i = 0; i < 8; ++i) headings.push_back(rng.Uniform(-kPiD, kPiD));
    for (const auto& [ix, iy] : EdgeTargets(3)) {
      const std::vector<double> edge = EdgeHeadings(region, theta, ix, iy, 1);
      headings.insert(headings.end(), edge.begin(), edge.end());
    }
    for (const double heading : headings) {
      if (!SameWalk(region, heading, theta, 8)) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Frames, OrderingEdgeTest, testing::ValuesIn(OrderingFrames()),
    [](const testing::TestParamInfo<OrderingFrame>& info) {
      return info.param.name;
    });

/// MPN_ORDERING_SEED offsets the randomized differential's seed (0 when
/// unset), so a run can draw fresh grids; the same value reproduces them.
uint64_t OrderingSeedOffset() {
  const char* env = std::getenv("MPN_ORDERING_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

TEST(TileOrderingTest, RandomGridsMatchTheExactTest) {
  // Grids from delta 1e-9 to 1e14 whose coordinates reach from 0.1 to 1e9
  // times delta, on both sides of the conditioning guard's 2^22; cones
  // from narrower than MpnClient's 15 degrees to wider than pi; headings
  // anywhere, or a few ulps from a cell's cone edge.
  const uint64_t offset = OrderingSeedOffset();
  SCOPED_TRACE(testing::Message() << "MPN_ORDERING_SEED=" << offset);
  Rng rng(0x0DE5 + offset);
  for (int i = 0; i < 400; ++i) {
    const double delta = std::pow(10.0, rng.Uniform(-9.0, 14.0));
    const auto coordinate = [&] {
      const double c = delta * std::pow(10.0, rng.Uniform(-1.0, 9.0));
      return rng.Bernoulli(0.5) ? c : -c;
    };
    const TileRegion region =
        TileRegion::FromOrigin({coordinate(), coordinate()}, delta);
    const double thetas[] = {
        MpnClient::kThetaMin,
        kThetaDefault,
        std::nextafter(kHalfPi, 0.0),
        kPiD,
        rng.Uniform(0.0, MpnClient::kThetaMin),
        rng.Uniform(MpnClient::kThetaMin, kHalfPi),
        rng.Uniform(kHalfPi, kPiD),
    };
    const double theta = thetas[rng.UniformInt(0, 6)];
    double heading = rng.Uniform(-kPiD, kPiD);
    if (rng.Bernoulli(0.5)) {
      const int k = static_cast<int>(rng.UniformInt(1, 12));
      const std::vector<Cell> targets = EdgeTargets(k);
      const Cell cell = targets[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(targets.size()) - 1))];
      const std::vector<double> edge =
          EdgeHeadings(region, theta, cell.first, cell.second, 3);
      heading = edge[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(edge.size()) - 1))];
    }
    if (!SameWalk(region, heading, theta, 12)) return;
  }
}

}  // namespace
}  // namespace mpn
