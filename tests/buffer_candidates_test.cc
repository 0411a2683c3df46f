// Candidate retrieval tests: Theorem 3 / Theorem 6 index pruning never drops
// a point that could displace the optimum, the fresh source's sub-tile reuse
// returns exactly the brute-force Theorem-3/6 sets, and the Theorem 4 /
// Theorem 7 buffering thresholds are honored (Algorithm 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "mpn/candidates.h"
#include "mpn/circle_msr.h"
#include "mpn/tile_msr.h"
#include "msr_test_util.h"
#include "util/rng.h"

namespace mpn {
namespace {

using testutil::MakeScenario;
using testutil::Scenario;

// Builds simple one-tile regions of side `delta` centered on each user.
std::vector<TileRegion> InitialRegions(const std::vector<Point>& users,
                                       double delta) {
  std::vector<TileRegion> regions;
  for (const Point& u : users) {
    regions.emplace_back(u, delta);
    regions.back().Add(GridTile{0, 0, 0});
  }
  return regions;
}

class PruningSoundnessTest : public ::testing::TestWithParam<Objective> {};

// Theorem 3 / 6 soundness: every POI *not* returned by the pruned retrieval
// must be impossible to become the optimum for any location instance within
// the regions (plus candidate tile). We check a stronger sampled version:
// for sampled instances, the brute-force optimum is always po or one of the
// returned candidates.
TEST_P(PruningSoundnessTest, PrunedPointsCanNeverWin) {
  const Objective obj = GetParam();
  Rng rng(505);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t m = 1 + trial % 3;
    const Scenario s = MakeScenario(200, m, 6200 + trial, 600.0);
    const auto circle = ComputeCircleMsr(&s.tree, s.users, obj);
    if (circle.rmax <= 1e-9 || circle.rmax > 1e12) continue;
    const double delta = std::sqrt(2.0) * circle.rmax;
    auto regions = InitialRegions(s.users, delta);
    // Grow one extra tile for user 0 to make regions asymmetric.
    regions[0].Add(GridTile{0, 1, 0});

    FreshCandidateSource source(&s.tree, &s.users, obj, circle.po_id,
                                circle.po);
    std::vector<Candidate> cands;
    const size_t ui = trial % m;
    const Rect tile = regions[ui].TileRect(GridTile{0, 0, 1});
    ASSERT_TRUE(source.GetCandidates(regions, ui, tile, &cands));

    std::set<uint32_t> allowed;
    allowed.insert(circle.po_id);
    for (const Candidate& c : cands) allowed.insert(c.id);

    for (int inst = 0; inst < 80; ++inst) {
      std::vector<Point> locations;
      for (size_t j = 0; j < m; ++j) {
        const Rect& r = j == ui ? tile : regions[j].rects()[0];
        locations.push_back(
            {rng.Uniform(r.lo.x, r.hi.x), rng.Uniform(r.lo.y, r.hi.y)});
      }
      const auto best = FindGnnBruteForce(s.pois, locations, obj, 1);
      EXPECT_TRUE(allowed.count(best[0].id))
          << "pruned point " << best[0].id << " won at trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Objectives, PruningSoundnessTest,
                         ::testing::Values(Objective::kMax, Objective::kSum),
                         [](const ::testing::TestParamInfo<Objective>& info) {
                           return ObjectiveName(info.param);
                         });

TEST(PruningTest, PrunesFarPoints) {
  // A dense local cluster plus one very remote POI: the remote one must be
  // pruned from the candidate list.
  std::vector<Point> pois;
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    pois.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  pois.push_back({100000, 100000});  // id 50: remote
  const PackedRTree tree = PackedRTree::Build(pois);
  const std::vector<Point> users = {{40, 40}, {60, 60}};
  const auto circle = ComputeCircleMsr(&tree, users, Objective::kMax);
  const double delta = std::sqrt(2.0) * circle.rmax;
  auto regions = InitialRegions(users, delta);
  FreshCandidateSource source(&tree, &users, Objective::kMax, circle.po_id,
                              circle.po);
  std::vector<Candidate> cands;
  ASSERT_TRUE(source.GetCandidates(regions, 0,
                                   regions[0].TileRect(GridTile{0, 1, 0}),
                                   &cands));
  for (const Candidate& c : cands) EXPECT_NE(c.id, 50u);
  EXPECT_LT(cands.size(), pois.size() - 1);
}

// Brute-force Theorem-3/6 set: every POI other than po that passes the
// per-point test for `regions` with tile `s` given to `user_i`, by id.
std::vector<uint32_t> OracleCandidates(const std::vector<Point>& pois,
                                       const std::vector<Point>& users,
                                       Objective obj, uint32_t po_id,
                                       const std::vector<TileRegion>& regions,
                                       size_t user_i, const Rect& s) {
  const Point& po = pois[po_id];
  const size_t m = users.size();
  std::vector<double> r_up(m, 0.0);
  double top = s.MaxDist(po);
  for (size_t j = 0; j < m; ++j) {
    for (const Rect& t : regions[j].rects()) {
      r_up[j] = std::max(r_up[j], t.MaxDist(users[j]));
      top = std::max(top, t.MaxDist(po));
    }
  }
  r_up[user_i] = std::max(r_up[user_i], s.MaxDist(users[user_i]));
  double sum_r = 0.0;
  for (size_t j = 0; j < m; ++j) sum_r += r_up[j];
  const double sum_bound = AggDist(po, users, Objective::kSum) + 2.0 * sum_r;
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < pois.size(); ++id) {
    if (id == po_id) continue;
    const Point& p = pois[id];
    bool pass = true;
    if (obj == Objective::kSum) {
      pass = AggDist(p, users, Objective::kSum) <= sum_bound;
    } else {
      for (size_t j = 0; j < m; ++j) pass &= Dist(p, users[j]) <= top + r_up[j];
    }
    if (pass) ids.push_back(id);
  }
  return ids;
}

// One GetCandidates call as Divide-Verify made it.
struct RecordedCall {
  size_t user = 0;
  Rect tile;
  std::vector<uint32_t> ids;
  bool traversed = false;  // the call walked the index
};

// Wraps a FreshCandidateSource, checks each returned list against the
// oracle for the regions of that very call, and records the call.
class RecordingSource : public CandidateSource {
 public:
  RecordingSource(const std::vector<Point>* pois,
                  const std::vector<Point>* users, Objective obj,
                  uint32_t po_id, const PackedRTree* tree)
      : pois_(pois),
        users_(users),
        obj_(obj),
        po_id_(po_id),
        inner_(tree, users, obj, po_id, (*pois)[po_id]) {}

  bool GetCandidates(const std::vector<TileRegion>& regions, size_t user_i,
                     const Rect& s, std::vector<Candidate>* out) override {
    const uint64_t nodes = inner_.node_accesses();
    const bool ok = inner_.GetCandidates(regions, user_i, s, out);
    EXPECT_TRUE(ok);
    RecordedCall call{user_i, s, {}, inner_.node_accesses() != nodes};
    for (const Candidate& c : *out) {
      EXPECT_EQ(c.p, (*pois_)[c.id]);
      call.ids.push_back(c.id);
    }
    EXPECT_EQ(call.ids, OracleCandidates(*pois_, *users_, obj_, po_id_,
                                         regions, user_i, s))
        << "call " << calls.size() << ", user " << user_i;
    calls.push_back(std::move(call));
    return ok;
  }

  std::vector<RecordedCall> calls;

 private:
  const std::vector<Point>* pois_;
  const std::vector<Point>* users_;
  Objective obj_;
  uint32_t po_id_;
  FreshCandidateSource inner_;
};

// Rejects every tile that has a candidate, so Divide-Verify recurses to
// its last level and never grows a region.
class RejectingVerifier : public TileVerifier {
 public:
  bool VerifyTile(const std::vector<TileRegion>&, size_t, const Rect&,
                  const Candidate&, const Point&) override {
    return false;
  }
};

std::unique_ptr<TileVerifier> MakeVerifier(Objective obj, const Point& po,
                                           size_t m) {
  if (obj == Objective::kSum) {
    return std::make_unique<SumHyperbolaVerifier>(po, m);
  }
  return std::make_unique<MaxGtVerifier>();
}

class ReuseExactnessTest : public ::testing::TestWithParam<Objective> {};

// Divide-Verify at split level 2 over several level-0 tiles per user, with
// regions growing in between: every list the reusing source returns must be
// the brute-force set of its own call. Half the worlds sit at ~1e5
// coordinates, where sub-tile edges round outside their parent's. Each
// tile is retried after another user's region grew and after its own user
// gained a tile far outside it, so those reuse checks decide some calls.
TEST_P(ReuseExactnessTest, EveryListMatchesBruteForce) {
  const Objective obj = GetParam();
  size_t calls = 0, reused = 0, sub_tile_calls = 0, candidates = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const size_t m = 1 + trial % 4;
    const double offset = trial % 2 == 0 ? 0.0 : 1e5;
    Rng rng(7100 + static_cast<uint64_t>(trial));
    std::vector<Point> pois, users;
    for (int k = 0; k < 300; ++k) {
      pois.push_back(
          {offset + rng.Uniform(0, 1000), offset + rng.Uniform(0, 1000)});
    }
    for (size_t j = 0; j < m; ++j) {
      users.push_back(
          {offset + rng.Uniform(250, 750), offset + rng.Uniform(250, 750)});
    }
    const PackedRTree tree = PackedRTree::Build(pois);
    const auto circle = ComputeCircleMsr(&tree, users, obj);
    if (circle.rmax <= 1e-9 || circle.rmax > 1e12) continue;
    std::vector<TileRegion> regions =
        InitialRegions(users, std::sqrt(2.0) * circle.rmax);
    RecordingSource source(&pois, &users, obj, circle.po_id, &tree);
    const auto verifier = MakeVerifier(obj, circle.po, m);
    MsrStats stats;
    MsrScratch scratch;
    const auto divide_verify = [&](size_t i, const GridTile& tile) {
      DivideVerify(&regions, i, tile, circle.po, &source, verifier.get(), 2,
                   &stats, KernelKind::kSoA, &scratch);
    };
    const GridTile ring[] = {{0, 1, 0},  {0, 1, 1},   {0, 0, 1},
                             {0, -1, 1}, {0, -1, 0},  {0, -1, -1},
                             {0, 0, -1}, {0, 1, -1}};
    int32_t far = 3;
    for (int k = 0; k < 6; ++k) {
      for (size_t i = 0; i < m; ++i) {
        const GridTile& tile = ring[k % 8];
        divide_verify(i, tile);
        if (k % 2 == 0) continue;
        if (m > 1) {
          regions[(i + 1) % m].Add(GridTile{0, far, -far});
          ++far;
          divide_verify(i, tile);
        }
        regions[i].Add(GridTile{0, -far, far});
        ++far;
        divide_verify(i, tile);
      }
    }
    for (const RecordedCall& c : source.calls) {
      ++calls;
      if (!c.traversed) ++reused;
      if (c.tile.Width() < regions[c.user].delta() * 0.75) ++sub_tile_calls;
      candidates += c.ids.size();
    }
  }
  EXPECT_GT(sub_tile_calls, 50u);
  EXPECT_GT(reused, sub_tile_calls / 2);  // sub-tiles mostly reuse
  EXPECT_GT(candidates, calls);           // non-trivial lists
}

// Searches a 2-D ulp neighbourhood of the circle of radius `lo` around `u`
// for a point whose distance to `u` lies in (lo, hi].
bool FindPointAtDistance(const Point& u, double lo, double hi, Point* out) {
  const Point base = u + UnitFromAngle(0.7) * lo;
  const double ux = std::nextafter(base.x, 1e300) - base.x;
  const double uy = std::nextafter(base.y, 1e300) - base.y;
  for (int i = -64; i <= 64; ++i) {
    for (int k = -64; k <= 64; ++k) {
      const Point q{base.x + i * ux, base.y + k * uy};
      const double d = Dist(q, u);
      if (d > lo && d <= hi) {
        *out = q;
        return true;
      }
    }
  }
  return false;
}

// A one-user world at ~1e5 coordinates where a sub-tile's rounded edge lies
// outside its parent's and so raises the Theorem-3/6 bound, with a POI
// placed between the parent's bound and the sub-tile's: a reuse of the
// parent's own exact list would drop that POI from the sub-tile's call.
TEST_P(ReuseExactnessTest, SubTileOutsideParentKeepsPoiBeyondParentBound) {
  const Objective obj = GetParam();
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const Point u{1e5 + rng.Uniform(0, 1), 1e5 + rng.Uniform(0, 1)};
    const double delta = rng.Uniform(20, 60);
    const Point po = u + Point{rng.Uniform(300, 500), rng.Uniform(-50, 50)};
    const std::vector<Point> users = {u};
    std::vector<TileRegion> regions = InitialRegions(users, delta);
    // The one-user Theorem-3/6 bound on ||p,u|| for tile s.
    const auto bound = [&](const Rect& s) {
      const double r_up = std::max(regions[0].MaxDist(u), s.MaxDist(u));
      return obj == Objective::kMax
                 ? std::max(s.MaxDist(po), regions[0].MaxDist(po)) + r_up
                 : Dist(po, u) + 2.0 * r_up;
    };
    for (const GridTile& parent :
         {GridTile{0, 1, 0}, GridTile{0, 1, 1}, GridTile{0, 0, 1},
          GridTile{0, -1, 1}, GridTile{0, -1, 0}, GridTile{0, -1, -1},
          GridTile{0, 0, -1}, GridTile{0, 1, -1}}) {
      const Rect p_rect = regions[0].TileRect(parent);
      GridTile children[4], grandchildren[4];
      parent.Children(children);
      for (const GridTile& child : children) {
        child.Children(grandchildren);
        for (const GridTile& sub : grandchildren) {
          const Rect sub_rect = regions[0].TileRect(sub);
          Point q;
          if (bound(sub_rect) <= bound(p_rect) ||
              !FindPointAtDistance(u, bound(p_rect), bound(sub_rect), &q)) {
            continue;
          }
          EXPECT_FALSE(p_rect.ContainsRect(sub_rect));
          // po, a spoiler at u that fails every tile (so Divide-Verify
          // recurses down to `sub`), q, and some filler.
          std::vector<Point> pois = {po, u, q};
          for (int k = 0; k < 40; ++k) {
            pois.push_back(
                u + Point{rng.Uniform(-600, 600), rng.Uniform(-600, 600)});
          }
          const PackedRTree tree = PackedRTree::Build(pois);
          RecordingSource source(&pois, &users, obj, 0, &tree);
          const auto verifier = MakeVerifier(obj, po, 1);
          MsrStats stats;
          EXPECT_FALSE(DivideVerify(&regions, 0, parent, po, &source,
                                    verifier.get(), 2, &stats));
          ASSERT_EQ(source.calls.size(), 21u);
          bool parent_has_q = true, sub_has_q = false;
          for (const RecordedCall& c : source.calls) {
            const bool has_q =
                std::count(c.ids.begin(), c.ids.end(), 2u) > 0;
            if (c.tile.lo == p_rect.lo && c.tile.hi == p_rect.hi) {
              parent_has_q = has_q;
            }
            if (c.tile.lo == sub_rect.lo && c.tile.hi == sub_rect.hi) {
              sub_has_q = has_q;
            }
          }
          EXPECT_FALSE(parent_has_q);
          EXPECT_TRUE(sub_has_q);
          return;
        }
      }
    }
  }
  FAIL() << "no sub-tile with an edge rounded outside its parent's";
}

// Two users one cell apart share a grid, and user 1 tries the very cell
// user 0 just tried. The widened list holds user 0's displacement bounds,
// which for this cell are smaller than user 1's, so serving user 1 from it
// would drop q; the same-user check forces a fresh retrieval.
TEST_P(ReuseExactnessTest, NeverServesAnotherUsersList) {
  const Objective obj = GetParam();
  const double delta = 10.0;
  const std::vector<Point> users = {{100, 100}, {100 + delta, 100}};
  std::vector<TileRegion> regions = InitialRegions(users, delta);
  const GridTile tile0{0, -1, 0};  // west of user 0 ...
  const GridTile tile1{0, -2, 0};  // ... is the same cell for user 1
  const Rect s = regions[1].TileRect(tile1);
  EXPECT_NEAR(s.lo.x, regions[0].TileRect(tile0).lo.x, 1e-9);
  EXPECT_NEAR(s.hi.x, regions[0].TileRect(tile0).hi.x, 1e-9);
  // q, due west of both users, passes user 1's exact test for s by half a
  // cell while user 0's bounds for the cell exclude it.
  const Point po{100, 400};
  double d = 0.0;
  if (obj == Objective::kMax) {
    double top = s.MaxDist(po);
    for (const TileRegion& r : regions) top = std::max(top, r.MaxDist(po));
    d = top + 0.5 * delta;
  } else {
    d = (AggDist(po, users, Objective::kSum) + 4.5 * delta) / 2.0;
  }
  const std::vector<Point> pois = {po, {105, 100}, users[0] - Point{d, 0}};
  const PackedRTree tree = PackedRTree::Build(pois);
  RecordingSource source(&pois, &users, obj, 0, &tree);
  RejectingVerifier verifier;
  MsrStats stats;
  DivideVerify(&regions, 0, tile0, po, &source, &verifier, 0, &stats);
  DivideVerify(&regions, 1, tile1, po, &source, &verifier, 0, &stats);
  ASSERT_EQ(source.calls.size(), 2u);
  EXPECT_EQ(source.calls[0].ids, (std::vector<uint32_t>{1}));
  EXPECT_EQ(source.calls[1].ids, (std::vector<uint32_t>{1, 2}));
}

INSTANTIATE_TEST_SUITE_P(Objectives, ReuseExactnessTest,
                         ::testing::Values(Objective::kMax, Objective::kSum),
                         [](const ::testing::TestParamInfo<Objective>& info) {
                           return ObjectiveName(info.param);
                         });

TEST(BufferTest, BetasAreSortedAndMatchDefinition) {
  const Scenario s = MakeScenario(500, 3, 404);
  const int b = 50;
  BufferedCandidateSource source(&s.tree, s.users, Objective::kMax, b);
  const auto top = FindGnn(&s.tree, s.users, Objective::kMax, b + 1);
  double prev = -1.0;
  for (int z = 1; z <= b; ++z) {
    const double beta = source.Beta(z);
    EXPECT_GE(beta, prev);
    prev = beta;
    if (static_cast<size_t>(z) < top.size()) {
      EXPECT_NEAR(beta, (top[z].agg - top[0].agg) / 2.0, 1e-9);
    }
  }
  // beta_1 equals the Theorem-1 circle radius.
  const auto circle = ComputeCircleMsr(&s.tree, s.users, Objective::kMax);
  EXPECT_NEAR(source.Beta(1), circle.rmax, 1e-9);
}

TEST(BufferTest, SumBetasDivideByTwoM) {
  const Scenario s = MakeScenario(500, 4, 405);
  BufferedCandidateSource source(&s.tree, s.users, Objective::kSum, 10);
  const auto top = FindGnn(&s.tree, s.users, Objective::kSum, 11);
  EXPECT_NEAR(source.Beta(1), (top[1].agg - top[0].agg) / (2.0 * 4), 1e-9);
}

TEST(BufferTest, SlotSelectionBoundsCandidates) {
  const Scenario s = MakeScenario(800, 3, 2929);
  const int b = 30;
  BufferedCandidateSource source(&s.tree, s.users, Objective::kMax, b);
  const double delta = 2.0 * source.Beta(1) / std::sqrt(2.0);
  if (delta <= 0) GTEST_SKIP() << "degenerate scenario";
  auto regions = InitialRegions(s.users, delta);
  // Tiny tile -> small dist -> few candidates.
  std::vector<Candidate> small_cands;
  const Rect small = regions[0].TileRect(GridTile{2, 0, 0});
  ASSERT_TRUE(source.GetCandidates(regions, 0, small, &small_cands));
  // Far tile -> larger dist -> at least as many candidates (or rejection).
  std::vector<Candidate> big_cands;
  const Rect far = regions[0].TileRect(GridTile{0, 10, 0});
  const bool far_ok = source.GetCandidates(regions, 0, far, &big_cands);
  if (far_ok) {
    EXPECT_GE(big_cands.size(), small_cands.size());
  } else {
    EXPECT_GT(source.stats().rejected_by_buffer, 0u);
  }
}

TEST(BufferTest, RejectsTilesBeyondBetaB) {
  const Scenario s = MakeScenario(300, 2, 11011);
  const int b = 5;
  BufferedCandidateSource source(&s.tree, s.users, Objective::kMax, b);
  const double beta_b = source.Beta(b);
  if (!std::isfinite(beta_b)) GTEST_SKIP() << "tiny dataset";
  const double delta = std::max(1e-6, 2.0 * source.Beta(1) / std::sqrt(2.0));
  auto regions = InitialRegions(s.users, delta);
  // A tile definitely beyond beta_b from the user.
  const int far_cells =
      static_cast<int>(beta_b / regions[0].CellSide(0)) + 3;
  std::vector<Candidate> cands;
  const bool ok = source.GetCandidates(
      regions, 0, regions[0].TileRect(GridTile{0, far_cells, 0}), &cands);
  EXPECT_FALSE(ok);
}

TEST(BufferTest, SmallDatasetInfiniteBetaAcceptsEverything) {
  // Fewer POIs than b+1: trailing betas are infinite, nothing is rejected.
  const Scenario s = MakeScenario(5, 2, 3141);
  BufferedCandidateSource source(&s.tree, s.users, Objective::kMax, 100);
  auto regions = InitialRegions(s.users, 10.0);
  std::vector<Candidate> cands;
  EXPECT_TRUE(source.GetCandidates(
      regions, 0, regions[0].TileRect(GridTile{0, 50, 0}), &cands));
  // All non-optimal POIs are candidates at most.
  EXPECT_LE(cands.size(), s.pois.size() - 1);
}

}  // namespace
}  // namespace mpn
