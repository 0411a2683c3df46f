// Shared helpers for the safe-region test suites: random scenarios, region
// sampling, and brute-force optimality checks.
#pragma once

#include <vector>

#include "index/gnn.h"
#include "index/packed_rtree.h"
#include "mpn/safe_region.h"
#include "util/macros.h"
#include "util/rng.h"

namespace mpn {
namespace testutil {

/// A random MPN scenario: POIs (indexed) and user locations.
struct Scenario {
  std::vector<Point> pois;
  std::vector<Point> users;
  PackedRTree tree;
};

/// Uniform POIs in [0,extent]^2, users in the middle half of the world.
inline Scenario MakeScenario(size_t n_pois, size_t m_users, uint64_t seed,
                             double extent = 1000.0) {
  Rng rng(seed);
  Scenario s;
  s.pois.reserve(n_pois);
  for (size_t i = 0; i < n_pois; ++i) {
    s.pois.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
  }
  for (size_t i = 0; i < m_users; ++i) {
    s.users.push_back({rng.Uniform(extent * 0.25, extent * 0.75),
                       rng.Uniform(extent * 0.25, extent * 0.75)});
  }
  s.tree = PackedRTree::Build(s.pois);
  return s;
}

/// Uniform sample inside a safe region (circle or tiles).
inline Point SampleRegion(const SafeRegion& region, Rng* rng) {
  if (region.is_circle()) {
    const Circle& c = region.circle();
    // Polar sampling, area-uniform.
    const double r = c.radius * std::sqrt(rng->Uniform01());
    const double a = rng->Uniform(-3.14159265358979, 3.14159265358979);
    return c.center + UnitFromAngle(a) * r;
  }
  const TileRegion& tiles = region.tiles();
  MPN_ASSERT(!tiles.empty());
  // Pick a tile weighted by area, then a uniform point inside it.
  std::vector<double> weights;
  weights.reserve(tiles.size());
  for (const Rect& r : tiles.rects()) weights.push_back(r.Area());
  const Rect& r = tiles.rects()[rng->WeightedIndex(weights)];
  return {rng->Uniform(r.lo.x, r.hi.x), rng->Uniform(r.lo.y, r.hi.y)};
}

/// True when `po_id` is optimal (within relative tolerance for ties) for the
/// given instance of user locations.
inline bool IsOptimalMeetingPoint(const std::vector<Point>& pois,
                                  uint32_t po_id,
                                  const std::vector<Point>& locations,
                                  Objective obj, double tol = 1e-9) {
  const double reported = AggDist(pois[po_id], locations, obj);
  const auto best = FindGnnBruteForce(pois, locations, obj, 1);
  MPN_ASSERT(!best.empty());
  return reported <= best[0].agg + tol * (1.0 + best[0].agg);
}

}  // namespace testutil
}  // namespace mpn
