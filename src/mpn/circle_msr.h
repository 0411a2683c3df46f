// Circular safe regions (Section 4, Algorithm 1; Sum variant Section 6.2).
//
// Every user receives a circle centered at her current location with the
// same radius rmax:
//   MAX: rmax = (||p2, U||_max - ||po, U||_max) / 2        (Theorem 1)
//   SUM: rmax = (||p2, U||_sum - ||po, U||_sum) / (2 m)    (Theorem 5)
// where p2 is the second-best meeting point, found by the incremental GNN
// search on the R-tree.
#pragma once

#include <cstdint>
#include <vector>

#include "index/gnn.h"
#include "mpn/safe_region.h"

namespace mpn {

/// Result of a circle safe-region computation.
struct CircleMsrResult {
  uint32_t po_id = 0;    ///< id of the optimal meeting point
  Point po;              ///< its location
  double po_agg = 0.0;   ///< ||po, U||_agg
  double rmax = 0.0;     ///< common safe-region radius
  std::vector<SafeRegion> regions;  ///< one circle per user
};

/// Maximum common circle radius given the best and second-best aggregate
/// distances (Theorems 1 / 5). `m` is the group size; returns a very large
/// radius when there is no second-best point (single-POI dataset).
double MaxCircleRadius(double best_agg, double second_agg, size_t m,
                       Objective obj);

/// Algorithm 1 (Circle-MSR): finds the top-2 GNNs on the index and derives
/// the circular safe regions.
CircleMsrResult ComputeCircleMsr(const PackedRTree* tree,
                                 const std::vector<Point>& users,
                                 Objective obj);

}  // namespace mpn
