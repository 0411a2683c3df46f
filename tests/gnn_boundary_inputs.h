// Point sets whose GNN keys sit on the bounded search's boundaries, shared
// by gnn_test.cc (checked against brute force) and packed_rtree_test.cc
// (checked against the unbounded search on the reference tree as well).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/vec2.h"
#include "util/rng.h"

namespace mpn {
namespace gnn_inputs {

/// Radius of the ring UlpRingPoints builds around the origin.
constexpr double kRingRadius = 300.0;

/// Points whose keys tie on the ring of radius R = kRingRadius, for users
/// at the origin (the ring's MAX key of a point is its distance, exactly:
/// the axis points' squares are exact and sqrt(x * x) == |x|):
///  * the four axis points at distance exactly R, (R, 0) three times over
///    (equal keys, different ids), and their one-ulp neighbours inside and
///    outside the ring, keyed R^- and R^+;
///  * 40 copies of (0, -R), so at least one leaf holds only that point and
///    its MBR is the point: a node keyed exactly like the ring points;
///  * 40 points within R/2 and 160 between 1.2R and 2R, so a k-th result
///    on the ring falls mid-search, after several leaves.
/// Ids are positions; the ring points come last, after the filler.
inline std::vector<Point> UlpRingPoints(uint64_t seed) {
  const double r = kRingRadius;
  const double below = std::nextafter(r, 0.0);
  const double above = std::nextafter(r, std::numeric_limits<double>::max());
  Rng rng(seed);
  std::vector<Point> pts;
  const auto polar = [&](double lo, double hi) {
    const double d = rng.Uniform(lo, hi);
    const double a = rng.Uniform(0.0, 6.283185307179586);
    pts.push_back({d * std::cos(a), d * std::sin(a)});
  };
  for (int i = 0; i < 40; ++i) polar(0.0, 0.5 * r);
  for (int i = 0; i < 160; ++i) polar(1.2 * r, 2.0 * r);
  for (const Point& p : {Point{r, 0}, Point{-r, 0}, Point{0, r}, Point{r, 0},
                         Point{below, 0}, Point{above, 0}, Point{0, -below},
                         Point{-above, 0}, Point{r, 0}, Point{0, above}}) {
    pts.push_back(p);
  }
  for (int i = 0; i < 40; ++i) pts.push_back({0, -r});
  return pts;
}

/// `m` users at the origin: the ring's MAX keys for any m, and SUM keys
/// that tie wherever the distances do.
inline std::vector<Point> RingUsers(size_t m) {
  return std::vector<Point>(m, Point{0, 0});
}

/// `n` points uniform in [0, extent]^2, every tenth a duplicate of the one
/// before. At extent 1e-160 the squared distances are subnormal or zero,
/// so a search bound's square underflows; at extent 1.2e154 some overflow
/// to +inf (and their MAX keys with them), and so does the bound's square.
inline std::vector<Point> ScaledPoints(size_t n, double extent,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 10 == 9) {
      pts.push_back(pts.back());
    } else {
      pts.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
    }
  }
  return pts;
}

}  // namespace gnn_inputs
}  // namespace mpn
