// Branch-light distance kernels over contiguous coordinate lanes (SoA).
//
// The scalar rectangle distances in geom/rect.h are called per (tile,
// candidate) pair in the tile-MSR verification loop; in
// AoS form (vector<Rect>) each call strides through mixed coordinates and
// the surrounding branches defeat autovectorization. These kernels take the
// same formulas over structure-of-arrays lanes — one contiguous double
// array per coordinate — so the compiler can turn them into packed
// min/max/mul/sqrt instructions.
//
// Bit-identity contract: every kernel performs the exact IEEE-754 double
// operations of its scalar counterpart per lane (std::max/std::min select
// one of their operands; correctly-rounded sqrt is the same instruction),
// so the outputs are bit-identical to calling the scalar predicate per
// element, in any lane order. The *Reduce variants additionally exploit
// that sqrt is monotone: min/max over sqrt(v_i) equals sqrt(min/max v_i),
// so they reduce on squared distances and take one square root at the end
// — still value-identical to the scalar fold they replace.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "geom/rect.h"
#include "geom/vec2.h"

namespace mpn {

/// A batch of axis-aligned rectangles in SoA layout. The four arrays are
/// parallel and hold `n` lanes each; lane i is the rectangle
/// [lo_x[i], hi_x[i]] x [lo_y[i], hi_y[i]].
struct RectLanes {
  const double* lo_x = nullptr;
  const double* lo_y = nullptr;
  const double* hi_x = nullptr;
  const double* hi_y = nullptr;
  size_t n = 0;
};

/// Rect::MinDist2 from (px, py) to lane k: the exact IEEE square the
/// scalar Rect::MinDist feeds to sqrt.
inline double LaneMinDist2(const RectLanes& r, size_t k, double px,
                           double py) {
  const double dx = std::max(std::max(r.lo_x[k] - px, 0.0), px - r.hi_x[k]);
  const double dy = std::max(std::max(r.lo_y[k] - py, 0.0), py - r.hi_y[k]);
  return dx * dx + dy * dy;
}

/// Rect::MaxDist2 from (px, py) to lane k, likewise exact.
inline double LaneMaxDist2(const RectLanes& r, size_t k, double px,
                           double py) {
  const double dx = std::max(px - r.lo_x[k], r.hi_x[k] - px);
  const double dy = std::max(py - r.lo_y[k], r.hi_y[k] - py);
  return dx * dx + dy * dy;
}

/// out[i] = ||p, rect_i||_max (Rect::MaxDist per lane).
void RectMaxDistLanes(const RectLanes& r, const Point& p, double* out);

/// min_i ||p, rect_i||_min; +infinity when n == 0. Equals the fold
/// min(Rect::MinDist) over the lanes.
double RectMinDistReduce(const RectLanes& r, const Point& p);

/// max_i ||p, rect_i||_max; 0 when n == 0 (distances are nonnegative, so 0
/// is the identity the scalar folds start from). Equals the fold
/// max(Rect::MaxDist) over the lanes.
double RectMaxDistReduce(const RectLanes& r, const Point& p);

/// The next double above `t`, for finite t >= 0; UlpUp(DBL_MAX) is +inf.
/// Nonnegative doubles order like their bit patterns, so this is the
/// pattern plus one, and equals std::nextafter(t, +inf) on that domain.
inline double UlpUp(double t) {
  uint64_t bits = 0;
  std::memcpy(&bits, &t, sizeof(bits));
  ++bits;
  std::memcpy(&t, &bits, sizeof(t));
  return t;
}

/// The next double below `t`, for finite t > 0 (the pattern minus one);
/// equals std::nextafter(t, 0.0) there.
inline double UlpDown(double t) {
  uint64_t bits = 0;
  std::memcpy(&bits, &t, sizeof(bits));
  --bits;
  std::memcpy(&t, &bits, sizeof(t));
  return t;
}

/// Largest double t with std::sqrt(t) <= z, or -1.0 when no nonnegative t
/// satisfies it (z < 0 or NaN). Moves sqrt comparisons into the squared
/// domain exactly: for every double t >= 0,
///     std::sqrt(t) <= z   <=>   t <= SqrtLeqThreshold(z).
/// Correctly-rounded sqrt is monotone, so the satisfying set is downward
/// closed; the implementation locates its exact upper end by probing a few
/// neighbours of fl(z*z) with real sqrt calls — no rounding analysis, and
/// the cost is a handful of scalar sqrts, paid once per threshold instead
/// of once per lane.
double SqrtLeqThreshold(double z);

/// Strict variant: for every double t >= 0,
///     std::sqrt(t) < y   <=>   t <= SqrtLtThreshold(y).
double SqrtLtThreshold(double y);

/// One-multiply stand-in for SqrtLeqThreshold(z), z >= 0, never below it:
/// for every double t >= 0,
///     std::sqrt(t) <= z   =>   t <= SqrtLeqBound(z),
/// so `t <= SqrtLeqBound(z)` is a filter that drops nothing the exact test
/// keeps, and may keep a few ulps more (callers re-test survivors exactly).
/// It holds at every magnitude, no underflow guard needed. Let t > 0 and
/// s = sqrt(t) <= z; s >= 2^-537 is normal, so the exact root is at most
/// s(1 + 2^-53) and t <= z^2(1 + 2^-53)^2 < z^2(1 + 2^-51).
///  * z^2 >= 2^-1022: each product rounds within a factor (1 - 2^-53), so
///    the bound is at least z^2(1 - 2^-53)^2(1 + 2^-50) > z^2(1 + 2^-51),
///    or +inf on overflow.
///  * z^2 < 2^-1022: t < 2^-1021, so t and fl(z*z) are both multiples of
///    u = 2^-1074, and fl(z*z) = R u is within u/2 of z^2. Then t < z^2 +
///    z^2 2^-51 <= (R + 1/2 + (R + 1/2) 2^-51) u, while the bound rounds
///    R(1 + 2^-50) u to the grid, so it is at least (R + R 2^-50 - 1/2) u.
///    Since (R + 1/2) 2^-51 <= R 2^-50 for R >= 1 (R = 0 leaves only
///    t = 0), t is below the bound plus u, hence at most the bound.
/// LanesTest checks it against SqrtLeqThreshold across the exponent range.
inline double SqrtLeqBound(double z) { return z * z * (1.0 + 0x1p-50); }

}  // namespace mpn
