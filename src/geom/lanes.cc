#include "geom/lanes.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mpn {

// Every loop below is a straight-line pass over contiguous doubles with no
// data-dependent branches: std::max/std::min lower to maxsd/minsd (packed
// under autovectorization) and std::sqrt to sqrtsd/sqrtpd, so -O2/-O3 plus
// -fno-math-errno (set in the top-level CMakeLists) vectorizes them.

void RectMaxDistLanes(const RectLanes& r, const Point& p, double* out) {
  const double px = p.x, py = p.y;
  for (size_t i = 0; i < r.n; ++i) {
    const double dx = std::max(px - r.lo_x[i], r.hi_x[i] - px);
    const double dy = std::max(py - r.lo_y[i], r.hi_y[i] - py);
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

double RectMinDistReduce(const RectLanes& r, const Point& p) {
  const double px = p.x, py = p.y;
  double best2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < r.n; ++i) {
    const double dx = std::max(std::max(r.lo_x[i] - px, 0.0), px - r.hi_x[i]);
    const double dy = std::max(std::max(r.lo_y[i] - py, 0.0), py - r.hi_y[i]);
    best2 = std::min(best2, dx * dx + dy * dy);
  }
  return std::sqrt(best2);
}

double RectMaxDistReduce(const RectLanes& r, const Point& p) {
  const double px = p.x, py = p.y;
  double best2 = 0.0;
  for (size_t i = 0; i < r.n; ++i) {
    const double dx = std::max(px - r.lo_x[i], r.hi_x[i] - px);
    const double dy = std::max(py - r.lo_y[i], r.hi_y[i] - py);
    best2 = std::max(best2, dx * dx + dy * dy);
  }
  return std::sqrt(best2);
}

double SqrtLeqThreshold(double z) {
  if (!(z >= 0.0)) return -1.0;  // z < 0 or NaN: no nonnegative t qualifies
  if (std::isinf(z)) return z;   // sqrt(t) <= inf for every t, inf included
  double t = z * z;              // within a few ulps of the exact boundary
  if (std::isinf(t)) t = std::numeric_limits<double>::max();
  // sqrt(t) > z >= 0 makes t > 0 here, and t stays finite: UlpDown and
  // UlpUp are within their domains.
  while (std::sqrt(t) > z) t = UlpDown(t);
  for (;;) {
    const double up = UlpUp(t);  // +inf after DBL_MAX
    if (std::isinf(up) || std::sqrt(up) > z) break;
    t = up;
  }
  return t;
}

double SqrtLtThreshold(double y) {
  if (!(y > 0.0)) return -1.0;  // sqrt(t) >= 0: strict < needs y > 0
  if (std::isinf(y)) {
    // sqrt(t) < inf exactly for finite t.
    return std::numeric_limits<double>::max();
  }
  // sqrt(t) and y are doubles, so sqrt(t) < y <=> sqrt(t) <= pred(y).
  return SqrtLeqThreshold(UlpDown(y));
}

}  // namespace mpn
