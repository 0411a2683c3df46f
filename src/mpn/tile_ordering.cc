#include "mpn/tile_ordering.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace mpn {

namespace {

constexpr double kPi = 3.141592653589793;
constexpr double kHalfPi = kPi / 2.0;
// The certificate's margin, in cosine space (CertainlyOutsideCone).
constexpr double kConeEps = 0x1p-40;
// Half the diagonal of a unit cell, inflated by 2^-26 for the rounding of
// cell coordinates (CertainlyOutsideCone).
constexpr double kHalfDiagonal = 0.70710678118654752 * (1.0 + 0x1p-26);

}  // namespace

TileOrdering::TileOrdering(double heading, double theta)
    : directed_(true),
      heading_(heading),
      theta_(theta),
      certify_(theta >= 0.0 && theta < kHalfPi && std::fabs(heading) <= kPi),
      hx_(std::cos(heading)),
      hy_(std::sin(heading)),
      cos_theta_(std::cos(theta)),
      sin_theta_(std::sin(theta)) {}

void TileOrdering::RingCell(int k, int pos, int* ix, int* iy) {
  MPN_DCHECK(k >= 1 && pos >= 0 && pos < 8 * k);
  if (pos <= k) {
    *ix = k;
    *iy = pos;
  } else if (pos <= 3 * k) {
    *ix = k - (pos - k);
    *iy = k;
  } else if (pos <= 5 * k) {
    *ix = -k;
    *iy = k - (pos - 3 * k);
  } else if (pos <= 7 * k) {
    *ix = -k + (pos - 5 * k);
    *iy = -k;
  } else {
    *ix = k;
    *iy = -k + (pos - 7 * k);
  }
}

// The reject-only certificate. Notation: c = rect.Center() - u and
// k_i = rect.Corner(i) - u are the doubles the exact test in AcceptCell
// computes, d = |c|, h = (cos heading, sin heading), A = the angle between
// c and h, R = fl(delta kHalfDiagonal), and alpha = asin(R/d); no product
// is fused (the build pins -ffp-contract=off). It rejects when
//
//   c.h < cos(theta) sqrt(d^2 - R^2) - sin(theta) R - eps (|c.x| + |c.y|),
//
// whose right side is at most d (cos(theta + alpha) - eps). It applies only
// when 0 <= theta < pi/2, |heading| <= pi, 2^-200 <= delta <= 2^200, the
// largest magnitude M among the cell's and u's coordinates is at most
// 2^22 delta, and 4 R^2 <= 3 d^2 (so alpha <= pi/3 + tiny). Proof that the
// exact test then rejects too:
//
// 1. Half-span. Per coordinate, the corners a and b = fl(a + delta) and
//    the centre m = fl(a + b)/2 satisfy |a - m|, |b - m| <= delta/2 +
//    2^-52 M, and subtracting u's coordinate rounds each side by at most
//    2^-53 times its magnitude, so |k_i.x - c.x| <= delta/2 + 2^-51 M +
//    2^-51 |c.x|. With M <= 2^22 delta this is at most (delta/2)(1 +
//    2^-28) + 2^-51 |c.x|, so |k_i - c| <= R + 2^-51 d, because R >=
//    (delta sqrt(2)/2)(1 + 2^-28). A point within r < d of c is seen from
//    the origin at most asin(r/d) away from c's direction, and asin has
//    slope <= 2.1 below 0.87, so every k_i is at most alpha + 2^-49 away
//    from c.
// 2. The certificate's arithmetic. cos, sin and their products, the
//    dot product, d^2 - R^2 (well conditioned: d^2 - R^2 >= d^2/4), its
//    root and the two subtractions each err by a few 2^-53 d; together less
//    than 2^-47 d. So the rejection implies, in exact arithmetic,
//    cos A < cos(theta + alpha) - (eps - 2^-47). cos is 1-Lipschitz and
//    decreasing on [0, pi] and theta + alpha + eps < pi, hence
//    A > theta + alpha + eps - 2^-47.
// 3. The exact test. atan2 is within a few ulps of pi, and with |heading|
//    <= pi, AngleDiff's subtraction and its one 2 pi step add a few more:
//    the computed AngleDiff(center_angle, heading) is at least A - 2^-48,
//    the computed half_span at most alpha + 2^-49 + 2^-47, and
//    fl(theta + half_span) at most theta + alpha + 2^-46.
// So the exact test's left side exceeds its right side whenever eps >
// 2^-45; eps = 2^-40 leaves a factor of 32. Outside the guards the
// bounds fail: theta >= pi/2 lets theta + alpha pass pi, where cos stops
// being monotone, and when a coordinate's ulp nears delta (origin 1e15,
// delta 1.1) the rounded corners leave the disc of radius R.
bool TileOrdering::CertainlyOutsideCone(const Rect& rect, const Point& u,
                                        double delta) const {
  const double mx = std::max(std::fabs(rect.lo.x), std::fabs(rect.hi.x));
  const double my = std::max(std::fabs(rect.lo.y), std::fabs(rect.hi.y));
  const double mu = std::max(std::fabs(u.x), std::fabs(u.y));
  const double m = std::max(std::max(mx, my), mu);
  if (!(delta >= 0x1p-200 && delta <= 0x1p200 && m <= delta * 0x1p22)) {
    return false;
  }
  const Vec2 c = rect.Center() - u;
  const double d2 = c.Norm2();
  const double r = delta * kHalfDiagonal;
  const double r2 = r * r;
  if (!(4.0 * r2 <= 3.0 * d2)) return false;
  const double dot = c.x * hx_ + c.y * hy_;
  const double bound = cos_theta_ * std::sqrt(d2 - r2) - sin_theta_ * r -
                       kConeEps * (std::fabs(c.x) + std::fabs(c.y));
  return dot < bound;
}

bool TileOrdering::AcceptCell(const TileRegion& region, int ix, int iy) const {
  if (!directed_) return true;
  const Rect rect = region.TileRect(GridTile{0, ix, iy});
  // The user sits at the center of cell (0,0).
  const Point u{region.origin().x + region.delta() / 2.0,
                region.origin().y + region.delta() / 2.0};
  if (rect.Contains(u)) return true;
  if (certify_ && CertainlyOutsideCone(rect, u, region.delta())) return false;
  const double center_angle = (rect.Center() - u).Angle();
  double half_span = 0.0;
  for (int c = 0; c < 4; ++c) {
    half_span = std::max(
        half_span, AngleDiff((rect.Corner(c) - u).Angle(), center_angle));
  }
  return AngleDiff(center_angle, heading_) <= theta_ + half_span;
}

std::optional<GridTile> TileOrdering::Next(const TileRegion& region) {
  if (exhausted_) return std::nullopt;
  if (ring_ == 0) {
    ring_ = 1;
    pos_ = 0;
    inserted_in_ring_ = false;
  }
  for (;;) {
    if (pos_ >= 8 * ring_) {
      if (!inserted_in_ring_) {
        exhausted_ = true;
        return std::nullopt;
      }
      ++ring_;
      pos_ = 0;
      inserted_in_ring_ = false;
    }
    int ix = 0, iy = 0;
    RingCell(ring_, pos_, &ix, &iy);
    ++pos_;
    if (AcceptCell(region, ix, iy)) return GridTile{0, ix, iy};
  }
}

}  // namespace mpn
