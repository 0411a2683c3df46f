#include "geom/vec2.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace mpn {

std::string Vec2::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%.6g, %.6g)", x, y);
  return buf;
}

double NormalizeAngle(double radians) {
  constexpr double kPi = 3.141592653589793238462643383279502884;
  constexpr double kTwoPi = 2.0 * kPi;
  // The loops below take ~|x|/2pi steps, and never end once x - 2pi rounds
  // back to x (|x| >= ~2^56, or inf). Headings from atan2 stay within a few
  // 2pi, far below the bound, so they keep the loops' exact results; a
  // corrupt one is reduced exactly by remainder first.
  constexpr double kLoopBound = 64.0 * kPi;
  if (!std::isfinite(radians)) return std::numeric_limits<double>::quiet_NaN();
  if (std::fabs(radians) > kLoopBound) {
    radians = std::remainder(radians, kTwoPi);
  }
  while (radians > kPi) radians -= kTwoPi;
  while (radians <= -kPi) radians += kTwoPi;
  return radians;
}

double AngleDiff(double a, double b) {
  const double d = NormalizeAngle(a - b);
  return d < 0.0 ? -d : d;
}

}  // namespace mpn
