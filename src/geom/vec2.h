// 2-D points/vectors and elementary operations.
//
// All coordinates are double precision. The library works in an abstract
// planar Euclidean space (Section 3 of the paper); workload generators map
// their worlds onto it.
#pragma once

#include <cmath>
#include <string>

namespace mpn {

/// A 2-D point or displacement vector.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double px, double py) : x(px), y(py) {}

  constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  Vec2& operator+=(const Vec2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Vec2& operator-=(const Vec2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  constexpr bool operator==(const Vec2& o) const { return x == o.x && y == o.y; }
  constexpr bool operator!=(const Vec2& o) const { return !(*this == o); }

  /// Dot product.
  constexpr double Dot(const Vec2& o) const { return x * o.x + y * o.y; }

  /// Z-component of the 2-D cross product.
  constexpr double Cross(const Vec2& o) const { return x * o.y - y * o.x; }

  /// Squared Euclidean norm.
  constexpr double Norm2() const { return x * x + y * y; }

  /// Euclidean norm.
  double Norm() const { return std::sqrt(Norm2()); }

  /// Unit vector in the same direction; returns (0,0) for the zero vector.
  Vec2 Normalized() const {
    const double n = Norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{0.0, 0.0};
  }

  /// Angle of the vector in radians, in (-pi, pi].
  double Angle() const { return std::atan2(y, x); }

  /// Counter-clockwise rotation by `radians`.
  Vec2 Rotated(double radians) const {
    const double c = std::cos(radians), s = std::sin(radians);
    return {x * c - y * s, x * s + y * c};
  }

  std::string ToString() const;
};

/// A location in the plane (alias emphasizing intent).
using Point = Vec2;

/// Euclidean distance ||a,b|| (Definition 1).
inline double Dist(const Point& a, const Point& b) { return (a - b).Norm(); }

/// Squared Euclidean distance.
inline double Dist2(const Point& a, const Point& b) { return (a - b).Norm2(); }

/// Unit vector from a heading angle in radians.
inline Vec2 UnitFromAngle(double radians) {
  return {std::cos(radians), std::sin(radians)};
}

/// Normalizes an angle to (-pi, pi]; NaN for a non-finite input.
double NormalizeAngle(double radians);

/// Absolute angular difference between two headings, in [0, pi] (NaN when
/// either is not finite).
double AngleDiff(double a, double b);

}  // namespace mpn
