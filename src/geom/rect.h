// Axis-aligned rectangles (MBRs) with the min/max distance semantics of
// Definition 1: ||p,S||_min and ||p,S||_max for a region S.
#pragma once

#include <algorithm>
#include <string>

#include "geom/vec2.h"

namespace mpn {

/// Closed axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y].
struct Rect {
  Point lo;
  Point hi;

  Rect() : lo{0, 0}, hi{-1, -1} {}  // default: empty
  Rect(const Point& l, const Point& h) : lo(l), hi(h) {}

  /// Square of side `side` centered at `c`.
  static Rect CenteredSquare(const Point& c, double side) {
    const double h = side / 2.0;
    return Rect({c.x - h, c.y - h}, {c.x + h, c.y + h});
  }

  /// Empty rectangle (contains nothing; identity for ExpandToInclude).
  static Rect Empty() { return Rect(); }

  /// True when the rectangle contains no points.
  bool IsEmpty() const { return lo.x > hi.x || lo.y > hi.y; }

  /// Geometric center. Undefined for empty rectangles.
  Point Center() const { return {(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0}; }

  double Width() const { return hi.x - lo.x; }
  double Height() const { return hi.y - lo.y; }

  /// Area; 0 for empty or degenerate rectangles.
  double Area() const { return IsEmpty() ? 0.0 : Width() * Height(); }

  /// Closed containment test.
  bool Contains(const Point& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  /// True when `other` lies entirely within this rectangle.
  bool ContainsRect(const Rect& other) const {
    return !other.IsEmpty() && other.lo.x >= lo.x && other.hi.x <= hi.x &&
           other.lo.y >= lo.y && other.hi.y <= hi.y;
  }

  /// Closed intersection test.
  bool Intersects(const Rect& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return lo.x <= other.hi.x && other.lo.x <= hi.x && lo.y <= other.hi.y &&
           other.lo.y <= hi.y;
  }

  /// Smallest rectangle containing this one and `p`.
  void ExpandToInclude(const Point& p) {
    if (IsEmpty()) {
      lo = hi = p;
      return;
    }
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  /// Smallest rectangle containing this one and `r`.
  void ExpandToInclude(const Rect& r) {
    if (r.IsEmpty()) return;
    ExpandToInclude(r.lo);
    ExpandToInclude(r.hi);
  }

  /// Union of two rectangles.
  static Rect Union(const Rect& a, const Rect& b) {
    Rect r = a;
    r.ExpandToInclude(b);
    return r;
  }

  /// ||p, R||_min: distance from p to the nearest point of the rectangle
  /// (0 when p is inside).
  double MinDist(const Point& p) const {
    const double dx = std::max({lo.x - p.x, 0.0, p.x - hi.x});
    const double dy = std::max({lo.y - p.y, 0.0, p.y - hi.y});
    return std::sqrt(dx * dx + dy * dy);
  }

  /// Squared ||p, R||_min (cheaper; used by index traversals).
  double MinDist2(const Point& p) const {
    const double dx = std::max({lo.x - p.x, 0.0, p.x - hi.x});
    const double dy = std::max({lo.y - p.y, 0.0, p.y - hi.y});
    return dx * dx + dy * dy;
  }

  /// ||p, R||_max: distance from p to the farthest point of the rectangle.
  double MaxDist(const Point& p) const { return std::sqrt(MaxDist2(p)); }

  /// Squared ||p, R||_max.
  double MaxDist2(const Point& p) const {
    const double dx = std::max(p.x - lo.x, hi.x - p.x);
    const double dy = std::max(p.y - lo.y, hi.y - p.y);
    return dx * dx + dy * dy;
  }

  /// Corner by index (0: lo-lo, 1: hi-lo, 2: hi-hi, 3: lo-hi).
  Point Corner(int i) const {
    switch (i & 3) {
      case 0: return lo;
      case 1: return {hi.x, lo.y};
      case 2: return hi;
      default: return {lo.x, hi.y};
    }
  }

  std::string ToString() const;
};

}  // namespace mpn
