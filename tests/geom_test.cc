// Geometry substrate tests: vectors, rectangles, circles and the exact
// focal-difference minimization that underpins Sum-GT-Verify.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "geom/circle.h"
#include "geom/focal_diff.h"
#include "geom/lanes.h"
#include "geom/rect.h"
#include "geom/vec2.h"
#include "util/rng.h"

namespace mpn {
namespace {

constexpr double kPi = 3.14159265358979323846;

uint64_t BitsOf(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -4.0};
  EXPECT_EQ(a + b, Vec2(4.0, -2.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 6.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(b / 2.0, Vec2(1.5, -2.0));
  EXPECT_DOUBLE_EQ(a.Dot(b), 3.0 - 8.0);
  EXPECT_DOUBLE_EQ(a.Cross(b), -4.0 - 6.0);
}

TEST(Vec2Test, NormAndDistance) {
  const Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.Norm2(), 25.0);
  EXPECT_DOUBLE_EQ(Dist({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Dist2({1, 1}, {4, 5}), 25.0);
}

TEST(Vec2Test, NormalizedHandlesZero) {
  EXPECT_EQ(Vec2(0, 0).Normalized(), Vec2(0, 0));
  const Vec2 u = Vec2(0, -2).Normalized();
  EXPECT_DOUBLE_EQ(u.x, 0.0);
  EXPECT_DOUBLE_EQ(u.y, -1.0);
}

TEST(Vec2Test, AngleAndRotation) {
  EXPECT_DOUBLE_EQ(Vec2(1, 0).Angle(), 0.0);
  EXPECT_DOUBLE_EQ(Vec2(0, 1).Angle(), kPi / 2);
  const Vec2 r = Vec2(1, 0).Rotated(kPi / 2);
  EXPECT_NEAR(r.x, 0.0, 1e-15);
  EXPECT_NEAR(r.y, 1.0, 1e-15);
}

TEST(AngleTest, NormalizeAngle) {
  EXPECT_NEAR(NormalizeAngle(3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(NormalizeAngle(-3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(NormalizeAngle(0.5), 0.5, 1e-15);
  EXPECT_LE(NormalizeAngle(123.456), kPi);
  EXPECT_GT(NormalizeAngle(123.456), -kPi);
}

TEST(AngleTest, AngleDiffSymmetricAndBounded) {
  EXPECT_NEAR(AngleDiff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(AngleDiff(kPi - 0.05, -kPi + 0.05), 0.1, 1e-12);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-10, 10), b = rng.Uniform(-10, 10);
    const double d = AngleDiff(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, kPi + 1e-12);
    EXPECT_NEAR(d, AngleDiff(b, a), 1e-12);
  }
}

// NormalizeAngle as it was before its input was bounded: the reference for
// every angle at or below the bound.
double LoopNormalizeAngle(double radians) {
  constexpr double kTwoPi = 2.0 * kPi;
  while (radians > kPi) radians -= kTwoPi;
  while (radians <= -kPi) radians += kTwoPi;
  return radians;
}

TEST(AngleTest, NormalizeAngleTerminatesOnEveryDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(NormalizeAngle(inf)));
  EXPECT_TRUE(std::isnan(NormalizeAngle(-inf)));
  EXPECT_TRUE(std::isnan(NormalizeAngle(std::nan(""))));
  EXPECT_TRUE(std::isnan(AngleDiff(0.5, inf)));
  // Past 2^56, x - 2 pi rounds back to x: a plain 2 pi loop never ends.
  for (const double big : {0x1p56, 1e300, std::numeric_limits<double>::max()}) {
    for (const double x : {big, -big}) {
      const double n = NormalizeAngle(x);
      EXPECT_GT(n, -kPi) << x;
      EXPECT_LE(n, kPi) << x;
    }
  }
  // At or below 64 pi every result is the loop's, bit for bit: a dense
  // sweep plus both neighbours of every multiple of pi, where the loops'
  // comparisons flip.
  const double bound = 64.0 * kPi;
  std::vector<double> xs;
  const int kSteps = 1 << 18;
  for (int i = 0; i <= kSteps; ++i) {
    xs.push_back(-bound + 2.0 * bound * static_cast<double>(i) / kSteps);
  }
  for (int k = -64; k <= 64; ++k) {
    const double m = k * kPi;
    xs.push_back(std::nextafter(m, -inf));
    xs.push_back(m);
    xs.push_back(std::nextafter(m, inf));
  }
  xs.push_back(-0.0);
  size_t mismatches = 0;
  for (const double x : xs) {
    if (std::fabs(x) > bound) continue;
    if (BitsOf(NormalizeAngle(x)) != BitsOf(LoopNormalizeAngle(x))) {
      ++mismatches;
      ADD_FAILURE() << "x=" << x;
      if (mismatches > 8) break;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RectTest, EmptyAndContainment) {
  EXPECT_TRUE(Rect::Empty().IsEmpty());
  const Rect r({0, 0}, {2, 4});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_TRUE(r.Contains({2, 4}));
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({2.0001, 1}));
  EXPECT_FALSE(r.Contains({1, -0.0001}));
}

TEST(RectTest, AreaMarginCenter) {
  const Rect r({1, 1}, {4, 3});
  EXPECT_DOUBLE_EQ(r.Area(), 6.0);
  EXPECT_EQ(r.Center(), Vec2(2.5, 2.0));
  EXPECT_DOUBLE_EQ(Rect::Empty().Area(), 0.0);
}

TEST(RectTest, UnionAndExpand) {
  Rect r = Rect::Empty();
  r.ExpandToInclude(Point{1, 1});
  EXPECT_EQ(r.lo, Vec2(1, 1));
  EXPECT_EQ(r.hi, Vec2(1, 1));
  r.ExpandToInclude(Point{-1, 3});
  EXPECT_EQ(r.lo, Vec2(-1, 1));
  EXPECT_EQ(r.hi, Vec2(1, 3));
  const Rect u = Rect::Union(Rect({0, 0}, {1, 1}), Rect({2, -1}, {3, 0.5}));
  EXPECT_EQ(u.lo, Vec2(0, -1));
  EXPECT_EQ(u.hi, Vec2(3, 1));
}

TEST(RectTest, IntersectionTests) {
  const Rect a({0, 0}, {2, 2});
  EXPECT_TRUE(a.Intersects(Rect({1, 1}, {3, 3})));
  EXPECT_TRUE(a.Intersects(Rect({2, 2}, {3, 3})));  // corner touch
  EXPECT_FALSE(a.Intersects(Rect({2.1, 0}, {3, 1})));
  EXPECT_FALSE(a.Intersects(Rect::Empty()));
}

TEST(RectTest, MinMaxDistInsideAndOutside) {
  const Rect r({0, 0}, {2, 2});
  EXPECT_DOUBLE_EQ(r.MinDist({1, 1}), 0.0);       // inside
  EXPECT_DOUBLE_EQ(r.MinDist({3, 1}), 1.0);       // right of
  EXPECT_DOUBLE_EQ(r.MinDist({-3, -4}), 5.0);     // diagonal
  EXPECT_DOUBLE_EQ(r.MaxDist({0, 0}), std::sqrt(8.0));
  EXPECT_DOUBLE_EQ(r.MaxDist({1, 1}), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(r.MaxDist({3, 1}), std::sqrt(9 + 1));
}

TEST(RectTest, MinMaxDistMatchSampledExtremes) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    const Point lo{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Rect r(lo, {lo.x + rng.Uniform(0.1, 5), lo.y + rng.Uniform(0.1, 5)});
    const Point q{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    double smin = 1e300, smax = 0.0;
    for (int i = 0; i <= 20; ++i) {
      for (int j = 0; j <= 20; ++j) {
        const Point s{r.lo.x + r.Width() * i / 20.0,
                      r.lo.y + r.Height() * j / 20.0};
        smin = std::min(smin, Dist(q, s));
        smax = std::max(smax, Dist(q, s));
      }
    }
    EXPECT_LE(r.MinDist(q), smin + 1e-9);
    EXPECT_GE(r.MaxDist(q), smax - 1e-9);
    // The bounds are attained at boundary sample points up to grid error.
    EXPECT_NEAR(r.MinDist(q), smin, 0.5);
    EXPECT_NEAR(r.MaxDist(q), smax, 0.5);
  }
}

TEST(RectTest, Corners) {
  const Rect r({0, 1}, {2, 3});
  EXPECT_EQ(r.Corner(0), Vec2(0, 1));
  EXPECT_EQ(r.Corner(1), Vec2(2, 1));
  EXPECT_EQ(r.Corner(2), Vec2(2, 3));
  EXPECT_EQ(r.Corner(3), Vec2(0, 3));
}

TEST(RectTest, CenteredSquare) {
  const Rect r = Rect::CenteredSquare({1, 1}, 2.0);
  EXPECT_EQ(r.lo, Vec2(0, 0));
  EXPECT_EQ(r.hi, Vec2(2, 2));
}

TEST(CircleTest, ContainsAndDistances) {
  const Circle c({0, 0}, 2.0);
  EXPECT_TRUE(c.Contains({0, 2}));
  EXPECT_TRUE(c.Contains({1.2, 1.2}));
  EXPECT_FALSE(c.Contains({1.5, 1.5}));
  EXPECT_DOUBLE_EQ(c.MinDist({5, 0}), 3.0);
  EXPECT_DOUBLE_EQ(c.MinDist({1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(c.MaxDist({5, 0}), 7.0);
}

TEST(CircleTest, InscribedSquareIsInside) {
  const Circle c({3, -2}, 1.7);
  const Rect sq = c.InscribedSquare();
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(Dist(sq.Corner(i), c.center), c.radius + 1e-12);
  }
  EXPECT_NEAR(sq.Width(), 1.7 * std::sqrt(2.0), 1e-12);
}

// --- Focal difference (hyperbola) minimization -----------------------------

double BruteForceMinFocalDiff(const Point& p_other, const Point& p_opt,
                              const Rect& r, int grid = 160) {
  double best = 1e300;
  for (int i = 0; i <= grid; ++i) {
    for (int j = 0; j <= grid; ++j) {
      const Point l{r.lo.x + r.Width() * i / grid,
                    r.lo.y + r.Height() * j / grid};
      best = std::min(best, FocalDiff(p_other, p_opt, l));
    }
  }
  return best;
}

TEST(FocalDiffTest, DegenerateEqualFoci) {
  const Rect r({0, 0}, {1, 1});
  EXPECT_DOUBLE_EQ(MinFocalDiffOverRect({2, 2}, {2, 2}, r), 0.0);
}

TEST(FocalDiffTest, PaperFigure12Configuration) {
  // po = (1,0), p' = (-1,0); tile on the p' side must have negative minimum
  // close to -||p',po|| when it touches the axis behind p'.
  const Point po{1, 0}, pp{-1, 0};
  const Rect behind({-4, -0.5}, {-2, 0.5});  // crosses the axis behind p'
  EXPECT_NEAR(MinFocalDiffOverRect(pp, po, behind), -2.0, 1e-12);
  const Rect beyond({2, -0.5}, {4, 0.5});  // beyond po: g = +2 on the axis
  const double v = MinFocalDiffOverRect(pp, po, beyond);
  EXPECT_NEAR(v, BruteForceMinFocalDiff(pp, po, beyond), 1e-3);
}

TEST(FocalDiffTest, MatchesBruteForceOnRandomRects) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const Point po{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    Point pp{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    if (pp == po) pp.x += 1.0;
    const Point lo{rng.Uniform(-6, 6), rng.Uniform(-6, 6)};
    const Rect r(lo, {lo.x + rng.Uniform(0.05, 4), lo.y + rng.Uniform(0.05, 4)});
    const double exact = MinFocalDiffOverRect(pp, po, r);
    const double sampled = BruteForceMinFocalDiff(pp, po, r);
    // Exact must lower-bound any sampled value and be close to the best one.
    EXPECT_LE(exact, sampled + 1e-9) << "trial " << trial;
    EXPECT_NEAR(exact, sampled, 0.08) << "trial " << trial;
  }
}

TEST(FocalDiffTest, BoundedByFocalDistance) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Point po{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    Point pp{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    if (pp == po) pp.y += 0.5;
    const Point lo{rng.Uniform(-8, 8), rng.Uniform(-8, 8)};
    const Rect r(lo, {lo.x + rng.Uniform(0.1, 6), lo.y + rng.Uniform(0.1, 6)});
    const double d = Dist(pp, po);
    const double v = MinFocalDiffOverRect(pp, po, r);
    EXPECT_GE(v, -d - 1e-9);
    EXPECT_LE(v, d + 1e-9);
  }
}

// --- SoA lane kernels (geom/lanes.h) ---------------------------------------

std::vector<Rect> RandomRects(Rng* rng, size_t n) {
  std::vector<Rect> rects;
  for (size_t i = 0; i < n; ++i) {
    const Point lo{rng->Uniform(-50, 50), rng->Uniform(-50, 50)};
    rects.push_back(
        Rect(lo, {lo.x + rng->Uniform(0.0, 20), lo.y + rng->Uniform(0.0, 20)}));
  }
  return rects;
}

struct SoaRects {
  std::vector<double> lo_x, lo_y, hi_x, hi_y;
  RectLanes lanes() const {
    return RectLanes{lo_x.data(), lo_y.data(), hi_x.data(), hi_y.data(),
                     lo_x.size()};
  }
};

SoaRects ToSoa(const std::vector<Rect>& rects) {
  SoaRects s;
  for (const Rect& r : rects) {
    s.lo_x.push_back(r.lo.x);
    s.lo_y.push_back(r.lo.y);
    s.hi_x.push_back(r.hi.x);
    s.hi_y.push_back(r.hi.y);
  }
  return s;
}

TEST(LanesTest, RectDistLanesBitIdenticalToScalarPredicates) {
  Rng rng(0x1a9e5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto rects = RandomRects(&rng, 1 + static_cast<size_t>(trial % 9));
    const SoaRects soa = ToSoa(rects);
    const Point p{rng.Uniform(-60, 60), rng.Uniform(-60, 60)};
    std::vector<double> mx(rects.size());
    RectMaxDistLanes(soa.lanes(), p, mx.data());
    double fold_min = std::numeric_limits<double>::infinity();
    double fold_max = 0.0;
    for (size_t i = 0; i < rects.size(); ++i) {
      // Bit-identical, not approximately equal: the kernels must perform
      // the exact IEEE operations of the scalar predicates.
      ASSERT_EQ(mx[i], rects[i].MaxDist(p)) << "lane " << i;
      fold_min = std::min(fold_min, rects[i].MinDist(p));
      fold_max = std::max(fold_max, mx[i]);
    }
    ASSERT_EQ(RectMinDistReduce(soa.lanes(), p), fold_min);
    ASSERT_EQ(RectMaxDistReduce(soa.lanes(), p), fold_max);
  }
}

TEST(LanesTest, ReduceIdentitiesOnEmptyInput) {
  const RectLanes empty;
  EXPECT_EQ(RectMinDistReduce(empty, {0, 0}),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(RectMaxDistReduce(empty, {0, 0}), 0.0);
}

TEST(LanesTest, SqrtThresholdsMoveComparesToSquaredDomainExactly) {
  // The defining property, checked exhaustively around the boundary: for
  // every t >= 0, sqrt(t) <= z  <=>  t <= SqrtLeqThreshold(z), and
  // sqrt(t) < y  <=>  t <= SqrtLtThreshold(y). Probing several ulps on
  // both sides of each threshold covers exactly the near-tie squares where
  // a naive t <= z*z compare goes wrong.
  Rng rng(0x5157);
  std::vector<double> values = {0.0, 1.0, 2.0, 1e-300, 1e300, 0.1};
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.Uniform(0.0, 1e6));
    values.push_back(rng.Uniform(0.0, 1e-3));
  }
  for (const double z : values) {
    const double t_le = SqrtLeqThreshold(z);
    const double t_lt = SqrtLtThreshold(z);
    double probe = t_le;
    for (int step = 0; step < 4; ++step) {
      if (probe >= 0.0) {
        EXPECT_EQ(std::sqrt(probe) <= z, probe <= t_le) << "z=" << z;
        EXPECT_EQ(std::sqrt(probe) < z, probe <= t_lt) << "z=" << z;
      }
      probe = std::nextafter(probe, 0.0);
    }
    probe = t_le;
    for (int step = 0; step < 4; ++step) {
      probe = std::nextafter(probe, std::numeric_limits<double>::infinity());
      EXPECT_EQ(std::sqrt(probe) <= z, probe <= t_le) << "z=" << z;
    }
    probe = t_lt;
    for (int step = 0; step < 4; ++step) {
      probe = std::nextafter(probe, std::numeric_limits<double>::infinity());
      EXPECT_EQ(std::sqrt(probe) < z, probe <= t_lt) << "z=" << z;
    }
  }
  // Degenerate and boundary arguments.
  EXPECT_EQ(SqrtLtThreshold(0.0), -1.0);    // sqrt(t) < 0 never holds
  EXPECT_EQ(SqrtLeqThreshold(-1.0), -1.0);  // negative target: empty set
  EXPECT_EQ(SqrtLeqThreshold(0.0), 0.0);    // only t == 0
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(SqrtLeqThreshold(inf), inf);
  EXPECT_EQ(SqrtLtThreshold(inf), std::numeric_limits<double>::max());
}

// The thresholds as written with libm nextafter: the reference for the
// in-line ulp steps.
double NextafterSqrtLeqThreshold(double z) {
  if (!(z >= 0.0)) return -1.0;
  if (std::isinf(z)) return z;
  double t = z * z;
  if (std::isinf(t)) t = std::numeric_limits<double>::max();
  while (std::sqrt(t) > z) t = std::nextafter(t, 0.0);
  for (;;) {
    const double up =
        std::nextafter(t, std::numeric_limits<double>::infinity());
    if (std::isinf(up) || std::sqrt(up) > z) break;
    t = up;
  }
  return t;
}

double NextafterSqrtLtThreshold(double y) {
  if (!(y > 0.0)) return -1.0;
  if (std::isinf(y)) return std::numeric_limits<double>::max();
  return NextafterSqrtLeqThreshold(std::nextafter(y, 0.0));
}

TEST(LanesTest, UlpStepsMatchNextafter) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  std::vector<double> ts = {0.0, tiny, 2 * tiny, 3 * tiny, 1.0, max};
  ts.insert(ts.end(), {min_normal - tiny, min_normal, min_normal + tiny});
  ts.insert(ts.end(), {0.5 * min_normal, std::nextafter(max, 0.0)});
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);  // every power of two
    ts.insert(ts.end(), {p, std::nextafter(p, 0.0), std::nextafter(p, inf)});
  }
  Rng rng(0x5159);
  for (int i = 0; i < 2000; ++i) {
    ts.push_back(std::ldexp(1.0 + rng.Uniform01(),
                            static_cast<int>(rng.UniformInt(-1074, 1023))));
  }
  for (const double t : ts) {
    ASSERT_TRUE(std::isfinite(t) && t >= 0.0);
    EXPECT_EQ(BitsOf(UlpUp(t)), BitsOf(std::nextafter(t, inf))) << "t=" << t;
    if (t > 0.0) {
      EXPECT_EQ(BitsOf(UlpDown(t)), BitsOf(std::nextafter(t, 0.0)))
          << "t=" << t;
    }
  }
  EXPECT_EQ(UlpUp(max), inf);  // the upward probe's stop
  EXPECT_EQ(UlpUp(0.0), tiny);
  EXPECT_EQ(UlpDown(tiny), 0.0);
}

TEST(LanesTest, SqrtThresholdsMatchTheNextafterReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  std::vector<double> zs = {0.0, -0.0, tiny, 2 * tiny, 7 * tiny, max, inf};
  zs.insert(zs.end(), {0.5 * min_normal, min_normal - tiny, min_normal});
  zs.insert(zs.end(), {std::nextafter(max, 0.0), -1.0, -inf, std::nan("")});
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    zs.insert(zs.end(), {p, std::nextafter(p, 0.0), std::nextafter(p, inf)});
    const double r = std::sqrt(p);  // thresholds right at a square
    zs.insert(zs.end(), {r, std::nextafter(r, 0.0), std::nextafter(r, inf)});
  }
  for (const double z : zs) {
    EXPECT_EQ(BitsOf(SqrtLeqThreshold(z)),
              BitsOf(NextafterSqrtLeqThreshold(z)))
        << "z=" << z;
    EXPECT_EQ(BitsOf(SqrtLtThreshold(z)), BitsOf(NextafterSqrtLtThreshold(z)))
        << "z=" << z;
  }
}

TEST(LanesTest, SqrtLeqBoundNeverDropsWhatTheExactTestKeeps) {
  // The largest t with sqrt(t) <= z is SqrtLeqThreshold(z), so the filter
  // t <= SqrtLeqBound(z) keeps every such t iff the bound is at least the
  // threshold. Checked at random magnitudes over the whole exponent range,
  // and densely where z * z is subnormal or zero (z below 2^-511), where
  // it crosses into the normal range, and where it overflows.
  Rng rng(0x5158);
  std::vector<double> zs = {0.0, 1.0, 0x1p-1074, 0x1p-537, 0x1p-511,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity()};
  const auto draw = [&](int lo, int hi) {
    const int e = static_cast<int>(rng.UniformInt(lo, hi));
    zs.push_back(std::ldexp(1.0 + rng.Uniform01(), e));
  };
  for (int i = 0; i < 20000; ++i) {
    draw(-1074, 1023);
    draw(-545, -505);
    draw(505, 515);
  }
  // The roots of consecutive subnormals and of the squares around the
  // smallest normal, and their one-ulp neighbours.
  for (uint64_t step = 1; step < 4000; ++step) {
    for (const double t : {static_cast<double>(step) * 0x1p-1074,
                           0x1p-1022 - static_cast<double>(step) * 0x1p-1074}) {
      const double s = std::sqrt(t);
      zs.insert(zs.end(), {s, std::nextafter(s, 0.0), std::nextafter(s, 1.0)});
    }
  }
  for (const double z : zs) {
    EXPECT_LE(SqrtLeqThreshold(z), SqrtLeqBound(z)) << "z=" << z;
  }
  // Without the slack, a bare z * z drops roots that round down to z.
  EXPECT_GT(SqrtLeqThreshold(1.0), 1.0 * 1.0);
}

TEST(FocalDiffTest, UpperBoundIsConservative) {
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    const Point po{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point pp{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Point lo{rng.Uniform(-8, 8), rng.Uniform(-8, 8)};
    const Rect r(lo, {lo.x + rng.Uniform(0.1, 6), lo.y + rng.Uniform(0.1, 6)});
    const double ub = MaxFocalDiffUpperBound(pp, po, r);
    for (int i = 0; i < 50; ++i) {
      const Point l{rng.Uniform(r.lo.x, r.hi.x), rng.Uniform(r.lo.y, r.hi.y)};
      EXPECT_GE(ub, FocalDiff(pp, po, l) - 1e-9);
    }
  }
}

}  // namespace
}  // namespace mpn
