// Utility substrate tests: RNG determinism and distributional sanity,
// streaming statistics, quantiles, and table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace mpn {
namespace {

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t xa = a.Next();
    EXPECT_EQ(xa, b.Next());
    if (xa != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(6);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const int64_t v = rng.UniformInt(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
  // Degenerate single-value range.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(7, 7), 7);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(7);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(stat.Mean(), 10.0, 0.1);
  EXPECT_NEAR(stat.Stddev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexProportional) {
  Rng rng(9);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(10);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(11);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(RunningStatTest, EmptyAndSingle) {
  RunningStat s;
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(QuantileTest, InterpolatesOrderStatistics) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.9), 7.0);
}

TEST(MeanOfTest, Basic) {
  EXPECT_DOUBLE_EQ(MeanOf({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(MeanOf({}), 0.0);
}

TEST(TableTest, AlignmentAndCsv) {
  Table t({"name", "value"});
  t.AddRow(std::vector<std::string>{"alpha", "30"});
  t.AddRow(std::vector<double>{1.5, 2.25}, 2);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.25"), std::string::npos);
  const std::string path = "/tmp/mpn_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "name,value");
  std::getline(f, line);
  EXPECT_EQ(line, "alpha,30");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMicros(), 0.0);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace mpn
