// Micro benchmarks: MAX/SUM-GNN query latency on the R-tree vs data size,
// group size and result depth (the buffering optimization fetches b+1),
// and on the Circle serving workloads' query stream.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/gnn.h"
#include "traj/generators.h"

namespace mpn {
namespace {

struct GnnFixtureData {
  std::vector<Point> pois;
  PackedRTree tree;
  std::vector<std::vector<Point>> user_sets;
};

const GnnFixtureData& Fixture(size_t n, size_t m) {
  static std::map<std::pair<size_t, size_t>, GnnFixtureData> cache;
  auto& f = cache[{n, m}];
  if (f.pois.empty()) {
    f.pois = bench::MakePoiSet(n, 0xA11);
    f.tree = PackedRTree::Build(f.pois);
    Rng rng(0xB22);
    for (int i = 0; i < 64; ++i) {
      std::vector<Point> users;
      for (size_t j = 0; j < m; ++j) {
        users.push_back({rng.Uniform(20000, 80000),
                         rng.Uniform(20000, 80000)});
      }
      f.user_sets.push_back(std::move(users));
    }
  }
  return f;
}

void BM_GnnTop1(benchmark::State& state, Objective obj) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)),
                          static_cast<size_t>(state.range(1)));
  size_t i = 0;
  for (auto _ : state) {
    const auto r = FindGnn(&f.tree, f.user_sets[i++ % f.user_sets.size()],
                           obj, 1);
    benchmark::DoNotOptimize(r);
  }
}

void BM_GnnTopK(benchmark::State& state, Objective obj) {
  const auto& f = Fixture(21287, 3);
  const size_t k = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const auto r = FindGnn(&f.tree, f.user_sets[i++ % f.user_sets.size()],
                           obj, k);
    benchmark::DoNotOptimize(r);
  }
}

void BM_GnnBruteForce(benchmark::State& state, Objective obj) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)), 3);
  size_t i = 0;
  for (auto _ : state) {
    const auto r = FindGnnBruteForce(
        f.pois, f.user_sets[i++ % f.user_sets.size()], obj, 1);
    benchmark::DoNotOptimize(r);
  }
}

// The query stream of perfbench's Circle workloads (fleet_spill,
// sharded_waves): their 2^18 clustered POIs, pairs of GeoLife-like walkers
// starting within 2 km of a common centre, and a top-2 query (Circle-MSR's
// FindGnn) at each of a pair's 16 consecutive positions, pair after pair,
// the order one session's recomputes come in.
struct WalkFixtureData {
  PackedRTree tree;
  std::vector<std::vector<Point>> queries;
};

const WalkFixtureData& WalkFixture() {
  static const WalkFixtureData f = [] {
    WalkFixtureData d;
    d.tree = PackedRTree::Build(bench::MakePoiSet(size_t{1} << 18));
    RandomWalkGenerator::Options opt;
    opt.world = bench::kWorld;
    opt.mean_speed = 1.5;
    opt.speed_jitter = 0.25;
    opt.heading_sigma = 0.06;
    opt.dwell_prob = 0.003;
    const RandomWalkGenerator gen(opt);
    Rng rng(0xC12C);
    constexpr size_t kPairs = 1024, kHorizon = 16;
    for (size_t g = 0; g < kPairs; ++g) {
      const Point centre{rng.Uniform(0, 100000), rng.Uniform(0, 100000)};
      std::vector<Trajectory> pair;
      for (int i = 0; i < 2; ++i) {
        const Point start{centre.x + rng.Uniform(-2000.0, 2000.0),
                          centre.y + rng.Uniform(-2000.0, 2000.0)};
        pair.push_back(gen.Generate(kHorizon, &rng, &start));
      }
      for (size_t t = 0; t < kHorizon; ++t) {
        d.queries.push_back({pair[0].at(t), pair[1].at(t)});
      }
    }
    return d;
  }();
  return f;
}

void BM_GnnCircleWalk(benchmark::State& state, Objective obj) {
  const WalkFixtureData& f = WalkFixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto r = FindGnn(&f.tree, f.queries[i++ % f.queries.size()], obj, 2);
    benchmark::DoNotOptimize(r);
  }
}

BENCHMARK_CAPTURE(BM_GnnCircleWalk, max, Objective::kMax);
BENCHMARK_CAPTURE(BM_GnnCircleWalk, sum, Objective::kSum);
BENCHMARK_CAPTURE(BM_GnnTop1, max, Objective::kMax)
    ->ArgsProduct({{1000, 5000, 21287}, {2, 3, 6}});
BENCHMARK_CAPTURE(BM_GnnTop1, sum, Objective::kSum)
    ->ArgsProduct({{1000, 5000, 21287}, {2, 3, 6}});
BENCHMARK_CAPTURE(BM_GnnTopK, max, Objective::kMax)->Arg(2)->Arg(26)->Arg(101);
BENCHMARK_CAPTURE(BM_GnnTopK, sum, Objective::kSum)->Arg(2)->Arg(26)->Arg(101);
BENCHMARK_CAPTURE(BM_GnnBruteForce, max, Objective::kMax)
    ->Arg(1000)->Arg(21287);

}  // namespace
}  // namespace mpn

BENCHMARK_MAIN();
