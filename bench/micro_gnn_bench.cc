// Micro benchmarks: MAX/SUM-GNN query latency on the R-tree vs data size,
// group size and result depth (the buffering optimization fetches b+1).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/gnn.h"

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
