// Micro benchmark for the spatial-index substrate: the STR bulk load of the
// packed R-tree (index/packed_rtree.h) at and past the paper's data scale
// (21,287 POIs).
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "bench_common.h"
#include "index/packed_rtree.h"

namespace mpn {
namespace {

const std::vector<Point>& Pois(size_t n) {
  static std::map<size_t, std::vector<Point>> cache;
  auto& p = cache[n];
  if (p.empty()) p = bench::MakePoiSet(n, 0xE0);
  return p;
}

void BM_PackStr(benchmark::State& state) {
  const auto& pts = Pois(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackedRTree::Build(pts));
  }
}

BENCHMARK(BM_PackStr)->Arg(5000)->Arg(21287)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mpn

BENCHMARK_MAIN();
