// Micro benchmarks: one full safe-region computation per method (the cost a
// server pays per update), plus the compression codec.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mpn/circle_msr.h"
#include "mpn/compress.h"
#include "mpn/tile_msr.h"

namespace mpn {
namespace {

struct MsrFixture {
  std::vector<Point> pois;
  PackedRTree tree;
  std::vector<std::vector<Point>> user_sets;
  std::vector<std::vector<MotionHint>> hint_sets;
};

const MsrFixture& Fixture(size_t n) {
  static std::map<size_t, MsrFixture> cache;
  auto& f = cache[n];
  if (f.pois.empty()) {
    f.pois = bench::MakePoiSet(n, 0xD0);
    f.tree = PackedRTree::Build(f.pois);
    Rng rng(0xD1);
    for (int i = 0; i < 32; ++i) {
      std::vector<Point> users;
      std::vector<MotionHint> hints;
      for (int j = 0; j < 3; ++j) {
        users.push_back({rng.Uniform(30000, 70000),
                         rng.Uniform(30000, 70000)});
        MotionHint h;
        h.has_heading = true;
        h.heading = rng.Uniform(-3.14, 3.14);
        h.theta = 0.8;
        hints.push_back(h);
      }
      f.user_sets.push_back(std::move(users));
      f.hint_sets.push_back(std::move(hints));
    }
  }
  return f;
}

void BM_CircleMsr(benchmark::State& state) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeCircleMsr(&f.tree, f.user_sets[i++ % f.user_sets.size()],
                         Objective::kMax));
  }
}

void RunTileMsr(benchmark::State& state, bool directed, bool buffered,
                Objective obj, KernelKind kernel = KernelKind::kSoA) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  MsrScratch scratch;
  TileMsrConfig config;
  config.alpha = 30;
  config.split_level = 2;
  config.directed = directed;
  config.buffered = buffered;
  config.kernel = kernel;
  config.scratch = &scratch;
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i++ % f.user_sets.size();
    benchmark::DoNotOptimize(
        ComputeTileMsr(&f.tree, f.user_sets[k], obj, config, f.hint_sets[k]));
  }
}

void BM_TileMsr(benchmark::State& state) {
  RunTileMsr(state, false, false, Objective::kMax);
}
void BM_TileDMsr(benchmark::State& state) {
  RunTileMsr(state, true, false, Objective::kMax);
}
// The scalar-kernel ablation of BM_TileDMsr: same computation through the
// original AoS verification walk, for the before/after kernel comparison.
void BM_TileDMsrScalar(benchmark::State& state) {
  RunTileMsr(state, true, false, Objective::kMax, KernelKind::kScalar);
}
void BM_TileDbMsr(benchmark::State& state) {
  RunTileMsr(state, true, true, Objective::kMax);
}
void BM_SumTileDMsr(benchmark::State& state) {
  RunTileMsr(state, true, false, Objective::kSum);
}
void BM_SumTileDbMsr(benchmark::State& state) {
  RunTileMsr(state, true, true, Objective::kSum);
}

void BM_EncodeDecodeRegion(benchmark::State& state) {
  const auto& f = Fixture(21287);
  TileMsrConfig config;
  config.alpha = 30;
  const auto result =
      ComputeTileMsr(&f.tree, f.user_sets[0], Objective::kMax, config);
  TileRegion region = result.regions[0].is_circle()
                          ? TileRegion({0, 0}, 1.0)
                          : result.regions[0].tiles();
  if (region.empty()) region.Add(GridTile{0, 0, 0});
  for (auto _ : state) {
    const auto enc = EncodeTileRegion(region);
    benchmark::DoNotOptimize(DecodeTileRegion(enc));
  }
}

BENCHMARK(BM_CircleMsr)->Arg(1000)->Arg(21287);
BENCHMARK(BM_TileMsr)->Arg(1000)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TileDMsr)->Arg(1000)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TileDMsrScalar)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TileDbMsr)->Arg(1000)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SumTileDMsr)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SumTileDbMsr)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EncodeDecodeRegion);

}  // namespace
}  // namespace mpn

BENCHMARK_MAIN();
