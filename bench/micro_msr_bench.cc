// Micro benchmarks: one full safe-region computation per method (the cost a
// server pays per update), the directed tile ordering alone, plus the
// compression codec.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mpn/circle_msr.h"
#include "mpn/compress.h"
#include "mpn/tile_msr.h"
#include "sim/client.h"

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

// Groups shaped like perfbench's max_tiled: three GeoLife-like walkers
// starting within 2 km of a common centre, each with the hint MpnClient
// learns from its last 8 headings (so theta mostly sits at its 15-degree
// floor), taken every 8 steps of a 64-step walk.
struct WalkGroups {
  std::vector<std::vector<Point>> user_sets;
  std::vector<std::vector<MotionHint>> hint_sets;
};

const WalkGroups& WalkGroupFixture() {
  static const WalkGroups f = [] {
    WalkGroups w;
    RandomWalkGenerator::Options opt;
    opt.world = bench::kWorld;
    opt.mean_speed = 1.5;
    opt.speed_jitter = 0.25;
    opt.heading_sigma = 0.06;
    opt.dwell_prob = 0.003;
    const RandomWalkGenerator gen(opt);
    Rng rng(0xD2);
    constexpr size_t kGroups = 32, kHorizon = 64;
    for (size_t g = 0; g < kGroups; ++g) {
      const Point centre{rng.Uniform(20000, 80000), rng.Uniform(20000, 80000)};
      std::vector<Trajectory> walks;
      for (int i = 0; i < 3; ++i) {
        const Point start{centre.x + rng.Uniform(-2000.0, 2000.0),
                          centre.y + rng.Uniform(-2000.0, 2000.0)};
        walks.push_back(gen.Generate(kHorizon, &rng, &start));
      }
      std::vector<MpnClient> clients;
      for (const Trajectory& walk : walks) clients.emplace_back(&walk);
      for (size_t t = 1; t < kHorizon; ++t) {
        for (MpnClient& c : clients) c.Advance(t);
        if (t % 8 != 0) continue;
        std::vector<Point> users;
        std::vector<MotionHint> hints;
        for (const MpnClient& c : clients) {
          users.push_back(c.location());
          hints.push_back(c.Hint());
        }
        w.user_sets.push_back(std::move(users));
        w.hint_sets.push_back(std::move(hints));
      }
    }
    return w;
  }();
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

// Tile-MSR at Table 2's alpha = 30, L = 2 over the uniform groups, or over
// `walks` when given.
void RunTileMsr(benchmark::State& state, bool directed, bool buffered,
                Objective obj, KernelKind kernel = KernelKind::kSoA,
                const WalkGroups* walks = nullptr) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  const auto& user_sets = walks != nullptr ? walks->user_sets : f.user_sets;
  const auto& hint_sets = walks != nullptr ? walks->hint_sets : f.hint_sets;
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
    const size_t k = i++ % user_sets.size();
    benchmark::DoNotOptimize(
        ComputeTileMsr(&f.tree, user_sets[k], obj, config, hint_sets[k]));
  }
}

// Tile-D on the walker groups.
void BM_TileDMsrWalk(benchmark::State& state) {
  RunTileMsr(state, true, false, Objective::kMax, KernelKind::kSoA,
             &WalkGroupFixture());
}

// The directed ordering alone: each walker's ring walk over a 100-unit grid
// around it, through ring 12 (624 cells; the cone keeps every ring open),
// every reported cell marked inserted. One iteration walks one group's
// three orderings.
void BM_TileOrdering(benchmark::State& state) {
  const WalkGroups& w = WalkGroupFixture();
  size_t i = 0;
  for (auto _ : state) {
    const size_t k = i++ % w.user_sets.size();
    for (size_t j = 0; j < w.user_sets[k].size(); ++j) {
      const TileRegion region(w.user_sets[k][j], 100.0);
      const MotionHint& hint = w.hint_sets[k][j];
      TileOrdering ordering(hint.heading, hint.theta);
      while (auto t = ordering.Next(region)) {
        if (ordering.ring() > 12) break;
        benchmark::DoNotOptimize(*t);
        ordering.MarkInserted();
      }
    }
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
BENCHMARK(BM_TileDMsrWalk)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TileOrdering)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TileDMsrScalar)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TileDbMsr)->Arg(1000)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SumTileDMsr)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SumTileDbMsr)->Arg(21287)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EncodeDecodeRegion);

}  // namespace
}  // namespace mpn

BENCHMARK_MAIN();
