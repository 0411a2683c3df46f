// Micro benchmarks for the verification layer: Lemma-1 Verify, GT-Verify vs
// exhaustive IT-Verify (the Section-5.3 ablation), the scalar-vs-SoA
// candidate-scan kernels (the tentpole >= 2x acceptance number), and the
// hyperbola focal-difference minimization of Algorithm 6.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "geom/focal_diff.h"
#include "mpn/circle_msr.h"
#include "mpn/tile_msr.h"
#include "mpn/tile_verify.h"
#include "mpn/verify.h"
#include "util/macros.h"

namespace mpn {
namespace {

struct VerifyFixture {
  std::vector<Point> pois;
  PackedRTree tree;
  std::vector<Point> users;
  Point po;
  uint32_t po_id = 0;
  std::vector<TileRegion> regions;  // grown regions with several tiles
  std::vector<Candidate> candidates;
  Rect probe_tile;
};

// Builds a realistic verification scenario: Table-2-style engine state with
// grown regions, then probes a fresh ring-2 tile.
const VerifyFixture& Fixture(size_t tiles_per_user) {
  static std::map<size_t, VerifyFixture> cache;
  auto& f = cache[tiles_per_user];
  if (f.pois.empty()) {
    f.pois = bench::MakePoiSet(5000, 0xC0);
    f.tree = PackedRTree::Build(f.pois);
    Rng rng(0xC1);
    for (int i = 0; i < 3; ++i) {
      f.users.push_back({rng.Uniform(40000, 60000),
                         rng.Uniform(40000, 60000)});
    }
    TileMsrConfig config;
    config.alpha = static_cast<int>(tiles_per_user);
    const auto result =
        ComputeTileMsr(&f.tree, f.users, Objective::kMax, config);
    f.po = result.po;
    f.po_id = result.po_id;
    for (const auto& r : result.regions) {
      f.regions.push_back(r.is_circle() ? TileRegion(Point{0, 0}, 1.0)
                                        : r.tiles());
      if (f.regions.back().empty()) f.regions.back().Add(GridTile{0, 0, 0});
    }
    const auto top = FindGnn(&f.tree, f.users, Objective::kMax, 64);
    for (size_t i = 1; i < top.size(); ++i) {
      f.candidates.push_back({top[i].id, top[i].p});
    }
    f.probe_tile = f.regions[0].TileRect(GridTile{0, 2, 0});

    // The scan benches below compare the scalar and SoA kernels; assert
    // here, once per fixture, that they agree on every decision and
    // produce identical counters (the bit-identity contract the
    // differential tests enforce engine-wide).
    MaxGtVerifier verifier;
    TileSnapshot snapshot;
    snapshot.Sync(f.regions, f.po);
    const TileLanes lanes = snapshot.Lanes(f.probe_tile);
    VerifyStats scalar_stats, soa_stats;
    for (const Candidate& c : f.candidates) {
      const bool a = verifier.VerifyTileThreadSafe(f.regions, 0, f.probe_tile,
                                                   c, f.po, &scalar_stats);
      const bool b = verifier.VerifyTileLanes(lanes, 0, f.probe_tile, c,
                                              &soa_stats);
      MPN_ASSERT_MSG(a == b, "scalar/SoA kernel decision divergence");
    }
    MPN_ASSERT(scalar_stats.calls == soa_stats.calls &&
               scalar_stats.accepted == soa_stats.accepted);
  }
  return f;
}

void BM_VerifyLemma1(benchmark::State& state) {
  const auto& f = Fixture(8);
  std::vector<SafeRegion> regions;
  for (const auto& r : f.regions) regions.push_back(SafeRegion::MakeTiles(r));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyLemma1(regions, f.po, f.candidates[i++ % f.candidates.size()].p));
  }
}

void BM_GtVerify(benchmark::State& state) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  MaxGtVerifier verifier;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.VerifyTile(
        f.regions, 0, f.probe_tile, f.candidates[i++ % f.candidates.size()],
        f.po));
  }
}

void BM_ItVerify(benchmark::State& state) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  MaxItVerifier verifier(1ull << 40);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.VerifyTile(
        f.regions, 0, f.probe_tile, f.candidates[i++ % f.candidates.size()],
        f.po));
  }
}

// One full candidate scan per iteration — the unit of work Divide-Verify
// pays per probed tile — on the scalar AoS walk. No early exit so both
// scan benches measure the same number of verifications.
void BM_GtVerifyScanScalar(benchmark::State& state) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  MaxGtVerifier verifier;
  VerifyStats stats;
  for (auto _ : state) {
    bool all = true;
    for (const Candidate& c : f.candidates) {
      all &= verifier.VerifyTileThreadSafe(f.regions, 0, f.probe_tile, c,
                                           f.po, &stats);
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.candidates.size()));
}

// The same scan through the batched SoA kernel: one snapshot build (which
// hoists the candidate-independent ||po,t||_max lanes) plus one lane pass
// per candidate. items/sec vs BM_GtVerifyScanScalar is the tentpole's
// >= 2x acceptance ratio.
void BM_GtVerifyScanSoA(benchmark::State& state) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  MaxGtVerifier verifier;
  TileSnapshot snapshot;
  VerifyStats stats;
  for (auto _ : state) {
    snapshot.Invalidate();
    snapshot.Sync(f.regions, f.po);
    const TileLanes lanes = snapshot.Lanes(f.probe_tile);
    bool all = true;
    for (const Candidate& c : f.candidates) {
      all &= verifier.VerifyTileLanes(lanes, 0, f.probe_tile, c, &stats);
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.candidates.size()));
}

void BM_SumHyperbolaVerify(benchmark::State& state) {
  const auto& f = Fixture(static_cast<size_t>(state.range(0)));
  SumHyperbolaVerifier verifier(f.po, f.regions.size());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.VerifyTile(
        f.regions, 0, f.probe_tile, f.candidates[i++ % f.candidates.size()],
        f.po));
  }
}

void BM_MinFocalDiff(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::tuple<Point, Point, Rect>> cases;
  for (int i = 0; i < 256; ++i) {
    const Point lo{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    cases.push_back({{rng.Uniform(-100, 100), rng.Uniform(-100, 100)},
                     {rng.Uniform(-100, 100), rng.Uniform(-100, 100)},
                     Rect(lo, {lo.x + 10, lo.y + 10})});
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b, r] = cases[i++ % cases.size()];
    benchmark::DoNotOptimize(MinFocalDiffOverRect(a, b, r));
  }
}

// GT vs IT at growing region sizes: the Section-5.3 motivation. IT explodes
// combinatorially; GT stays near-linear in the total tile count.
BENCHMARK(BM_GtVerify)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_ItVerify)->Arg(2)->Arg(4)->Arg(8);
// Scalar vs SoA full-scan throughput — compare items/sec at equal Arg.
BENCHMARK(BM_GtVerifyScanScalar)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_GtVerifyScanSoA)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_SumHyperbolaVerify)->Arg(2)->Arg(8)->Arg(16);
BENCHMARK(BM_VerifyLemma1);
BENCHMARK(BM_MinFocalDiff);

}  // namespace
}  // namespace mpn

BENCHMARK_MAIN();
