// Ablation harness for the design choices DESIGN.md calls out:
//   A. Theorem-3 index pruning on/off (candidate counts, CPU),
//   B. GT-Verify vs exhaustive IT-Verify inside the full engine,
//   C. directed-ordering cone width (theta sweep),
//   D. compressed vs raw tile-region shipping (values, packets).
#include <cstdio>

#include "bench_common.h"
#include "mpn/compress.h"
#include "mpn/tile_msr.h"
#include "util/timer.h"

namespace mpn {
namespace bench {
namespace {

struct Probe {
  std::vector<Point> users;
  std::vector<MotionHint> hints;
};

std::vector<Probe> MakeProbes(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Probe> probes;
  for (int i = 0; i < count; ++i) {
    Probe p;
    const Point center{rng.Uniform(20000, 80000), rng.Uniform(20000, 80000)};
    for (int j = 0; j < 3; ++j) {
      p.users.push_back({center.x + rng.Uniform(-2000, 2000),
                         center.y + rng.Uniform(-2000, 2000)});
      MotionHint h;
      h.has_heading = true;
      h.heading = rng.Uniform(-3.14, 3.14);
      h.theta = 0.5;
      p.hints.push_back(h);
    }
    probes.push_back(std::move(p));
  }
  return probes;
}

struct RunOut {
  double ms_per_call = 0.0;
  double tiles_added = 0.0;
  double candidates_per_retrieval = 0.0;
  double verify_calls = 0.0;
  double region_values_compressed = 0.0;
  double region_values_raw = 0.0;
};

RunOut RunEngine(const PackedRTree& tree, const std::vector<Probe>& probes,
                 const TileMsrConfig& config) {
  RunOut out;
  Timer timer;
  MsrStats total;
  for (const Probe& p : probes) {
    const MsrResult r =
        ComputeTileMsr(&tree, p.users, Objective::kMax, config, p.hints);
    total.tiles_added += r.stats.tiles_added;
    total.verify.calls += r.stats.verify.calls;
    total.candidates.retrievals += r.stats.candidates.retrievals;
    total.candidates.candidates_total += r.stats.candidates.candidates_total;
    for (const SafeRegion& region : r.regions) {
      if (region.is_circle()) continue;
      out.region_values_compressed +=
          static_cast<double>(EncodeTileRegion(region.tiles()).ValueCount());
      out.region_values_raw +=
          static_cast<double>(RawTileValueCount(region.tiles()));
    }
  }
  const double n = static_cast<double>(probes.size());
  out.ms_per_call = timer.ElapsedMillis() / n;
  out.tiles_added = static_cast<double>(total.tiles_added) / n;
  out.verify_calls = static_cast<double>(total.verify.calls) / n;
  out.candidates_per_retrieval =
      static_cast<double>(total.candidates.candidates_total) /
      static_cast<double>(std::max<uint64_t>(1, total.candidates.retrievals));
  out.region_values_compressed /= n;
  out.region_values_raw /= n;
  return out;
}

void Run() {
  const BenchEnv env = GetBenchEnv();
  Banner("Ablations — pruning, GT vs IT, cone width, compression", env);
  const auto pois = MakePoiSet(env.n_pois);
  const PackedRTree tree = PackedRTree::Build(pois);
  const auto probes = MakeProbes(env.full ? 48 : 16, 0xAB1);

  // A. Theorem-3 pruning.
  {
    TileMsrConfig on;
    on.alpha = 10;
    TileMsrConfig off = on;
    off.index_pruning = false;
    const RunOut a = RunEngine(tree, probes, on);
    const RunOut b = RunEngine(tree, probes, off);
    Table t({"pruning", "ms/computation", "cands/retrieval", "tiles"});
    t.AddRow({"Theorem-3", FormatDouble(a.ms_per_call, 3),
              FormatDouble(a.candidates_per_retrieval, 1),
              FormatDouble(a.tiles_added, 1)});
    t.AddRow({"full-scan", FormatDouble(b.ms_per_call, 3),
              FormatDouble(b.candidates_per_retrieval, 1),
              FormatDouble(b.tiles_added, 1)});
    t.Print("A. index pruning (Theorem 3)");
    t.WriteCsv(CsvPath("ablation_pruning.csv"));
  }

  // B. GT vs IT verification inside the engine. IT's tile-group count is
  // the product of the other users' region sizes, so its cost blows up as
  // regions grow with alpha (Section 5.3's motivation for GT).
  {
    Table t({"alpha", "GT ms", "IT ms", "GT tiles", "IT tiles"});
    for (int alpha : {4, 10, 20}) {
      TileMsrConfig gt;
      gt.alpha = alpha;
      gt.split_level = 1;
      TileMsrConfig it = gt;
      it.verifier = VerifierKind::kIt;
      const RunOut a = RunEngine(tree, probes, gt);
      const RunOut b = RunEngine(tree, probes, it);
      t.AddRow({std::to_string(alpha), FormatDouble(a.ms_per_call, 3),
                FormatDouble(b.ms_per_call, 3), FormatDouble(a.tiles_added, 1),
                FormatDouble(b.tiles_added, 1)});
    }
    t.Print("B. GT-Verify vs exhaustive IT-Verify");
    t.WriteCsv(CsvPath("ablation_verify.csv"));
  }

  // C. Directed cone width.
  {
    Table t({"theta_deg", "ms/computation", "tiles", "values(comp)"});
    for (double deg : {15.0, 30.0, 60.0, 120.0, 180.0}) {
      TileMsrConfig c;
      c.alpha = 20;
      c.directed = true;
      auto tuned = probes;
      for (auto& p : tuned) {
        for (auto& h : p.hints) h.theta = deg * 3.14159265358979 / 180.0;
      }
      const RunOut r = RunEngine(tree, tuned, c);
      t.AddRow({FormatDouble(deg, 0), FormatDouble(r.ms_per_call, 3),
                FormatDouble(r.tiles_added, 1),
                FormatDouble(r.region_values_compressed, 1)});
    }
    t.Print("C. directed ordering cone width");
    t.WriteCsv(CsvPath("ablation_theta.csv"));
  }

  // D. Compression.
  {
    TileMsrConfig c;
    c.alpha = 30;
    const RunOut r = RunEngine(tree, probes, c);
    const PacketModel model;
    Table t({"encoding", "values/region", "packets/region"});
    t.AddRow({"raw (3/square)", FormatDouble(r.region_values_raw / 3.0, 1),
              FormatDouble(
                  static_cast<double>(model.PacketsForValues(
                      static_cast<size_t>(r.region_values_raw / 3.0))),
                  0)});
    t.AddRow({"bitmap codec",
              FormatDouble(r.region_values_compressed / 3.0, 1),
              FormatDouble(
                  static_cast<double>(model.PacketsForValues(
                      static_cast<size_t>(r.region_values_compressed / 3.0))),
                  0)});
    t.Print("D. tile-region shipping cost (per region, alpha=30)");
    t.WriteCsv(CsvPath("ablation_compression.csv"));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
