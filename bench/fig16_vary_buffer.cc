// Fig. 16 (MPN): effect of the buffering parameter b. Tile-D-b's update
// frequency converges to Tile-D's as b grows (safe to pick b in [10, 100]),
// and it touches only a handful of R-tree nodes per update (one b+1 GNN
// fetch). Its CPU saving over Tile-D is small in this reproduction: Tile-D
// walks the index once per level-0 tile and serves the sub-tiles from that
// walk (mpn/candidates.h), so Tile-D-b's edge shrinks as b grows. At quick
// scale on a 4-vCPU Xeon, Tile-D-b cost 0.4x Tile-D's CPU per update at
// b = 5-10 and 0.9x at b = 100-200.
#include "bench_common.h"

namespace mpn {
namespace bench {
namespace {

void Run() {
  const BenchEnv env = GetBenchEnv();
  Banner("Fig. 16 — MPN, vary buffering parameter b", env);
  const auto pois = MakePoiSet(env.n_pois);
  const PackedRTree tree = PackedRTree::Build(pois);
  const TrajectorySet set = MakeGeolifeLike(env, 0x16);

  // Reference: Tile-D without buffering.
  const SimMetrics ref = RunConfig(
      pois, tree, set, 3, env,
      MakeServerConfig(Method::kTileD, Objective::kMax));

  Table table({"b", "TileD_freq", "TileDb_freq", "TileD_cpu_ms",
               "TileDb_cpu_ms", "TileDb_rtree_nodes_per_update"});
  for (int b : {5, 10, 25, 50, 100, 200}) {
    const SimMetrics buf = RunConfig(
        pois, tree, set, 3, env,
        MakeServerConfig(Method::kTileDBuffered, Objective::kMax, b));
    table.AddRow({std::to_string(b),
                  FormatDouble(ref.UpdateFrequency(), 4),
                  FormatDouble(buf.UpdateFrequency(), 4),
                  FormatDouble(ref.AvgComputeMsPerUpdate(), 3),
                  FormatDouble(buf.AvgComputeMsPerUpdate(), 3),
                  FormatDouble(buf.updates == 0
                                   ? 0.0
                                   : static_cast<double>(
                                         buf.msr.rtree_node_accesses) /
                                         static_cast<double>(buf.updates),
                               1)});
  }
  table.Print("Fig. 16 — Tile-D vs Tile-D-b (" + set.name + ")");
  table.WriteCsv(CsvPath("fig16_buffering.csv"));
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
