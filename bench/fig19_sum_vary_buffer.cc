// Fig. 19 (Sum-MPN): effect of buffering parameter b under the SUM
// objective (Theorem 7 thresholds).
#include "bench_common.h"

namespace mpn {
namespace bench {
namespace {

void Run() {
  const BenchEnv env = GetBenchEnv();
  Banner("Fig. 19 — Sum-MPN, vary buffering parameter b", env);
  const auto pois = MakePoiSet(env.n_pois);
  const PackedRTree tree = PackedRTree::Build(pois);
  const TrajectorySet set = MakeGeolifeLike(env, 0x19);

  const SimMetrics ref = RunConfig(
      pois, tree, set, 3, env,
      MakeServerConfig(Method::kTileD, Objective::kSum));

  Table table({"b", "TileD_freq", "TileDb_freq", "TileD_cpu_ms",
               "TileDb_cpu_ms", "TileDb_rtree_nodes_per_update"});
  for (int b : {5, 10, 25, 50, 100, 200}) {
    const SimMetrics buf = RunConfig(
        pois, tree, set, 3, env,
        MakeServerConfig(Method::kTileDBuffered, Objective::kSum, b));
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
  table.Print("Fig. 19 — Tile-D vs Tile-D-b, SUM (" + set.name + ")");
  table.WriteCsv(CsvPath("fig19_sum_buffering.csv"));
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
