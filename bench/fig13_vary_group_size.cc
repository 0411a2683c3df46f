// Fig. 13 (MPN): vary the user group size m in {2..6} on GeoLife-like and
// Oldenburg-like trajectories; report update frequency (a,b), communication
// cost in packets (c,d), and safe-region computation time per update (e,f)
// for Circle, Tile and Tile-D.
#include <cstdio>

#include "bench_common.h"

namespace mpn {
namespace bench {
namespace {

void Run() {
  const BenchEnv env = GetBenchEnv();
  Banner("Fig. 13 — MPN, vary group size m", env);
  const auto pois = MakePoiSet(env.n_pois);
  const PackedRTree tree = PackedRTree::Build(pois);
  const Method methods[] = {Method::kCircle, Method::kTile, Method::kTileD};

  for (const auto& maker : {&MakeGeolifeLike, &MakeOldenburgLike}) {
    const TrajectorySet set = maker(env, 0x13);
    Table freq({"m", "Circle", "Tile", "Tile-D"});
    Table packets({"m", "Circle", "Tile", "Tile-D"});
    Table cpu_ms({"m", "Circle", "Tile", "Tile-D"});
    for (size_t m = 2; m <= 6; ++m) {
      std::vector<std::string> frow{std::to_string(m)};
      std::vector<std::string> prow{std::to_string(m)};
      std::vector<std::string> crow{std::to_string(m)};
      for (Method method : methods) {
        const SimMetrics metrics = RunConfig(
            pois, tree, set, m, env,
            MakeServerConfig(method, Objective::kMax));
        frow.push_back(FormatDouble(metrics.UpdateFrequency(), 4));
        prow.push_back(FormatDouble(
            static_cast<double>(metrics.comm.TotalPackets()) /
                static_cast<double>(env.groups),
            1));
        crow.push_back(FormatDouble(metrics.AvgComputeMsPerUpdate(), 3));
      }
      freq.AddRow(frow);
      packets.AddRow(prow);
      cpu_ms.AddRow(crow);
    }
    freq.Print("Fig. 13 " + set.name + " — update frequency (updates/ts)");
    freq.WriteCsv(CsvPath("fig13_" + set.name + "_freq.csv"));
    packets.Print("Fig. 13 " + set.name + " — packets per group");
    packets.WriteCsv(CsvPath("fig13_" + set.name + "_packets.csv"));
    cpu_ms.Print("Fig. 13 " + set.name + " — CPU ms per update");
    cpu_ms.WriteCsv(CsvPath("fig13_" + set.name + "_cpu.csv"));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
