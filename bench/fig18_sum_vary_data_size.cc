// Fig. 18 (Sum-MPN): vary POI count n in {0.25..1.0} * N under the SUM
// objective; tile-based methods should degrade more slowly than Circle.
#include "bench_common.h"

namespace mpn {
namespace bench {
namespace {

void Run() {
  const BenchEnv env = GetBenchEnv();
  Banner("Fig. 18 — Sum-MPN, vary POI count n", env);
  const auto full_pois = MakePoiSet(env.n_pois);
  const Method methods[] = {Method::kCircle, Method::kTile, Method::kTileD};

  for (const auto& maker : {&MakeGeolifeLike, &MakeOldenburgLike}) {
    const TrajectorySet set = maker(env, 0x18);
    Table freq({"n/N", "Circle", "Tile", "Tile-D"});
    Table packets({"n/N", "Circle", "Tile", "Tile-D"});
    for (double frac : {0.25, 0.5, 0.75, 1.0}) {
      const size_t n = static_cast<size_t>(frac * full_pois.size());
      const std::vector<Point> pois(full_pois.begin(), full_pois.begin() + n);
      const PackedRTree tree = PackedRTree::Build(pois);
      std::vector<std::string> frow{FormatDouble(frac, 2)};
      std::vector<std::string> prow{FormatDouble(frac, 2)};
      for (Method method : methods) {
        const SimMetrics metrics = RunConfig(
            pois, tree, set, 3, env, MakeServerConfig(method, Objective::kSum));
        frow.push_back(FormatDouble(metrics.UpdateFrequency(), 4));
        prow.push_back(FormatDouble(
            static_cast<double>(metrics.comm.TotalPackets()) /
                static_cast<double>(env.groups),
            1));
      }
      freq.AddRow(frow);
      packets.AddRow(prow);
    }
    freq.Print("Fig. 18 " + set.name + " — update frequency (updates/ts)");
    freq.WriteCsv(CsvPath("fig18_" + set.name + "_freq.csv"));
    packets.Print("Fig. 18 " + set.name + " — packets per group");
    packets.WriteCsv(CsvPath("fig18_" + set.name + "_packets.csv"));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
