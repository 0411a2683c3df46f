// Fig. 14 (MPN): vary the POI count n in {0.25, 0.5, 0.75, 1.0} * N on both
// trajectory sets; report update frequency (communication cost is
// proportional, Section 7.2) for Circle, Tile, Tile-D.
#include "bench_common.h"

namespace mpn {
namespace bench {
namespace {

void Run() {
  const BenchEnv env = GetBenchEnv();
  Banner("Fig. 14 — MPN, vary POI count n", env);
  const auto full_pois = MakePoiSet(env.n_pois);
  const Method methods[] = {Method::kCircle, Method::kTile, Method::kTileD};
  const double fractions[] = {0.25, 0.5, 0.75, 1.0};

  for (const auto& maker : {&MakeGeolifeLike, &MakeOldenburgLike}) {
    const TrajectorySet set = maker(env, 0x14);
    Table freq({"n/N", "Circle", "Tile", "Tile-D"});
    Table packets({"n/N", "Circle", "Tile", "Tile-D"});
    for (double frac : fractions) {
      const size_t n = static_cast<size_t>(frac * full_pois.size());
      // Prefix subset: the generator emits i.i.d. points, so a prefix is an
      // unbiased smaller sample of the same distribution.
      const std::vector<Point> pois(full_pois.begin(),
                                    full_pois.begin() + n);
      const PackedRTree tree = PackedRTree::Build(pois);
      std::vector<std::string> frow{FormatDouble(frac, 2)};
      std::vector<std::string> prow{FormatDouble(frac, 2)};
      for (Method method : methods) {
        const SimMetrics metrics = RunConfig(
            pois, tree, set, 3, env, MakeServerConfig(method, Objective::kMax));
        frow.push_back(FormatDouble(metrics.UpdateFrequency(), 4));
        prow.push_back(FormatDouble(
            static_cast<double>(metrics.comm.TotalPackets()) /
                static_cast<double>(env.groups),
            1));
      }
      freq.AddRow(frow);
      packets.AddRow(prow);
    }
    freq.Print("Fig. 14 " + set.name + " — update frequency (updates/ts)");
    freq.WriteCsv(CsvPath("fig14_" + set.name + "_freq.csv"));
    packets.Print("Fig. 14 " + set.name + " — packets per group");
    packets.WriteCsv(CsvPath("fig14_" + set.name + "_packets.csv"));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
