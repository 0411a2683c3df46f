// Fig. 15 (MPN): vary user speed in {0.25, 0.5, 0.75, 1.0} * V using the
// paper's resampling protocol (prefix of the path, uniformly resampled);
// report update frequency and communication cost.
#include "bench_common.h"

namespace mpn {
namespace bench {
namespace {

TrajectorySet Rescaled(const TrajectorySet& set, double x) {
  TrajectorySet out;
  out.name = set.name;
  out.trajectories.reserve(set.trajectories.size());
  for (const Trajectory& t : set.trajectories) {
    out.trajectories.push_back(RescaleSpeed(t, x, t.size()));
  }
  return out;
}

void Run() {
  const BenchEnv env = GetBenchEnv();
  Banner("Fig. 15 — MPN, vary user speed", env);
  const auto pois = MakePoiSet(env.n_pois);
  const PackedRTree tree = PackedRTree::Build(pois);
  const Method methods[] = {Method::kCircle, Method::kTile, Method::kTileD};

  for (const auto& maker : {&MakeGeolifeLike, &MakeOldenburgLike}) {
    const TrajectorySet base = maker(env, 0x15);
    Table freq({"speed/V", "Circle", "Tile", "Tile-D"});
    Table packets({"speed/V", "Circle", "Tile", "Tile-D"});
    for (double x : {0.25, 0.5, 0.75, 1.0}) {
      const TrajectorySet set = Rescaled(base, x);
      std::vector<std::string> frow{FormatDouble(x, 2)};
      std::vector<std::string> prow{FormatDouble(x, 2)};
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
    freq.Print("Fig. 15 " + base.name + " — update frequency (updates/ts)");
    freq.WriteCsv(CsvPath("fig15_" + base.name + "_freq.csv"));
    packets.Print("Fig. 15 " + base.name + " — packets per group");
    packets.WriteCsv(CsvPath("fig15_" + base.name + "_packets.csv"));
  }
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
