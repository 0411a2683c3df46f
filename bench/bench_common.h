// Shared workload construction for the figure-reproduction benches.
//
// Table 2 defaults: N = 21,287 POIs, group size m = 3, speed limit V, tile
// limit alpha = 30, split level L = 2, buffer b = 100; 60 trajectories of
// 10,000 timestamps split into 10 groups; metrics averaged over groups.
//
// By default the harness runs a scaled-down configuration so that the whole
// bench suite finishes in minutes on one core; set MPN_BENCH_SCALE=full for
// paper-scale runs. The scaling preserves every relative comparison the
// paper makes (it only shortens trajectories and uses fewer groups).
#pragma once

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "index/packed_rtree.h"
#include "sim/simulator.h"
#include "traj/generators.h"
#include "traj/road_network.h"
#include "util/table.h"

namespace mpn {
namespace bench {

/// World frame shared by every workload.
inline const Rect kWorld({0.0, 0.0}, {100000.0, 100000.0});

/// Scaled workload parameters.
struct BenchEnv {
  bool full = false;
  size_t n_pois = 21287;     ///< N (pocketgpsworld size)
  size_t n_trajectories = 60;
  size_t timestamps = 1200;  ///< 10,000 in full mode
  size_t block = 6;          ///< trajectories per group block
  size_t groups = 4;         ///< 10 in full mode
};

/// Reads MPN_BENCH_SCALE (quick | full).
inline BenchEnv GetBenchEnv() {
  BenchEnv env;
  const char* scale = std::getenv("MPN_BENCH_SCALE");
  if (scale != nullptr && std::string(scale) == "full") {
    env.full = true;
    env.timestamps = 10000;
    env.groups = 10;
  }
  return env;
}

/// A named trajectory set.
struct TrajectorySet {
  std::string name;
  std::vector<Trajectory> trajectories;
};

/// "GeoLife"-like smooth-taxi workload (see DESIGN.md substitutions).
inline TrajectorySet MakeGeolifeLike(const BenchEnv& env, uint64_t seed) {
  Rng rng(seed);
  RandomWalkGenerator::Options opt;
  opt.world = kWorld;
  opt.mean_speed = 1.5;
  opt.speed_jitter = 0.25;
  opt.heading_sigma = 0.06;
  opt.dwell_prob = 0.003;
  const RandomWalkGenerator gen(opt);
  // Group members start co-located (2 km spread) as in the paper's per-city
  // trajectory sets.
  return {"GeoLife",
          gen.GenerateGroupedFleet(env.n_trajectories, env.block, 2000.0,
                                   env.timestamps, &rng)};
}

/// "Oldenburg"-like Brinkhoff network workload.
inline TrajectorySet MakeOldenburgLike(const BenchEnv& env, uint64_t seed) {
  Rng rng(seed);
  const RoadNetwork network = RoadNetwork::RandomGrid(
      kWorld, 24, 24, 0.25, 0.12, 0.18, &rng);
  BrinkhoffGenerator::Options opt;
  opt.min_speed = 1.0;
  opt.max_speed = 3.0;
  const BrinkhoffGenerator gen(&network, opt);
  return {"Oldenburg",
          gen.GenerateGroupedFleet(env.n_trajectories, env.block, 2000.0,
                                   env.timestamps, &rng)};
}

/// The synthetic stand-in for the pocketgpsworld POI set.
inline std::vector<Point> MakePoiSet(size_t n, uint64_t seed = 0x901) {
  Rng rng(seed);
  PoiOptions opt;
  opt.world = kWorld;
  opt.clusters = 30;
  opt.cluster_sigma_frac = 0.045;
  opt.background_frac = 0.45;
  return GeneratePois(n, opt, &rng);
}

/// Runs one method over `groups` group blocks of size m and returns merged
/// metrics.
inline SimMetrics RunConfig(const std::vector<Point>& pois,
                            const PackedRTree& tree, const TrajectorySet& set,
                            size_t m, const BenchEnv& env,
                            const ServerConfig& server) {
  auto all_groups = MakeGroups(set.trajectories, m, env.block);
  if (all_groups.size() > env.groups) all_groups.resize(env.groups);
  SimOptions opt;
  opt.server = server;
  return RunGroups(pois, &tree, all_groups, opt);
}

/// ServerConfig for one of the paper's method configurations with Table-2
/// parameters.
inline ServerConfig MakeServerConfig(Method method, Objective obj,
                                     int buffer_b = 100) {
  ServerConfig config;
  config.method = method;
  config.objective = obj;
  config.alpha = 30;
  config.split_level = 2;
  config.buffer_b = buffer_b;
  return config;
}

/// Directory every bench CSV lands in: MPN_BENCH_OUTDIR if set, otherwise
/// ./bench-results (gitignored). Created (including parents) on first use
/// so `./build/bench/fig13` run by hand never litters the repo root with
/// stray fig13_*.csv files again; creation is best-effort — WriteCsv
/// reports the actual I/O failure if the path is unusable.
inline const std::string& OutDir() {
  static const std::string dir = [] {
    const char* env = std::getenv("MPN_BENCH_OUTDIR");
    std::string d = (env != nullptr && *env != '\0') ? env : "bench-results";
    while (d.size() > 1 && d.back() == '/') d.pop_back();
    for (size_t slash = d.find('/', d.front() == '/' ? 1 : 0);;
         slash = d.find('/', slash + 1)) {
      ::mkdir(d.substr(0, slash).c_str(), 0777);
      if (slash == std::string::npos) break;
    }
    return d;
  }();
  return dir;
}

/// Output path for one CSV table ("<outdir>/<name>").
inline std::string CsvPath(const std::string& name) {
  return OutDir() + "/" + name;
}

/// Prints a shared bench banner.
inline void Banner(const std::string& title, const BenchEnv& env) {
  std::printf("%s\n", title.c_str());
  std::printf("scale=%s  N=%zu  timestamps=%zu  groups=%zu "
              "(MPN_BENCH_SCALE=full for paper scale)\n",
              env.full ? "full" : "quick", env.n_pois, env.timestamps,
              env.groups);
}

}  // namespace bench
}  // namespace mpn
