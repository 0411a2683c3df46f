// Location-based game scenario (Tourality, Section 1): a team of players
// races to geographically defined spots. The game server keeps the team
// pointed at the spot minimizing the arrival time of the LAST teammate
// (MAX objective) — and, for a fuel-pooling variant, the spot minimizing
// the team's total travel (SUM objective, Section 6).
//
// Demonstrates the MAX/SUM objectives side by side and the buffering
// optimization under a demanding network-constrained workload.
//
// Build & run:  ./examples/tourality_game
#include <cstdio>

#include "engine/engine.h"
#include "traj/generators.h"
#include "traj/road_network.h"

int main() {
  using namespace mpn;
  const Rect world({0, 0}, {40000, 40000});
  Rng rng(7117);

  // Game spots scattered across the map.
  PoiOptions popt;
  popt.world = world;
  popt.clusters = 15;
  popt.background_frac = 0.5;
  const std::vector<Point> spots = GeneratePois(4000, popt, &rng);
  const PackedRTree tree = PackedRTree::Build(spots);

  // Four players biking through the street network.
  const RoadNetwork streets =
      RoadNetwork::RandomGrid(world, 16, 16, 0.25, 0.15, 0.15, &rng);
  BrinkhoffGenerator::Options bopt;
  bopt.min_speed = 5.0;
  bopt.max_speed = 10.0;
  const BrinkhoffGenerator biker(&streets, bopt);
  const auto fleet = biker.GenerateGroupedFleet(4, 4, 3000.0, 2500, &rng);
  const std::vector<const Trajectory*> team = {&fleet[0], &fleet[1],
                                               &fleet[2], &fleet[3]};

  std::printf("Tourality: team of 4, %zu spots, %zu street nodes\n",
              spots.size(), streets.NodeCount());

  struct Mode {
    Objective obj;
    Method method;
    const char* label;
  };
  const Mode modes[] = {
      {Objective::kMax, Method::kTileD, "race mode (MAX, Tile-D)"},
      {Objective::kMax, Method::kTileDBuffered,
       "race mode (MAX, Tile-D-b, b=50)"},
      {Objective::kSum, Method::kTileD, "fuel-pool mode (SUM, Tile-D)"},
      {Objective::kSum, Method::kTileDBuffered,
       "fuel-pool mode (SUM, Tile-D-b, b=50)"},
  };
  for (const Mode& mode : modes) {
    // One session on a one-thread engine per game mode.
    EngineOptions opt;
    opt.threads = 1;
    opt.sim.server.method = mode.method;
    opt.sim.server.objective = mode.obj;
    opt.sim.server.alpha = 20;
    opt.sim.server.buffer_b = 50;
    Engine engine(&spots, &tree, opt);
    engine.AdmitSession(team);
    engine.Start();
    engine.Shutdown();
    const SimMetrics metrics = engine.TotalMetrics();
    std::printf(
        "\n[%s]\n  target-spot changes: %zu  server contacts: %zu\n"
        "  packets: %zu  compute/update: %.3f ms  R-tree nodes/update: "
        "%.1f\n",
        mode.label, metrics.result_changes, metrics.updates,
        metrics.comm.TotalPackets(), metrics.AvgComputeMsPerUpdate(),
        metrics.updates == 0
            ? 0.0
            : static_cast<double>(metrics.msr.rtree_node_accesses) /
                  static_cast<double>(metrics.updates));
  }
  return 0;
}
