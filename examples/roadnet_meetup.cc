// Road-network meetup (the paper's Section-8 extension, implemented):
// commuters on a city street network want the rendezvous point (by network
// distance) monitored continuously. Safe regions are metric balls over
// road segments — "a range search region over road segments", as the paper
// sketches for future work.
//
// Build & run:  ./examples/roadnet_meetup
#include <cstdio>

#include "netmpn/network_mpn.h"

int main() {
  using namespace mpn;
  const Rect world({0, 0}, {20000, 20000});
  Rng rng(808);
  const RoadNetwork streets =
      RoadNetwork::RandomGrid(world, 14, 14, 0.25, 0.12, 0.15, &rng);
  // Preprocess the street network once into a Contraction Hierarchies
  // index; every shortest-path query below then runs through it (with
  // results bit-identical to plain Dijkstra).
  const CHIndex ch = streets.BuildCHIndex();
  NetworkSpace space(&streets);
  space.AttachIndex(&ch);
  std::printf("street network: %zu nodes, %zu edges (+%zu CH shortcuts)\n",
              streets.NodeCount(), space.EdgeCount(), ch.ShortcutCount());

  // Cafes scattered along the streets.
  std::vector<EdgePosition> cafes;
  for (int i = 0; i < 300; ++i) cafes.push_back(RandomEdgePosition(space, &rng));
  const NetworkMpn engine(&space, cafes);

  // Three commuters driving shortest-path routes.
  std::vector<NetworkTrajectory> trajs;
  for (int i = 0; i < 3; ++i) {
    trajs.push_back(GenerateNetworkTrajectory(space, streets, 18.0, 2000, &rng));
  }
  const std::vector<const NetworkTrajectory*> group = {&trajs[0], &trajs[1],
                                                       &trajs[2]};

  // One snapshot computation, to show what a safe region looks like.
  std::vector<EdgePosition> now = {trajs[0].positions[0],
                                   trajs[1].positions[0],
                                   trajs[2].positions[0]};
  const NetworkMpnResult snap = engine.Compute(now, Objective::kMax);
  std::printf(
      "rendezvous cafe #%u (worst commuter drives %.0f m); runner-up at "
      "%.0f m\n",
      snap.po_index, snap.po_agg, snap.second_agg);
  std::printf("metric-ball safe regions (radius %.0f m):\n", snap.rmax);
  for (size_t i = 0; i < snap.regions.size(); ++i) {
    std::printf("  commuter %zu: %zu road segments, %.0f m of road covered\n",
                i, snap.regions[i].SegmentCount(),
                snap.regions[i].TotalLength());
  }

  // Continuous monitoring for both objectives.
  for (Objective obj : {Objective::kMax, Objective::kSum}) {
    const NetworkSimMetrics metrics = SimulateNetworkMpn(engine, group, obj);
    std::printf(
        "\n[%s objective] %zu timestamps: %zu server contacts (%.2f%%), "
        "%zu rendezvous changes, %zu region values shipped\n",
        ObjectiveName(obj), metrics.timestamps, metrics.updates,
        100.0 * metrics.UpdateFrequency(), metrics.result_changes,
        metrics.region_values);
  }
  return 0;
}
