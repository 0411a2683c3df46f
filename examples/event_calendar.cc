// Event-calendar scenario (Fig. 1 of the paper): a group of friends agreed
// to have dinner together; the event service continuously recommends the
// restaurant minimizing the worst member's travel distance and notifies the
// group when the recommendation changes (e.g., someone is stuck in
// traffic).
//
// The example contrasts three server strategies over the same movements:
//   * naive periodic reporting (every user, every timestamp),
//   * circular safe regions,
//   * directed tile-based safe regions,
// and prints the meeting-point changes the calendar would surface.
//
// Build & run:  ./examples/event_calendar
#include <cstdio>

#include "sim/simulator.h"
#include "traj/generators.h"

int main() {
  using namespace mpn;
  const Rect world({0, 0}, {30000, 30000});
  Rng rng(2026);

  // Restaurants: clustered downtown plus scattered suburbs.
  PoiOptions popt;
  popt.world = world;
  popt.clusters = 8;
  popt.cluster_sigma_frac = 0.04;
  popt.background_frac = 0.35;
  const std::vector<Point> restaurants = GeneratePois(2500, popt, &rng);
  const PackedRTree tree = PackedRTree::Build(restaurants);

  // Three friends moving through town (smooth correlated walks starting
  // in different neighborhoods).
  RandomWalkGenerator::Options wopt;
  wopt.world = world;
  wopt.mean_speed = 5.0;  // city driving, one tick per second-ish
  wopt.heading_sigma = 0.08;
  const RandomWalkGenerator walker(wopt);
  const auto fleet = walker.GenerateGroupedFleet(3, 3, 4000.0, 3000, &rng);
  const std::vector<const Trajectory*> friends = {&fleet[0], &fleet[1],
                                                  &fleet[2]};

  std::printf("event: 'Italian food together' — 3 friends, %zu restaurants\n",
              restaurants.size());

  // Naive baseline: every user reports every timestamp (1 packet each) and
  // the server answers each with the result (1 packet each).
  const size_t naive_packets = 3 * 3000 * 2;

  const char* labels[] = {"circle safe regions", "tile-D safe regions"};
  const Method methods[] = {Method::kCircle, Method::kTileD};
  for (int k = 0; k < 2; ++k) {
    SimOptions opt;
    opt.server.method = methods[k];
    opt.server.objective = Objective::kMax;
    opt.server.alpha = 20;
    Simulator sim(&restaurants, &tree, friends, opt);
    const SimMetrics metrics = sim.Run();
    std::printf(
        "\n[%s]\n  notifications to the calendar (recommendation changes): "
        "%zu\n  server contacts: %zu (%.2f%% of timestamps)\n  packets: %zu "
        "(naive periodic: %zu, saving %.1f%%)\n  server compute: %.1f ms "
        "total\n",
        labels[k], metrics.result_changes, metrics.updates,
        100.0 * metrics.UpdateFrequency(), metrics.comm.TotalPackets(),
        naive_packets,
        100.0 * (1.0 - static_cast<double>(metrics.comm.TotalPackets()) /
                           static_cast<double>(naive_packets)),
        metrics.server_seconds * 1e3);
  }
  return 0;
}
