// Multi-group engine demo: one server process keeping many independent
// meetup groups' safe regions fresh at the same time, with groups joining
// and leaving mid-run.
//
// Twelve groups of three walkers share a POI index; the event-driven
// scheduler advances every session on its own virtual clock, recomputes
// safe regions asynchronously for the sessions whose users left their
// regions, and four more groups are admitted while the engine is already
// draining (one of them retires halfway). The run is bit-deterministic:
// repeat it with any thread count and every per-group counter comes out
// identical.
//
// Build & run:  ./examples/multi_group
#include <cstdio>

#include "engine/engine.h"
#include "traj/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

int main() {
  using namespace mpn;

  const size_t kGroups = 16;
  const size_t kUpfront = 12;
  const size_t kGroupSize = 3;
  const size_t kTimestamps = 300;

  // Shared world: clustered POIs under an R-tree, co-located user groups.
  Rng rng(0x3117);
  const Rect world({0, 0}, {50000, 50000});
  PoiOptions popt;
  popt.world = world;
  popt.clusters = 20;
  const std::vector<Point> pois = GeneratePois(5000, popt, &rng);
  const PackedRTree tree = PackedRTree::Build(pois);
  RandomWalkGenerator::Options wopt;
  wopt.world = world;
  wopt.mean_speed = 40.0;
  const RandomWalkGenerator gen(wopt);
  const std::vector<Trajectory> trajs = gen.GenerateGroupedFleet(
      kGroups * kGroupSize, kGroupSize, 1000.0, kTimestamps, &rng);

  // The engine: Tile-D safe regions and as many workers as the machine
  // offers; each recomputation runs on one of them.
  EngineOptions opt;
  opt.threads = 0;  // hardware concurrency
  opt.sim.server.method = Method::kTileD;
  Engine engine(&pois, &tree, opt);
  const auto groups = MakeGroups(trajs, kGroupSize, kGroupSize);
  for (size_t g = 0; g < kUpfront; ++g) engine.AdmitSession(groups[g]);

  std::printf("engine: %zu sessions x %zu users, %zu worker thread(s)\n",
              engine.session_count(), kGroupSize, engine.thread_count());

  // Mid-run churn: hold the drain open, start the engine, then admit the
  // remaining groups while the first twelve are already moving. One of
  // the latecomers only stays for 150 timestamps.
  Engine::Hold hold = engine.AcquireHold();
  engine.Start();
  for (size_t g = kUpfront; g < kGroups; ++g) {
    SessionTuning tuning;
    if (g == kUpfront) tuning.retire_at = kTimestamps / 2;
    engine.AdmitSession(groups[g], tuning);
  }
  std::printf("admitted %zu more mid-run (session %zu retires at t=%zu)\n",
              kGroups - kUpfront, kUpfront, kTimestamps / 2);
  hold.Reset();
  engine.Wait();

  // Per-timestamp aggregates from the event-driven scheduler.
  engine.round_stats().ToTable().Print("per-round engine stats");

  // A few per-session results: update counts differ per group (different
  // trajectories), but every number is reproducible bit-for-bit.
  std::printf("\n%-8s %-10s %-10s %-10s %-10s\n", "group", "rounds",
              "updates", "packets", "meeting@");
  for (uint32_t id : {0u, 1u, static_cast<uint32_t>(kUpfront),
                      static_cast<uint32_t>(kGroups - 1)}) {
    engine.WithSessionResult(id, [id](const SessionFinalResult& fr) {
      const SimMetrics& m = fr.metrics;
      std::printf("%-8u %-10zu %-10zu %-10zu poi #%u\n", id, m.timestamps,
                  m.updates, m.comm.TotalPackets(), fr.po);
    });
  }
  const SimMetrics total = engine.TotalMetrics();
  std::printf("\ntotal: %zu updates over %zu group-rounds "
              "(update frequency %.4f), digest %016llx\n",
              total.updates, total.timestamps, total.UpdateFrequency(),
              static_cast<unsigned long long>(engine.ResultDigest()));
  return 0;
}
