// Multi-process cluster demo: groups sharded across forked engine worker
// processes, with the coordinator routing admissions by group id over
// socketpair pipes and aggregating bit-identical results.
//
// Twelve groups of three walkers are served by a 3-worker cluster (each
// worker is a full event-driven Engine over its shard of the groups). The
// run is drained twice — eight groups in the first serving round, four
// more admitted while the workers keep serving — and the aggregated
// digest is then checked against a plain single-process Engine over the
// same groups: bit-identical, the cluster's determinism guarantee.
//
// The second act is the elastic-recovery story: the same workload with a
// worker killed mid-run by deterministic crash injection. The supervisor
// forks a replacement, re-admits the dead shard's groups from the
// coordinator snapshot, and the final digest is still bit-identical —
// supervised recovery is invisible in the results.
//
// The third act turns the hardened transport loose: a drain reply
// corrupted in flight (caught by the frame CRC) and a worker stalled
// mid-reply (caught by the heartbeat miss budget). Both are SIGKILLed,
// recovered by snapshot replay, and the digest is re-checked — still
// bit-identical.
//
// Build & run:  ./examples/cluster_demo
#include <cstdio>

#include "engine/cluster.h"
#include "engine/engine.h"
#include "traj/generators.h"
#include "util/rng.h"

int main() {
  using namespace mpn;

  const size_t kGroups = 12;
  const size_t kUpfront = 8;
  const size_t kGroupSize = 3;
  const size_t kTimestamps = 200;
  const size_t kWorkers = 3;

  // Shared world, built before the fork: the workers inherit the POI set
  // and the R-tree copy-on-write — only trajectories and results cross
  // the process boundary.
  Rng rng(0xC1057E);
  const Rect world({0, 0}, {50000, 50000});
  PoiOptions popt;
  popt.world = world;
  popt.clusters = 20;
  const std::vector<Point> pois = GeneratePois(2500, popt, &rng);
  const PackedRTree tree = PackedRTree::Build(pois);
  RandomWalkGenerator::Options wopt;
  wopt.world = world;
  wopt.mean_speed = 40.0;
  const RandomWalkGenerator gen(wopt);
  const std::vector<Trajectory> trajs = gen.GenerateGroupedFleet(
      kGroups * kGroupSize, kGroupSize, 1000.0, kTimestamps, &rng);
  const auto groups = MakeGroups(trajs, kGroupSize, kGroupSize);

  ClusterOptions opt;
  opt.workers = kWorkers;
  opt.engine.threads = 1;
  opt.engine.sim.server.method = Method::kTileD;

  ClusterEngine cluster(&pois, &tree, opt);
  cluster.Start();
  std::printf("cluster: %zu worker process(es), admissions routed by "
              "group_id %% %zu\n",
              cluster.worker_count(), cluster.worker_count());

  // Serving round 1: eight groups, drained to completion.
  for (size_t g = 0; g < kUpfront; ++g) cluster.AdmitSession(groups[g]);
  cluster.Wait();
  std::printf("round 1: %zu sessions drained, %zu total updates\n",
              cluster.session_count(), cluster.TotalMetrics().updates);

  // Serving round 2: the workers are still up — admit the rest and drain
  // again. One latecomer leaves after 120 timestamps.
  for (size_t g = kUpfront; g < kGroups; ++g) {
    SessionTuning tuning;
    if (g == kGroups - 1) tuning.retire_at = 120;
    cluster.AdmitSession(groups[g], tuning);
  }
  cluster.Shutdown();
  std::printf("round 2: %zu sessions total, %zu updates, %zu packets\n",
              cluster.session_count(), cluster.TotalMetrics().updates,
              cluster.TotalMetrics().comm.TotalPackets());

  // The whole point: the sharded run is bit-identical to one process.
  Engine engine(&pois, &tree, opt.engine);
  for (size_t g = 0; g < kGroups; ++g) {
    SessionTuning tuning;
    if (g == kGroups - 1) tuning.retire_at = 120;
    engine.AdmitSession(groups[g], tuning);
  }
  engine.Start();
  engine.Shutdown();
  const bool match = engine.ResultDigest() == cluster.ResultDigest();
  std::printf("digest: cluster %016llx vs single-process %016llx — %s\n",
              static_cast<unsigned long long>(cluster.ResultDigest()),
              static_cast<unsigned long long>(engine.ResultDigest()),
              match ? "bit-identical" : "MISMATCH");

  // Act two: elastic recovery. Same groups, but worker 1 is killed the
  // moment one of its sessions is about to advance to timestamp 100. The
  // supervisor forks a replacement, replays the shard's admissions from
  // the coordinator snapshot, and the digest must not move.
  ClusterEngine elastic(&pois, &tree, opt);
  elastic.InjectFaultAt(/*shard=*/1, /*at=*/kTimestamps / 2,
                        FaultKind::kCrash);
  for (size_t g = 0; g < kGroups; ++g) {
    SessionTuning tuning;
    if (g == kGroups - 1) tuning.retire_at = 120;
    elastic.AdmitSession(groups[g], tuning);
  }
  elastic.Start();
  elastic.Shutdown();
  const ClusterEngine::RecoveryStats rs = elastic.recovery_stats();
  std::printf("recovery: %zu restart(s), %zu session(s) re-admitted, "
              "%zu frame(s) replayed, %.1f ms\n",
              rs.restarts, rs.sessions_readmitted, rs.frames_replayed,
              rs.recovery_seconds * 1e3);
  const bool recovered_match = elastic.ResultDigest() == engine.ResultDigest();
  std::printf("digest after worker kill: %016llx — %s\n",
              static_cast<unsigned long long>(elastic.ResultDigest()),
              recovered_match ? "bit-identical" : "MISMATCH");

  // Act three: the hardened transport. Same workload again, with two
  // transport faults injected at deterministic frame indices: worker 2's
  // first drain reply is corrupted in flight (the coordinator's CRC32
  // check catches it) and worker 0 stalls mid-reply in the second serving
  // round (the heartbeat miss budget catches that). Both workers are
  // SIGKILLed and recovered by snapshot replay — and the digest still
  // must not move.
  ClusterOptions opt3 = opt;
  opt3.transport.heartbeat_interval_ms = 100;
  opt3.transport.heartbeat_timeout_ms = 500;
  opt3.transport.heartbeat_miss_budget = 3;
  opt3.recovery.max_restarts = 3;
  ClusterEngine hardened(&pois, &tree, opt3);
  // Frame-op indices on a worker's data channel count its recvs and sends
  // together: worker 2 serves groups {2,5,8,11}, so ops 0-1 are the round-1
  // admits and op 3 is its drain-reply send; worker 0 serves {0,3,6,9}, so
  // after three admits, a drain and a round-2 admit its second drain-reply
  // send is op 7.
  hardened.InjectFaultAt(/*shard=*/2, /*at=*/3, FaultKind::kCorrupt);
  hardened.InjectFaultAt(/*shard=*/0, /*at=*/7, FaultKind::kStall);
  hardened.Start();
  for (size_t g = 0; g < kUpfront; ++g) hardened.AdmitSession(groups[g]);
  hardened.Wait();
  for (size_t g = kUpfront; g < kGroups; ++g) {
    SessionTuning tuning;
    if (g == kGroups - 1) tuning.retire_at = 120;
    hardened.AdmitSession(groups[g], tuning);
  }
  hardened.Shutdown();
  const ClusterEngine::RecoveryStats hs = hardened.recovery_stats();
  std::printf("hardened transport: %zu restart(s), "
              "%zu checksum failure(s), %zu heartbeat miss(es), "
              "%zu deadline hit(s), %zu I/O retry(ies)\n",
              hs.restarts, hs.checksum_failures, hs.heartbeat_misses,
              hs.deadline_hits, hs.retries);
  const bool hardened_match = hardened.ResultDigest() == engine.ResultDigest();
  std::printf("digest after corrupt + stalled frames: %016llx — %s\n",
              static_cast<unsigned long long>(hardened.ResultDigest()),
              hardened_match ? "bit-identical" : "MISMATCH");
  const bool faults_seen =
      hs.restarts == 2 && hs.checksum_failures >= 1 && hs.heartbeat_misses >= 3;
  return match && recovered_match && rs.restarts == 1 && hardened_match &&
                 faults_seen
             ? 0
             : 1;
}
