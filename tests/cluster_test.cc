// Cluster-layer tests (ctest label `cluster`): multi-process digest
// bit-identity against the single-process engine for any shard count,
// serving-loop drains across admission waves, cluster-level round-stat
// aggregation, mailbox-mark shipping, and the death/robustness paths
// (worker killed mid-run, double Start, admit after Shutdown).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/engine.h"
#include "traj/generators.h"
#include "util/rng.h"

namespace mpn {
namespace {

const Rect kWorld({0, 0}, {20000, 20000});

struct World {
  std::vector<Point> pois;
  PackedRTree tree;
  std::vector<Trajectory> trajs;
};

World MakeWorld(size_t n_pois, size_t n_groups, size_t timestamps,
                uint64_t seed) {
  World w;
  Rng rng(seed);
  PoiOptions popt;
  popt.world = kWorld;
  popt.clusters = 12;
  w.pois = GeneratePois(n_pois, popt, &rng);
  w.tree = PackedRTree::Build(w.pois);
  RandomWalkGenerator::Options wopt;
  wopt.world = kWorld;
  wopt.mean_speed = 60.0;
  const RandomWalkGenerator gen(wopt);
  w.trajs = gen.GenerateGroupedFleet(n_groups * 3, 3, 500.0, timestamps, &rng);
  return w;
}

EngineOptions MakeEngineOptions(size_t threads) {
  EngineOptions opt;
  opt.threads = threads;
  opt.sim.server.method = Method::kTileD;
  opt.sim.server.alpha = 10;
  return opt;
}

std::vector<const Trajectory*> GroupOf(const World& w, size_t g) {
  return {&w.trajs[3 * g], &w.trajs[3 * g + 1], &w.trajs[3 * g + 2]};
}

ClusterOptions MakeClusterOptions(size_t workers, size_t threads) {
  ClusterOptions opt;
  opt.workers = workers;
  opt.engine = MakeEngineOptions(threads);
  return opt;
}

TEST(ClusterTest, DigestBitIdenticalToSingleProcessForAnyShardCount) {
  const size_t kGroups = 8;
  const World w = MakeWorld(300, kGroups, 120, 0xC1057E);

  // Single-process reference (destroyed before the first fork so no
  // thread-pool workers are alive when the cluster forks).
  uint64_t ref_digest = 0;
  SimMetrics ref_total;
  std::vector<SimMetrics> ref_sessions;
  double ref_messages_sum = 0.0, ref_recomputes_sum = 0.0;
  size_t ref_rounds = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    for (size_t g = 0; g < kGroups; ++g) engine.AdmitSession(GroupOf(w, g));
    engine.Run();
    ref_digest = engine.ResultDigest();
    ref_total = engine.TotalMetrics();
    for (uint32_t g = 0; g < kGroups; ++g) {
      ref_sessions.push_back(engine.session_metrics(g));
    }
    ref_messages_sum = engine.round_stats().messages_per_round.Sum();
    ref_recomputes_sum = engine.round_stats().recomputes_per_round.Sum();
    ref_rounds = engine.round_stats().rounds;
  }

  for (size_t workers : {1u, 2u, 4u}) {
    ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(workers, 2));
    for (size_t g = 0; g < kGroups; ++g) {
      cluster.AdmitSession(GroupOf(w, g));
    }
    cluster.Run();
    EXPECT_EQ(cluster.ResultDigest(), ref_digest)
        << "cluster digest diverged at " << workers << " worker(s)";
    EXPECT_EQ(cluster.session_count(), kGroups);
    const SimMetrics total = cluster.TotalMetrics();
    EXPECT_EQ(total.timestamps, ref_total.timestamps);
    EXPECT_EQ(total.updates, ref_total.updates);
    EXPECT_EQ(total.comm.TotalPackets(), ref_total.comm.TotalPackets());
    EXPECT_EQ(total.msr.tiles_added, ref_total.msr.tiles_added);
    for (uint32_t g = 0; g < kGroups; ++g) {
      EXPECT_EQ(cluster.session_metrics(g).updates, ref_sessions[g].updates)
          << "group " << g;
      EXPECT_EQ(cluster.session_metrics(g).comm.TotalPackets(),
                ref_sessions[g].comm.TotalPackets());
    }
    // Cluster round-stat counters re-aggregate to the same per-timestamp
    // totals the single process computed.
    EXPECT_EQ(cluster.round_stats().rounds, ref_rounds);
    EXPECT_EQ(cluster.round_stats().messages_per_round.Sum(),
              ref_messages_sum);
    EXPECT_EQ(cluster.round_stats().recomputes_per_round.Sum(),
              ref_recomputes_sum);
  }
}

TEST(ClusterTest, ServingLoopDrainsAcrossAdmissionWaves) {
  const size_t kGroups = 6;
  const World w = MakeWorld(250, kGroups, 100, 0xC1057F);
  SessionTuning early;
  early.retire_at = 40;
  SessionTuning tiny;
  tiny.mailbox_capacity = 1;

  uint64_t ref_digest = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
    for (size_t g = 0; g < kGroups; ++g) {
      engine.AdmitSession(GroupOf(w, g), g == 4 ? early
                                        : g == 5 ? tiny
                                                 : SessionTuning());
    }
    engine.Run();
    ref_digest = engine.ResultDigest();
  }

  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
  cluster.Start();
  // Wave 1: three groups, drained to completion.
  for (size_t g = 0; g < 3; ++g) cluster.AdmitSession(GroupOf(w, g));
  cluster.Wait();
  EXPECT_EQ(cluster.session_count(), 3u);
  for (uint32_t g = 0; g < 3; ++g) {
    EXPECT_EQ(cluster.session_metrics(g).timestamps, 100u);
    EXPECT_GT(cluster.session_metrics(g).updates, 0u);
  }
  // Wave 2: the workers are still serving — admit three more (one retiring
  // early, one on a capacity-1 mailbox) and drain again.
  cluster.AdmitSession(GroupOf(w, 3));
  cluster.AdmitSession(GroupOf(w, 4), early);
  cluster.AdmitSession(GroupOf(w, 5), tiny);
  cluster.Wait();
  EXPECT_EQ(cluster.session_count(), kGroups);
  EXPECT_EQ(cluster.session_metrics(4).timestamps, 40u);
  EXPECT_EQ(cluster.ResultDigest(), ref_digest);
  cluster.Shutdown();
  EXPECT_EQ(cluster.ResultDigest(), ref_digest);  // frozen, still valid
}

TEST(ClusterTest, PreStartRetirementsRouteDeterministically) {
  const size_t kGroups = 5;
  const World w = MakeWorld(250, kGroups, 90, 0xC10580);
  SessionTuning zero;
  zero.retire_at = 0;

  uint64_t ref_digest = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
    for (size_t g = 0; g < kGroups; ++g) {
      engine.AdmitSession(GroupOf(w, g), g == 2 ? zero : SessionTuning());
    }
    engine.RetireSession(1, 30);
    engine.Run();
    ref_digest = engine.ResultDigest();
  }

  for (size_t workers : {2u, 3u}) {
    ClusterEngine cluster(&w.pois, &w.tree,
                          MakeClusterOptions(workers, 1));
    for (size_t g = 0; g < kGroups; ++g) {
      cluster.AdmitSession(GroupOf(w, g), g == 2 ? zero : SessionTuning());
    }
    cluster.RetireSession(1, 30);  // queued pre-start, flushed in order
    cluster.Run();
    EXPECT_EQ(cluster.session_metrics(1).timestamps, 30u);
    EXPECT_EQ(cluster.session_metrics(2).timestamps, 0u);
    EXPECT_FALSE(cluster.session_has_result(2));
    EXPECT_EQ(cluster.ResultDigest(), ref_digest)
        << "digest diverged at " << workers << " worker(s)";
  }
}

TEST(ClusterTest, ShipsDeterministicCapacityZeroStallCounts) {
  // mailbox_capacity = 0 stalls on every non-final recomputation, a
  // deterministic count — the cluster must ship exactly the number the
  // single process reports (peaks stay 0: nothing can be buffered).
  const World w = MakeWorld(200, 2, 80, 0xC10581);
  SessionTuning unbuffered;
  unbuffered.mailbox_capacity = 0;

  std::vector<size_t> ref_stalls;
  uint64_t ref_digest = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    engine.AdmitSession(GroupOf(w, 0), unbuffered);
    engine.AdmitSession(GroupOf(w, 1), unbuffered);
    engine.Run();
    ref_digest = engine.ResultDigest();
    ref_stalls = {engine.session_stall_count(0),
                  engine.session_stall_count(1)};
    EXPECT_GT(ref_stalls[0], 0u);
  }

  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
  cluster.AdmitSession(GroupOf(w, 0), unbuffered);
  cluster.AdmitSession(GroupOf(w, 1), unbuffered);
  cluster.Run();
  EXPECT_EQ(cluster.ResultDigest(), ref_digest);
  EXPECT_EQ(cluster.session_stall_count(0), ref_stalls[0]);
  EXPECT_EQ(cluster.session_stall_count(1), ref_stalls[1]);
  EXPECT_EQ(cluster.session_mailbox_peak(0), 0u);
  EXPECT_EQ(cluster.round_stats().mailbox_stalls_per_session.Sum(),
            static_cast<double>(ref_stalls[0] + ref_stalls[1]));
}

// --- Death / robustness ------------------------------------------------------
//
// These tests pin the pre-elastic fail-stop contract, so they disable the
// supervisor (max_restarts = 0). The recovery paths — restart, snapshot
// replay, graceful degradation — are covered by cluster_recovery_test.cc.

ClusterOptions FailStopOptions(size_t workers, size_t threads) {
  ClusterOptions opt = MakeClusterOptions(workers, threads);
  opt.recovery.max_restarts = 0;
  return opt;
}

TEST(ClusterDeathTest, WorkerExitSurfacesCleanErrorWithShardId) {
  const World w = MakeWorld(200, 2, 60, 0xC10582);
  ClusterEngine cluster(&w.pois, &w.tree, FailStopOptions(2, 1));
  cluster.AdmitSession(GroupOf(w, 0));
  cluster.AdmitSession(GroupOf(w, 1));
  cluster.Start();
  cluster.KillWorkerForTest(1);
  try {
    cluster.Wait();
    FAIL() << "Wait() must throw when a worker died";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard 1"), std::string::npos)
        << "error must name the failing shard: " << e.what();
  }
  // The failure latches: replies may be out of phase with requests, so
  // further drains/admissions must throw instead of silently returning
  // stale or misaligned results.
  EXPECT_THROW(cluster.Wait(), std::runtime_error);
  EXPECT_THROW(cluster.AdmitSession(GroupOf(w, 0)), std::runtime_error);
  // Destruction after the failure must tear the survivors down cleanly
  // (no hang) — implicitly checked by the test finishing inside its ctest
  // timeout.
}

TEST(ClusterDeathTest, WorkerDeathBeforeAdmitFailsTheAdmit) {
  const World w = MakeWorld(150, 2, 40, 0xC10583);
  ClusterEngine cluster(&w.pois, &w.tree, FailStopOptions(1, 1));
  cluster.Start();
  cluster.KillWorkerForTest(0);
  // The send may land in the kernel buffer before the death is visible;
  // the drain definitely observes it.
  try {
    cluster.AdmitSession(GroupOf(w, 0));
    cluster.Wait();
    FAIL() << "admit+drain against a dead worker must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
        << e.what();
  }
}

TEST(ClusterLifecycleTest, DoubleStartIsAHardError) {
  const World w = MakeWorld(150, 1, 30, 0xC10584);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  cluster.Start();
  EXPECT_THROW(cluster.Start(), std::logic_error);
  EXPECT_THROW(cluster.Run(), std::logic_error);
}

TEST(ClusterLifecycleTest, WaitBeforeStartIsAHardError) {
  const World w = MakeWorld(150, 1, 30, 0xC10585);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  EXPECT_THROW(cluster.Wait(), std::logic_error);
}

TEST(ClusterLifecycleTest, AdmitAfterShutdownIsAHardError) {
  const World w = MakeWorld(150, 2, 30, 0xC10586);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  cluster.AdmitSession(GroupOf(w, 0));
  cluster.Run();
  EXPECT_THROW(cluster.AdmitSession(GroupOf(w, 1)), std::logic_error);
  EXPECT_THROW(cluster.RetireSession(0, 10), std::logic_error);
  // Shutdown stays idempotent and results stay readable.
  cluster.Shutdown();
  EXPECT_EQ(cluster.session_metrics(0).timestamps, 30u);
}

TEST(ClusterLifecycleTest, UnknownSessionIdsAreRejected) {
  const World w = MakeWorld(150, 1, 30, 0xC10587);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  EXPECT_THROW(cluster.RetireSession(0, 10), std::out_of_range);
  cluster.AdmitSession(GroupOf(w, 0));
  EXPECT_THROW(cluster.session_metrics(0), std::out_of_range);  // pre-Wait
  cluster.Run();
  EXPECT_NO_THROW(cluster.session_metrics(0));
  EXPECT_THROW(cluster.session_metrics(1), std::out_of_range);
}

}  // namespace
}  // namespace mpn
