// Cluster-layer tests (ctest label `cluster`): multi-process digest
// bit-identity against the single-process engine for any shard count,
// serving-loop drains across admission waves, cluster-level round-stat
// aggregation, mailbox-mark shipping, and the death/robustness paths
// (worker killed mid-run, double Start, admit after Shutdown, malformed
// admissions).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/engine.h"
#include "engine_fuzz_util.h"

namespace mpn {
namespace {

using fuzz::GroupOf;
using fuzz::MakeClusterOptions;
using fuzz::MakeEngineOptions;
using fuzz::MakeWorld;
using fuzz::World;

// Every deterministic field of one session's result: the metrics but
// server_seconds, the final meeting point and whether there is one (the
// mailbox marks and advance stamps are wall-clock dependent).
void ExpectSameDeterministicResult(const SessionFinalResult& got,
                                   const SessionFinalResult& want,
                                   uint32_t id) {
  SCOPED_TRACE("session " + std::to_string(id));
  fuzz::ExpectSameDeterministicMetrics(got.metrics, want.metrics);
  EXPECT_EQ(got.has_result, want.has_result);
  EXPECT_EQ(got.po, want.po);
}

TEST(ClusterTest, DigestBitIdenticalToSingleProcessForAnyShardCount) {
  const size_t kGroups = 8;
  const World w = MakeWorld(300, kGroups, 120, 0xC1057E);

  // Single-process reference (destroyed before the first fork so no
  // thread-pool workers are alive when the cluster forks).
  uint64_t ref_digest = 0;
  SimMetrics ref_total;
  std::vector<SessionFinalResult> ref_sessions;
  double ref_messages_sum = 0.0, ref_recomputes_sum = 0.0;
  size_t ref_rounds = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    for (size_t g = 0; g < kGroups; ++g) engine.AdmitSession(GroupOf(w, g));
    engine.Start();
    engine.Shutdown();
    ref_digest = engine.ResultDigest();
    ref_total = engine.TotalMetrics();
    for (uint32_t g = 0; g < kGroups; ++g) {
      ref_sessions.push_back(fuzz::ResultOf(engine, g));
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
    cluster.Start();
    cluster.Shutdown();
    EXPECT_EQ(cluster.ResultDigest(), ref_digest)
        << "cluster digest diverged at " << workers << " worker(s)";
    EXPECT_EQ(cluster.session_count(), kGroups);
    const SimMetrics total = cluster.TotalMetrics();
    EXPECT_EQ(total.timestamps, ref_total.timestamps);
    EXPECT_EQ(total.updates, ref_total.updates);
    EXPECT_EQ(total.comm.TotalPackets(), ref_total.comm.TotalPackets());
    EXPECT_EQ(total.msr.tiles_added, ref_total.msr.tiles_added);
    for (uint32_t g = 0; g < kGroups; ++g) {
      ExpectSameDeterministicResult(fuzz::ResultOf(cluster, g),
                                    ref_sessions[g], g);
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

// Count, sum, min and max of one per-timestamp column.
void ExpectSameColumn(const RunningStat& got, const RunningStat& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.Sum(), want.Sum());
  EXPECT_EQ(got.Min(), want.Min());
  EXPECT_EQ(got.Max(), want.Max());
}

TEST(ClusterTest, RoundStatColumnsMatchTheEngine) {
  // Each worker's engine adds its slots up per pool thread and ships the
  // merged totals in every drain reply; the coordinator adds the shards'
  // replies up. The message and recompute columns of a plan with mid-run
  // admission waves must equal a single-process engine's, statistic by
  // statistic.
  Rng rng(0xC1057'5107ull);
  const World w = fuzz::MakeFuzzWorld(&rng, 10, 3, 24);
  const fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 10, 24);
  EngineRoundStats want;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    fuzz::Replay(&engine, w, plan);
    want = engine.round_stats();
  }
  ASSERT_GT(want.rounds, 1u);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
  fuzz::Replay(&cluster, w, plan);
  const EngineRoundStats& got = cluster.round_stats();
  EXPECT_EQ(got.rounds, want.rounds);
  ExpectSameColumn(got.messages_per_round, want.messages_per_round);
  ExpectSameColumn(got.recomputes_per_round, want.recomputes_per_round);
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
    engine.Start();
    engine.Shutdown();
    ref_digest = engine.ResultDigest();
  }

  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
  cluster.Start();
  // Wave 1: three groups, drained to completion.
  for (size_t g = 0; g < 3; ++g) cluster.AdmitSession(GroupOf(w, g));
  cluster.Wait();
  EXPECT_EQ(cluster.session_count(), 3u);
  for (uint32_t g = 0; g < 3; ++g) {
    EXPECT_EQ(fuzz::ResultOf(cluster, g).metrics.timestamps, 100u);
    EXPECT_GT(fuzz::ResultOf(cluster, g).metrics.updates, 0u);
  }
  // Wave 2: the workers are still serving — admit three more (one retiring
  // early, one on a capacity-1 mailbox) and drain again.
  cluster.AdmitSession(GroupOf(w, 3));
  cluster.AdmitSession(GroupOf(w, 4), early);
  cluster.AdmitSession(GroupOf(w, 5), tiny);
  cluster.Wait();
  EXPECT_EQ(cluster.session_count(), kGroups);
  EXPECT_EQ(fuzz::ResultOf(cluster, 4).metrics.timestamps, 40u);
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
    engine.Start();
    engine.Shutdown();
    ref_digest = engine.ResultDigest();
  }

  for (size_t workers : {2u, 3u}) {
    ClusterEngine cluster(&w.pois, &w.tree,
                          MakeClusterOptions(workers, 1));
    for (size_t g = 0; g < kGroups; ++g) {
      cluster.AdmitSession(GroupOf(w, g), g == 2 ? zero : SessionTuning());
    }
    cluster.RetireSession(1, 30);  // queued pre-start, flushed in order
    cluster.Start();
    cluster.Shutdown();
    EXPECT_EQ(fuzz::ResultOf(cluster, 1).metrics.timestamps, 30u);
    EXPECT_EQ(fuzz::ResultOf(cluster, 2).metrics.timestamps, 0u);
    EXPECT_FALSE(fuzz::ResultOf(cluster, 2).has_result);
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
    engine.Start();
    engine.Shutdown();
    ref_digest = engine.ResultDigest();
    ref_stalls = {fuzz::ResultOf(engine, 0).stall_count,
                  fuzz::ResultOf(engine, 1).stall_count};
    EXPECT_GT(ref_stalls[0], 0u);
  }

  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
  cluster.AdmitSession(GroupOf(w, 0), unbuffered);
  cluster.AdmitSession(GroupOf(w, 1), unbuffered);
  cluster.Start();
  cluster.Shutdown();
  EXPECT_EQ(cluster.ResultDigest(), ref_digest);
  EXPECT_EQ(fuzz::ResultOf(cluster, 0).stall_count, ref_stalls[0]);
  EXPECT_EQ(fuzz::ResultOf(cluster, 1).stall_count, ref_stalls[1]);
  EXPECT_EQ(fuzz::ResultOf(cluster, 0).mailbox_peak, 0u);
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
  EXPECT_THROW(cluster.Start(), std::logic_error);  // while serving
  cluster.Shutdown();
  EXPECT_THROW(cluster.Start(), std::logic_error);  // after the run
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
  cluster.Start();
  cluster.Shutdown();
  EXPECT_THROW(cluster.AdmitSession(GroupOf(w, 1)), std::logic_error);
  EXPECT_THROW(cluster.RetireSession(0, 10), std::logic_error);
  // Shutdown stays idempotent and results stay readable.
  cluster.Shutdown();
  EXPECT_EQ(fuzz::ResultOf(cluster, 0).metrics.timestamps, 30u);
}

TEST(ClusterLifecycleTest, RejectsMismatchedPoisAndTree) {
  // Checked in the constructor, before any worker forks: a worker would
  // otherwise abort at its first admission.
  const World w = MakeWorld(150, 1, 30, 0xC10588);
  const std::vector<Point> two(w.pois.begin(), w.pois.begin() + 2);
  const PackedRTree two_tree = PackedRTree::Build(two);
  const ClusterOptions opt = MakeClusterOptions(2, 1);
  EXPECT_THROW(ClusterEngine(&w.pois, &two_tree, opt), std::invalid_argument);
  EXPECT_THROW(ClusterEngine(&two, &w.tree, opt), std::invalid_argument);
  EXPECT_THROW(ClusterEngine(nullptr, &w.tree, opt), std::invalid_argument);
  EXPECT_THROW(ClusterEngine(&w.pois, nullptr, opt), std::invalid_argument);
}

TEST(ClusterLifecycleTest, UnknownSessionIdsAreRejected) {
  const World w = MakeWorld(150, 1, 30, 0xC10587);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  EXPECT_THROW(cluster.RetireSession(0, 10), std::out_of_range);
  cluster.AdmitSession(GroupOf(w, 0));
  // Before the first Wait no result exists yet.
  EXPECT_THROW(fuzz::ResultOf(cluster, 0), std::out_of_range);
  EXPECT_THROW(cluster.session_metrics(0), std::out_of_range);
  EXPECT_THROW(cluster.session_po(0), std::out_of_range);
  EXPECT_THROW(cluster.session_has_result(0), std::out_of_range);
  cluster.Start();
  cluster.Shutdown();
  EXPECT_NO_THROW(fuzz::ResultOf(cluster, 0));
  EXPECT_EQ(cluster.session_metrics(0).timestamps, 30u);
  EXPECT_TRUE(fuzz::ResultOf(cluster, 0).advance_seconds.empty());
  // An id past the end.
  EXPECT_THROW(fuzz::ResultOf(cluster, 1), std::out_of_range);
  EXPECT_THROW(cluster.session_metrics(1), std::out_of_range);
  EXPECT_THROW(cluster.session_po(1), std::out_of_range);
  EXPECT_THROW(cluster.session_has_result(1), std::out_of_range);
}

// A shard the cluster does not have reaches the caller as
// std::out_of_range, like an unknown session id, and arms or signals
// nothing: the run that follows restarts no worker.
TEST(ClusterLifecycleTest, InjectFaultAtRejectsAnUnknownShard) {
  const World w = MakeWorld(150, 1, 30, 0xC1058A);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  EXPECT_THROW(cluster.InjectFaultAt(2, 0, FaultKind::kCrash),
               std::out_of_range);
  cluster.AdmitSession(GroupOf(w, 0));
  cluster.Start();
  cluster.Shutdown();
  EXPECT_EQ(cluster.recovery_stats().restarts, 0u);
}

TEST(ClusterLifecycleTest, ShardLostRejectsAnUnknownShard) {
  const World w = MakeWorld(150, 1, 30, 0xC1058B);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  EXPECT_FALSE(cluster.shard_lost(1));
  EXPECT_THROW(cluster.shard_lost(2), std::out_of_range);
}

TEST(ClusterLifecycleTest, KillWorkerForTestRejectsAnUnknownShard) {
  const World w = MakeWorld(150, 1, 30, 0xC1058C);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  cluster.Start();
  EXPECT_THROW(cluster.KillWorkerForTest(2), std::out_of_range);
  cluster.Shutdown();
  EXPECT_EQ(cluster.recovery_stats().restarts, 0u);
}

TEST(ClusterLifecycleTest, StopWorkerForTestRejectsAnUnknownShard) {
  const World w = MakeWorld(150, 1, 30, 0xC1058D);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  cluster.Start();
  EXPECT_THROW(cluster.StopWorkerForTest(2), std::out_of_range);
  cluster.Shutdown();
  EXPECT_EQ(cluster.recovery_stats().restarts, 0u);
}

// A malformed admission throws std::invalid_argument on the coordinator,
// before an id is taken or an admit frame enters the recovery snapshot: the
// session count does not move, no worker ever sees it, and a valid
// admission after it gets id 0 and the single-process digest.
void ExpectClusterAdmissionRejected(
    const World& w, const std::vector<const Trajectory*>& bad_group,
    const SessionTuning& bad_tuning) {
  uint64_t reference = 0;
  {
    // Destroyed (its pool joined) before the cluster forks.
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
    engine.AdmitSession(GroupOf(w, 0));
    engine.Start();
    engine.Shutdown();
    reference = engine.ResultDigest();
  }
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  cluster.Start();
  EXPECT_THROW(cluster.AdmitSession(bad_group, bad_tuning),
               std::invalid_argument);
  EXPECT_EQ(cluster.session_count(), 0u);
  EXPECT_EQ(cluster.AdmitSession(GroupOf(w, 0)), 0u);
  cluster.Shutdown();
  EXPECT_EQ(cluster.session_count(), 1u);
  EXPECT_EQ(cluster.ResultDigest(), reference);
  EXPECT_EQ(cluster.recovery_stats().restarts, 0u);
}

SessionTuning CostFactor(double factor) {
  SessionTuning tuning;
  tuning.recompute_cost_factor = factor;
  return tuning;
}

TEST(ClusterLifecycleTest, RejectsEmptyGroup) {
  const World w = MakeWorld(150, 1, 30, 0xC10588);
  ExpectClusterAdmissionRejected(w, {}, SessionTuning());
}

TEST(ClusterLifecycleTest, RejectsNullTrajectory) {
  const World w = MakeWorld(150, 1, 30, 0xC10588);
  ExpectClusterAdmissionRejected(w, {&w.trajs[0], nullptr, &w.trajs[2]},
                                 SessionTuning());
}

TEST(ClusterLifecycleTest, RejectsEmptyTrajectory) {
  const World w = MakeWorld(150, 1, 30, 0xC10588);
  const Trajectory empty;
  ExpectClusterAdmissionRejected(w, {&w.trajs[0], &empty}, SessionTuning());
}

TEST(ClusterLifecycleTest, RejectsCostFactorBelowOne) {
  const World w = MakeWorld(150, 1, 30, 0xC10588);
  ExpectClusterAdmissionRejected(w, GroupOf(w, 0), CostFactor(0.5));
}

TEST(ClusterLifecycleTest, RejectsNanCostFactor) {
  const World w = MakeWorld(150, 1, 30, 0xC10588);
  ExpectClusterAdmissionRejected(
      w, GroupOf(w, 0), CostFactor(std::numeric_limits<double>::quiet_NaN()));
}

TEST(ClusterLifecycleTest, RejectsInfiniteCostFactor) {
  const World w = MakeWorld(150, 1, 30, 0xC10588);
  ExpectClusterAdmissionRejected(
      w, GroupOf(w, 0), CostFactor(std::numeric_limits<double>::infinity()));
}

TEST(ClusterLifecycleTest, RejectsZeroWorkers) {
  const World w = MakeWorld(150, 1, 30, 0xC10589);
  EXPECT_THROW(ClusterEngine(&w.pois, &w.tree, MakeClusterOptions(0, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace mpn
