// Elastic recovery tests (ctest label `cluster`): the supervisor must
// survive worker deaths at admission, mid-drain and between serving-loop
// Waits with a ResultDigest() bit-identical to an uninterrupted
// single-process Engine; bounded restarts must degrade gracefully to a
// per-shard error naming the lost groups (never a hang); RecoveryStats
// must account restarts, re-admissions and snapshot restores; crash
// injection (FaultPlan's `crash` kind, armed via InjectFaultAt) must be
// deterministic in virtual time; and the constructor must ignore
// MPN_FAULT_PLAN, which only the test-side reader (test_env.h) parses.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/engine.h"
#include "engine/ipc.h"
#include "engine_fuzz_util.h"
#include "test_env.h"

namespace mpn {
namespace {

using fuzz::GroupOf;
using fuzz::MakeClusterOptions;
using fuzz::MakeEngineOptions;
using fuzz::MakeWorld;
using fuzz::World;

// --- Digest bit-identity through recovery ------------------------------------

TEST(ClusterRecoveryTest, KilledWorkerRecoversWithBitIdenticalDigest) {
  const size_t kGroups = 6;
  const World w = MakeWorld(250, kGroups, 100, 0xEC0001);
  SessionTuning tiny;
  tiny.mailbox_capacity = 1;  // blocks whenever a flight fills it
  // Group 1's retirement rides in the tuning: a live RetireSession(1, 30)
  // issued while the run is in flight races the session's virtual clock
  // (the request only stops *future* advances), so on a loaded machine —
  // e.g. under MPN_MEMORY_BUDGET, where spill work widens the window —
  // the session can tick past 30 before the frame lands and the digest
  // legitimately differs from the reference. tuning.retire_at truncates
  // deterministically; a separate live retire below (at a timestamp past
  // the truncation point, so it cannot move results) still exercises the
  // coordinator's record-and-fold-on-replay path.
  SessionTuning retire30;
  retire30.retire_at = 30;
  const auto tuning_of = [&](size_t g) {
    if (g == 1) return retire30;
    return g == 2 ? tiny : SessionTuning();
  };

  // Uninterrupted single-process reference (destroyed before any fork).
  uint64_t ref_digest = 0;
  double ref_messages_sum = 0.0, ref_recomputes_sum = 0.0;
  size_t ref_rounds = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    for (size_t g = 0; g < kGroups; ++g) {
      engine.AdmitSession(GroupOf(w, g), tuning_of(g));
    }
    engine.Start();
    engine.RetireSession(1, 60);  // folded to min(60, 30): digest no-op
    engine.Shutdown();
    ref_digest = engine.ResultDigest();
    ref_messages_sum = engine.round_stats().messages_per_round.Sum();
    ref_recomputes_sum = engine.round_stats().recomputes_per_round.Sum();
    ref_rounds = engine.round_stats().rounds;
  }

  // Kill each shard at admission (t = 0), mid-drain (t = 50) and near the
  // end of the horizon (t = 97): the supervisor must fork a replacement,
  // replay the snapshot (admits + the retirement) and land on exactly the
  // uninterrupted digest and round-stat totals.
  struct Kill {
    size_t shard;
    size_t timestamp;
  };
  for (const Kill kill : {Kill{0, 0}, Kill{1, 50}, Kill{0, 97}}) {
    SCOPED_TRACE("kill shard " + std::to_string(kill.shard) + " at t=" +
                 std::to_string(kill.timestamp));
    ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
    cluster.InjectFaultAt(kill.shard, kill.timestamp, FaultKind::kCrash);
    cluster.Start();
    for (size_t g = 0; g < kGroups; ++g) {
      cluster.AdmitSession(GroupOf(w, g), tuning_of(g));
    }
    cluster.RetireSession(1, 60);  // folded to min(60, 30): digest no-op
    cluster.Wait();
    EXPECT_EQ(cluster.ResultDigest(), ref_digest);
    EXPECT_EQ(cluster.round_stats().rounds, ref_rounds);
    EXPECT_EQ(cluster.round_stats().messages_per_round.Sum(),
              ref_messages_sum);
    EXPECT_EQ(cluster.round_stats().recomputes_per_round.Sum(),
              ref_recomputes_sum);
    const ClusterEngine::RecoveryStats stats = cluster.recovery_stats();
    EXPECT_EQ(stats.restarts, 1u);
    EXPECT_EQ(stats.shards_lost, 0u);
    // A t=0 kill can surface while admissions are still streaming, in
    // which case the replay covers only the groups admitted so far; later
    // kills always replay the shard's full census (3 of 6 groups).
    EXPECT_GE(stats.sessions_readmitted, 2u);
    EXPECT_LE(stats.sessions_readmitted, 3u);
    EXPECT_EQ(stats.sessions_restored, 0u);  // nothing was drained yet
    EXPECT_GE(stats.frames_replayed, stats.sessions_readmitted);
    EXPECT_FALSE(cluster.shard_lost(kill.shard));
    cluster.Shutdown();
    EXPECT_EQ(cluster.ResultDigest(), ref_digest);  // frozen, still valid
  }
}

TEST(ClusterRecoveryTest, KillBetweenWaitsRestoresFinalsFromSnapshot) {
  const size_t kGroups = 6;
  const World w = MakeWorld(250, kGroups, 90, 0xEC0002);

  uint64_t ref_digest = 0;
  double ref_messages_sum = 0.0, ref_recomputes_sum = 0.0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    engine.Start();
    for (size_t g = 0; g < 3; ++g) engine.AdmitSession(GroupOf(w, g));
    engine.Wait();
    for (size_t g = 3; g < kGroups; ++g) engine.AdmitSession(GroupOf(w, g));
    engine.Shutdown();
    ref_digest = engine.ResultDigest();
    ref_messages_sum = engine.round_stats().messages_per_round.Sum();
    ref_recomputes_sum = engine.round_stats().recomputes_per_round.Sum();
  }

  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
  cluster.Start();
  for (size_t g = 0; g < 3; ++g) cluster.AdmitSession(GroupOf(w, g));
  cluster.Wait();
  const uint64_t wave1_updates = fuzz::ResultOf(cluster, 1).metrics.updates;

  // Shard 1 dies between Waits. Its wave-1 session (global id 1) is final
  // — the supervisor must restore it from the coordinator snapshot, not
  // recompute it — while the wave-2 sessions (ids 3, 5) are re-admitted
  // and recomputed on the replacement.
  cluster.KillWorkerForTest(1);
  for (size_t g = 3; g < kGroups; ++g) cluster.AdmitSession(GroupOf(w, g));
  cluster.Wait();

  EXPECT_EQ(cluster.ResultDigest(), ref_digest);
  EXPECT_EQ(fuzz::ResultOf(cluster, 1).metrics.updates, wave1_updates);
  // Round stats must re-aggregate to the uninterrupted totals: id 1's
  // per-timestamp contribution comes from the dead incarnation's drained
  // history (slot_base), ids 3/5's from the replacement's recomputation.
  EXPECT_EQ(cluster.round_stats().messages_per_round.Sum(), ref_messages_sum);
  EXPECT_EQ(cluster.round_stats().recomputes_per_round.Sum(),
            ref_recomputes_sum);
  const ClusterEngine::RecoveryStats stats = cluster.recovery_stats();
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.sessions_restored, 1u);  // id 1, final as of wave 1
  EXPECT_GE(stats.sessions_readmitted, 1u);
  EXPECT_LE(stats.sessions_readmitted, 2u);
  EXPECT_EQ(stats.shards_lost, 0u);
  cluster.Shutdown();
}

TEST(ClusterRecoveryTest, ReplayAfterDrainsSendsOnlyUndrainedSessions) {
  // The coordinator keeps a shard's admit frames only until a drain reply
  // carries their sessions. Shard 1 is killed after three drained waves,
  // and again after a fourth: each replacement must be sent only the
  // sessions admitted since the last drain, and the drained ones must keep
  // their results. Retiring a drained session records nothing to replay
  // (a retirement misapplied to a live session would move the digest).
  const size_t kWave = 4;
  const size_t kWaves = 5;
  const World w = MakeWorld(250, kWave * kWaves, 60, 0xEC0006);
  const uint32_t kWave1Id = 1;  // shard 1, shard-local index 0
  const uint32_t kWave3Id = 9;  // shard 1, shard-local index 4
  const size_t kRetireAt = 10;
  const auto admit_wave = [&w](auto* engine, size_t k) {
    for (size_t g = k * kWave; g < (k + 1) * kWave; ++g) {
      engine->AdmitSession(GroupOf(w, g));
    }
  };

  uint64_t ref_digest = 0;
  double ref_messages_sum = 0.0, ref_recomputes_sum = 0.0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    engine.Start();
    for (size_t k = 0; k < kWaves; ++k) {
      admit_wave(&engine, k);
      engine.Wait();
      if (k == 2) {
        engine.RetireSession(kWave1Id, kRetireAt);
        engine.RetireSession(kWave3Id, kRetireAt);
      }
    }
    engine.Shutdown();
    ref_digest = engine.ResultDigest();
    ref_messages_sum = engine.round_stats().messages_per_round.Sum();
    ref_recomputes_sum = engine.round_stats().recomputes_per_round.Sum();
  }

  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 2));
  cluster.Start();
  for (size_t k = 0; k < 3; ++k) {
    admit_wave(&cluster, k);
    cluster.Wait();
  }
  const uint64_t wave3_updates =
      fuzz::ResultOf(cluster, kWave3Id).metrics.updates;
  // Both sessions are drained, so neither has a queue entry left.
  EXPECT_NO_THROW(cluster.RetireSession(kWave1Id, kRetireAt));
  EXPECT_NO_THROW(cluster.RetireSession(kWave3Id, kRetireAt));

  // First recovery: shard 1's six drained sessions (ids 1, 3, ..., 11)
  // are restored, and only wave 4's ids 13 and 15 can be replayed — one
  // of them when the death surfaces at the first of their admit sends.
  cluster.KillWorkerForTest(1);
  admit_wave(&cluster, 3);
  cluster.Wait();
  ClusterEngine::RecoveryStats stats = cluster.recovery_stats();
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.sessions_restored, 6u);
  EXPECT_GE(stats.sessions_readmitted, 1u);
  EXPECT_LE(stats.sessions_readmitted, 2u);
  EXPECT_GE(stats.frames_replayed, 1u);
  EXPECT_LE(stats.frames_replayed, 2u);
  EXPECT_EQ(fuzz::ResultOf(cluster, kWave3Id).metrics.updates,
            wave3_updates);

  // Second recovery: the replacement's own drain popped wave 4, so only
  // wave 5's ids 17 and 19 can be replayed, and eight are restored.
  cluster.KillWorkerForTest(1);
  admit_wave(&cluster, 4);
  cluster.Wait();
  stats = cluster.recovery_stats();
  EXPECT_EQ(stats.restarts, 2u);
  EXPECT_EQ(stats.sessions_restored, 6u + 8u);
  EXPECT_GE(stats.sessions_readmitted, 2u);
  EXPECT_LE(stats.sessions_readmitted, 4u);
  EXPECT_GE(stats.frames_replayed, 2u);
  EXPECT_LE(stats.frames_replayed, 4u);
  EXPECT_EQ(stats.shards_lost, 0u);

  EXPECT_EQ(cluster.ResultDigest(), ref_digest);
  EXPECT_EQ(cluster.round_stats().messages_per_round.Sum(), ref_messages_sum);
  EXPECT_EQ(cluster.round_stats().recomputes_per_round.Sum(),
            ref_recomputes_sum);
  cluster.Shutdown();
  EXPECT_EQ(cluster.ResultDigest(), ref_digest);
}

// --- Graceful degradation ----------------------------------------------------

TEST(ClusterRecoveryTest, ExhaustedRestartsDegradeToErrorNamingLostGroups) {
  const size_t kGroups = 4;
  const World w = MakeWorld(200, kGroups, 80, 0xEC0003);
  ClusterOptions opt = MakeClusterOptions(2, 1);
  opt.recovery.max_restarts = 1;
  ClusterEngine cluster(&w.pois, &w.tree, opt);
  // Two planned crashes on shard 1: the initial incarnation and its only
  // allowed replacement both die, exhausting the budget.
  cluster.InjectFaultAt(1, 10, FaultKind::kCrash);
  cluster.InjectFaultAt(1, 10, FaultKind::kCrash);
  cluster.Start();
  for (size_t g = 0; g < kGroups; ++g) cluster.AdmitSession(GroupOf(w, g));
  try {
    cluster.Wait();
    FAIL() << "Wait() must surface the degraded shard";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("restart budget exhausted"), std::string::npos)
        << what;
    // The error must name the groups lost with the shard (global ids 1
    // and 3 route to shard 1 of 2).
    EXPECT_NE(what.find("groups lost: [1, 3]"), std::string::npos) << what;
  }
  EXPECT_TRUE(cluster.shard_lost(1));
  EXPECT_FALSE(cluster.shard_lost(0));
  const ClusterEngine::RecoveryStats stats = cluster.recovery_stats();
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.shards_lost, 1u);

  // Healthy shard 0 drained and stays fully readable.
  EXPECT_EQ(fuzz::ResultOf(cluster, 0).metrics.timestamps, 80u);
  EXPECT_EQ(fuzz::ResultOf(cluster, 2).metrics.timestamps, 80u);
  EXPECT_TRUE(fuzz::ResultOf(cluster, 0).has_result);
  // Lost sessions degrade to empty results instead of hanging or lying.
  EXPECT_FALSE(fuzz::ResultOf(cluster, 1).has_result);

  // Admissions keep working for healthy shards (id 4 -> shard 0) and
  // throw the shard's degradation error for the lost one (id 5 -> 1).
  EXPECT_NO_THROW(cluster.AdmitSession(GroupOf(w, 0)));
  try {
    cluster.AdmitSession(GroupOf(w, 1));
    FAIL() << "admission to a lost shard must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard 1"), std::string::npos);
  }
  // Every later drain re-reports the degradation (no silent staleness),
  // while still refreshing the healthy shards — and never hangs
  // (implicitly checked by the ctest timeout).
  EXPECT_THROW(cluster.Wait(), std::runtime_error);
  EXPECT_EQ(fuzz::ResultOf(cluster, 4).metrics.timestamps, 80u);
  EXPECT_THROW(cluster.Shutdown(), std::runtime_error);  // still graceful
}

// --- The environment arms nothing + quiescent stats --------------------------

TEST(ClusterRecoveryTest, FaultPlanVariableArmsNoCrash) {
  // Only InjectFaultAt fills the plan: a crash spec in the environment
  // reaches no worker.
  const World w = MakeWorld(200, 2, 60, 0xEC0004);
  const ScopedEnv env("MPN_FAULT_PLAN", "0:0:crash");
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  cluster.AdmitSession(GroupOf(w, 0));
  cluster.AdmitSession(GroupOf(w, 1));
  cluster.Start();
  cluster.Shutdown();
  EXPECT_EQ(cluster.recovery_stats().restarts, 0u);
}

TEST(ClusterRecoveryTest, MalformedFaultPlanVariableDoesNotThrow) {
  const World w = MakeWorld(50, 1, 10, 0xEC0007);
  const ScopedEnv env("MPN_FAULT_PLAN", "0:x:crash");
  EXPECT_NO_THROW(ClusterEngine(&w.pois, &w.tree, MakeClusterOptions(2, 1)));
}

TEST(ClusterRecoveryTest, UninterruptedRunReportsZeroRecoveryStats) {
  const World w = MakeWorld(200, 2, 50, 0xEC0005);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  cluster.AdmitSession(GroupOf(w, 0));
  cluster.AdmitSession(GroupOf(w, 1));
  cluster.Start();
  EXPECT_THROW(cluster.InjectFaultAt(0, 10, FaultKind::kCrash),
               std::logic_error);  // post-Start
  cluster.Shutdown();
  const ClusterEngine::RecoveryStats stats = cluster.recovery_stats();
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.sessions_readmitted, 0u);
  EXPECT_EQ(stats.sessions_restored, 0u);
  EXPECT_EQ(stats.frames_replayed, 0u);
  EXPECT_EQ(stats.shards_lost, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_EQ(stats.recovery_seconds, 0.0);
  EXPECT_FALSE(cluster.shard_lost(0));
  EXPECT_FALSE(cluster.shard_lost(1));
}

}  // namespace
}  // namespace mpn
