// Shared infrastructure for the seeded lifecycle replays: a deterministic
// world + plan generator and replay drivers over Engine / ClusterEngine.
// Used by engine_fuzz_test.cc (scheduling-invariance fuzzing) and
// session_store_test.cc (budgeted vs unbudgeted engines), which assert
// digest bit-identity over the same seed-derived plans, and by
// kernel_differential_test.cc, which replays the plans' recomputes under
// both verification kernels.
// Also the helpers every engine-driving test shares: the fixed world of the
// engine, cluster and transport suites (MakeWorld, GroupOf), the engine and
// cluster options they run with (MakeEngineOptions, MakeClusterOptions —
// the one place CI's MPN_MEMORY_BUDGET reaches an engine, test_env.h), a
// one-group run (RunSingleGroup), a session result copied out of either
// engine (ResultOf), a field-by-field comparison of the deterministic
// metrics (ExpectSameDeterministicMetrics), and the in-order driver
// (DriveInOrder) that hands a session's every recompute to a test: the
// paper's invariant is checked through it (InvariantChecks,
// RunCheckedGroup), never inside a serving session.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "engine/engine.h"
#include "engine/group_session.h"
#include "index/gnn.h"
#include "index/packed_rtree.h"
#include "test_env.h"
#include "traj/generators.h"
#include "util/rng.h"

namespace mpn {
namespace fuzz {

inline const Rect kWorld({0, 0}, {20000, 20000});

struct World {
  std::vector<Point> pois;
  PackedRTree tree;
  std::vector<Trajectory> trajs;
  size_t group_size = 0;
};

/// One planned session: which trajectories, which tuning, which admission
/// wave, and an optional deterministic pre-start retirement.
struct PlannedSession {
  size_t group = 0;
  SessionTuning tuning;
  size_t wave = 0;
  bool prestart_retire = false;
  size_t prestart_retire_at = 0;
};

/// One planned fault for the cluster replays (ClusterEngine::InjectFaultAt):
/// shard_slot folds onto the actual shard count (shard_slot % workers);
/// `at` is the virtual kill timestamp for FaultKind::kCrash and the 0-based
/// frame-op index on the shard's data channel for every other kind.
struct PlannedFault {
  size_t shard_slot = 0;
  size_t at = 0;
  FaultKind kind = FaultKind::kCorrupt;
};

struct FuzzPlan {
  size_t waves = 1;
  size_t horizon = 0;
  /// Per wave: drain (serving-loop Wait) before admitting it, or pour the
  /// admissions in mid-run while earlier sessions are still draining.
  std::vector<uint8_t> drain_before;
  std::vector<PlannedSession> sessions;
  /// Worker crashes first, then transport faults, in InjectFaultAt order.
  std::vector<PlannedFault> faults;
};

inline World MakeFuzzWorld(Rng* rng, size_t n_groups, size_t group_size,
                           size_t timestamps) {
  World w;
  w.group_size = group_size;
  PoiOptions popt;
  popt.world = kWorld;
  popt.clusters = static_cast<size_t>(rng->UniformInt(4, 16));
  w.pois = GeneratePois(static_cast<size_t>(rng->UniformInt(120, 280)), popt,
                        rng);
  w.tree = PackedRTree::Build(w.pois);
  RandomWalkGenerator::Options wopt;
  wopt.world = kWorld;
  wopt.mean_speed = rng->Uniform(30.0, 90.0);
  const RandomWalkGenerator gen(wopt);
  w.trajs = gen.GenerateGroupedFleet(n_groups * group_size, group_size,
                                     rng->Uniform(300.0, 900.0), timestamps,
                                     rng);
  return w;
}

inline FuzzPlan MakeFuzzPlan(Rng* rng, size_t n_groups, size_t horizon) {
  FuzzPlan plan;
  plan.waves = static_cast<size_t>(rng->UniformInt(1, 3));
  plan.horizon = horizon;
  plan.drain_before.assign(plan.waves, 0);
  for (size_t wave = 1; wave < plan.waves; ++wave) {
    plan.drain_before[wave] = rng->Bernoulli(0.5) ? 1 : 0;
  }
  for (size_t g = 0; g < n_groups; ++g) {
    PlannedSession s;
    s.group = g;
    s.wave = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(plan.waves) - 1));
    const size_t capacities[] = {0, 1, 2, 16};
    s.tuning.mailbox_capacity =
        capacities[static_cast<size_t>(rng->UniformInt(0, 3))];
    if (rng->Bernoulli(0.3)) {
      // Deterministic retirement churn: truncated horizon at admission.
      s.tuning.retire_at = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(horizon)));
    }
    if (rng->Bernoulli(0.25)) {
      // Wall-clock-only straggler injection; must never move the digest.
      s.tuning.recompute_cost_factor = rng->Uniform(1.5, 3.0);
    }
    if (s.wave == 0 && rng->Bernoulli(0.2)) {
      // Retire through the API instead of the tuning — deterministic
      // because it lands before Start.
      s.prestart_retire = true;
      s.prestart_retire_at = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(horizon)));
    }
    plan.sessions.push_back(s);
  }
  // 0-2 worker crashes at virtual timestamps.
  const size_t n_crashes = static_cast<size_t>(rng->UniformInt(0, 2));
  for (size_t i = 0; i < n_crashes; ++i) {
    PlannedFault crash;
    crash.shard_slot = static_cast<size_t>(rng->UniformInt(0, 3));
    crash.at = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(horizon)));
    crash.kind = FaultKind::kCrash;
    plan.faults.push_back(crash);
  }
  // 0-2 transport faults behind them: byte shaping, frame damage or hangs
  // at deterministic frame indices — none of which may move the digest.
  const size_t n_faults = static_cast<size_t>(rng->UniformInt(0, 2));
  for (size_t i = 0; i < n_faults; ++i) {
    PlannedFault fault;
    fault.shard_slot = static_cast<size_t>(rng->UniformInt(0, 3));
    fault.at = static_cast<size_t>(rng->UniformInt(0, 14));
    const FaultKind kinds[] = {FaultKind::kShortIo, FaultKind::kEintrStorm,
                               FaultKind::kCorrupt, FaultKind::kTruncate,
                               FaultKind::kStall, FaultKind::kReset};
    fault.kind = kinds[rng->UniformInt(0, 5)];
    plan.faults.push_back(fault);
  }
  return plan;
}

/// The fixed world of the engine, cluster and transport suites: `n_pois`
/// POIs in 12 clusters and `n_groups` groups of three walkers at 60 m per
/// timestamp, all drawn from `seed`.
inline World MakeWorld(size_t n_pois, size_t n_groups, size_t timestamps,
                       uint64_t seed) {
  World w;
  w.group_size = 3;
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

inline std::vector<const Trajectory*> GroupOf(const World& w, size_t g) {
  std::vector<const Trajectory*> group;
  for (size_t i = 0; i < w.group_size; ++i) {
    group.push_back(&w.trajs[g * w.group_size + i]);
  }
  return group;
}

/// Tile-D engine options, with the memory budget every engine-driving test
/// shares: a nonzero `bytes_cap` wins, and 0 takes MPN_MEMORY_BUDGET
/// (unset: no spilling), so CI's budgeted steps reach each such engine.
inline EngineOptions MakeEngineOptions(size_t threads, size_t bytes_cap = 0) {
  EngineOptions opt;
  opt.threads = threads;
  opt.sim.server.method = Method::kTileD;
  opt.sim.server.alpha = 10;
  opt.budget.bytes_cap = bytes_cap != 0 ? bytes_cap : EnvMemoryBudgetBytes();
  return opt;
}

inline ClusterOptions MakeClusterOptions(size_t workers, size_t threads) {
  ClusterOptions opt;
  opt.workers = workers;
  opt.engine = MakeEngineOptions(threads);
  return opt;
}

/// Replays the plan on `engine` (Engine or ClusterEngine share the
/// lifecycle API): wave 0 before Start, later waves between serving-loop
/// Wait() drains, Shutdown at the end. Admission order is the plan order
/// within each wave, so the digest stream is identical across replays.
template <typename EngineLike>
uint64_t Replay(EngineLike* engine, const World& w, const FuzzPlan& plan) {
  std::vector<uint32_t> ids(plan.sessions.size(), 0);
  const auto admit_wave = [&](size_t wave) {
    for (size_t i = 0; i < plan.sessions.size(); ++i) {
      const PlannedSession& s = plan.sessions[i];
      if (s.wave != wave) continue;
      ids[i] = engine->AdmitSession(GroupOf(w, s.group), s.tuning);
      if (s.prestart_retire) {
        engine->RetireSession(ids[i], s.prestart_retire_at);
      }
    }
  };
  admit_wave(0);
  engine->Start();
  for (size_t wave = 1; wave < plan.waves; ++wave) {
    // Either drain first (serving-loop rounds) or admit mid-run while
    // earlier sessions are still going — the digest must not care.
    if (plan.drain_before[wave] != 0) engine->Wait();
    admit_wave(wave);
  }
  engine->Shutdown();
  return engine->ResultDigest();
}

/// Expects every deterministic metrics field equal: all but the
/// wall-clock server_seconds.
inline void ExpectSameDeterministicMetrics(const SimMetrics& a,
                                           const SimMetrics& b) {
  EXPECT_EQ(a.timestamps, b.timestamps);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.result_changes, b.result_changes);
  for (size_t t = 0; t < kMessageTypeCount; ++t) {
    const MessageType mt = static_cast<MessageType>(t);
    EXPECT_EQ(a.comm.messages(mt), b.comm.messages(mt));
    EXPECT_EQ(a.comm.packets(mt), b.comm.packets(mt));
    EXPECT_EQ(a.comm.values(mt), b.comm.values(mt));
  }
  EXPECT_EQ(a.msr.tiles_tried, b.msr.tiles_tried);
  EXPECT_EQ(a.msr.tiles_added, b.msr.tiles_added);
  EXPECT_EQ(a.msr.divide_calls, b.msr.divide_calls);
  EXPECT_EQ(a.msr.verify.calls, b.msr.verify.calls);
  EXPECT_EQ(a.msr.verify.accepted, b.msr.verify.accepted);
  EXPECT_EQ(a.msr.verify.tile_groups, b.msr.verify.tile_groups);
  EXPECT_EQ(a.msr.verify.focal_evals, b.msr.verify.focal_evals);
  EXPECT_EQ(a.msr.verify.memo_hits, b.msr.verify.memo_hits);
  EXPECT_EQ(a.msr.candidates.retrievals, b.msr.candidates.retrievals);
  EXPECT_EQ(a.msr.candidates.candidates_total,
            b.msr.candidates.candidates_total);
  EXPECT_EQ(a.msr.candidates.rejected_by_buffer,
            b.msr.candidates.rejected_by_buffer);
  EXPECT_EQ(a.msr.rtree_node_accesses, b.msr.rtree_node_accesses);
}

/// Copies session `id`'s result out of either engine's streaming read.
template <typename EngineLike>
SessionFinalResult ResultOf(const EngineLike& engine, uint32_t id) {
  SessionFinalResult out;
  engine.WithSessionResult(
      id, [&out](const SessionFinalResult& fr) { out = fr; });
  return out;
}

/// Runs one group through the Fig. 3 protocol to completion on a
/// one-thread engine and returns its metrics.
inline SimMetrics RunSingleGroup(const std::vector<Point>* pois,
                                 const PackedRTree* tree,
                                 std::vector<const Trajectory*> group,
                                 const SimOptions& options) {
  EngineOptions opt = MakeEngineOptions(1);
  opt.sim = options;
  Engine engine(pois, tree, opt);
  const uint32_t id = engine.AdmitSession(std::move(group));
  engine.Start();
  engine.Shutdown();
  return ResultOf(engine, id).metrics;
}

inline uint64_t RunEnginePlan(const World& w, const FuzzPlan& plan,
                              size_t threads) {
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads));
  return Replay(&engine, w, plan);
}

inline uint64_t RunClusterPlan(const World& w, const FuzzPlan& plan,
                               size_t workers, size_t threads) {
  ClusterOptions opt = MakeClusterOptions(workers, threads);
  // Two planned crashes plus two fatal transport faults can all fold onto
  // one shard; keep the budget above that so every seeded death recovers.
  opt.recovery.max_restarts = 6;
  // Fast liveness so a seeded kStall costs ~2 s instead of the serving
  // defaults' ~4.5 s; the timeout stays generous enough that a loaded CI
  // box never false-kills a live worker.
  opt.transport.heartbeat_interval_ms = 100;
  opt.transport.heartbeat_timeout_ms = 500;
  opt.transport.heartbeat_miss_budget = 3;
  ClusterEngine cluster(&w.pois, &w.tree, opt);
  for (const PlannedFault& fault : plan.faults) {
    cluster.InjectFaultAt(fault.shard_slot % workers, fault.at, fault.kind);
  }
  return Replay(&cluster, w, plan);
}

/// No pre-Start retirement (DriveInOrder's `retire_at`).
inline constexpr size_t kNoRetire = std::numeric_limits<size_t>::max();

/// A recompute the in-order driver met: the snapshot it ran on and its
/// result, before the install.
using RecomputeFn =
    std::function<void(const GroupSession::Snapshot&, const MsrResult&)>;
/// A tick that stayed inside the regions: the group's locations (`hints`
/// empty) and the meeting point in force.
using CleanTickFn =
    std::function<void(const GroupSession::Snapshot&, uint32_t po)>;

/// Steps one session through the engine's logical order on the calling
/// thread: AdvanceAndCheck, and on a violation Recompute, `on_recompute`
/// and InstallResult, with no buffering (a session's results do not depend
/// on it, engine/group_session.h). It applies `tuning` and a pre-Start
/// RetireSession at `retire_at` as the engine does, so it meets exactly
/// the recomputes the engine runs. Returns the final metrics.
inline SimMetrics DriveInOrder(const std::vector<Point>* pois,
                               const PackedRTree* tree,
                               const std::vector<const Trajectory*>& group,
                               const SimOptions& options,
                               const SessionTuning& tuning, size_t retire_at,
                               const RecomputeFn& on_recompute,
                               const CleanTickFn& on_clean = nullptr) {
  GroupSession session(0, pois, tree, group, options, tuning);
  session.RequestRetire(retire_at);
  while (!session.AdvancesExhausted()) {
    const size_t t = session.next_timestamp();
    GroupSession::Snapshot snap;
    if (session.AdvanceAndCheck(&snap)) {
      GroupSession::RecomputeOutcome outcome = session.Recompute(snap);
      on_recompute(snap, outcome.result);
      session.InstallResult(std::move(outcome));
    } else if (on_clean) {
      snap.t = t;
      for (const Trajectory* traj : group) {
        snap.locations.push_back(traj->at(t));
      }
      on_clean(snap, session.current_po());
    }
  }
  session.Finish();
  return session.metrics();
}

/// The paper's invariant over an in-order run, as gtest failures (ties
/// within a 1e-7 relative tolerance): after every recompute po is the
/// brute-force optimum and every user lies in its fresh region; at every
/// clean tick the meeting point in force is still optimal.
class InvariantChecks {
 public:
  InvariantChecks(const std::vector<Point>* pois, Objective objective)
      : pois_(pois), objective_(objective) {}

  void OnRecompute(const GroupSession::Snapshot& snap,
                   const MsrResult& result) const {
    ExpectOptimal(snap, result.po_id, "non-optimal meeting point reported");
    ASSERT_EQ(result.regions.size(), snap.locations.size());
    for (size_t i = 0; i < snap.locations.size(); ++i) {
      EXPECT_TRUE(result.regions[i].Contains(snap.locations[i]))
          << "fresh safe region excludes user " << i << " at t " << snap.t;
    }
  }

  void OnClean(const GroupSession::Snapshot& snap, uint32_t po) const {
    ExpectOptimal(snap, po, "stale meeting point while all users inside");
  }

 private:
  void ExpectOptimal(const GroupSession::Snapshot& snap, uint32_t po,
                     const char* what) const {
    const auto best = FindGnnBruteForce(*pois_, snap.locations, objective_, 1);
    ASSERT_FALSE(best.empty());
    const double reported = AggDist((*pois_)[po], snap.locations, objective_);
    EXPECT_LE(reported, best[0].agg + 1e-7 * (1.0 + best[0].agg))
        << what << " at t " << snap.t << ": po " << po << ", optimum "
        << best[0].id;
  }

  const std::vector<Point>* pois_;
  Objective objective_;
};

/// RunSingleGroup with the invariant checked: the group also runs through
/// DriveInOrder under InvariantChecks, and its deterministic metrics must
/// equal the engine run's, which are returned.
inline SimMetrics RunCheckedGroup(const std::vector<Point>* pois,
                                  const PackedRTree* tree,
                                  const std::vector<const Trajectory*>& group,
                                  const SimOptions& options) {
  const InvariantChecks checks(pois, options.server.objective);
  const SimMetrics driven = DriveInOrder(
      pois, tree, group, options, SessionTuning(), kNoRetire,
      [&checks](const GroupSession::Snapshot& snap, const MsrResult& r) {
        checks.OnRecompute(snap, r);
      },
      [&checks](const GroupSession::Snapshot& snap, uint32_t po) {
        checks.OnClean(snap, po);
      });
  const SimMetrics served = RunSingleGroup(pois, tree, group, options);
  ExpectSameDeterministicMetrics(driven, served);
  return served;
}

/// Seed list: `fallback` is the fixed ctest set, widened via the given
/// environment variable (a count or an explicit comma-separated list).
inline std::vector<uint64_t> SeedsFromEnv(const char* env_var,
                                          std::vector<uint64_t> fallback) {
  const char* env = std::getenv(env_var);
  if (env == nullptr || *env == '\0') return fallback;
  const std::string spec(env);
  std::vector<uint64_t> seeds;
  if (spec.find(',') != std::string::npos) {
    size_t pos = 0;
    while (pos < spec.size()) {
      const size_t comma = spec.find(',', pos);
      const std::string tok =
          spec.substr(pos, comma == std::string::npos ? spec.npos
                                                      : comma - pos);
      if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 0));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return seeds;
  }
  const unsigned long long count = std::strtoull(spec.c_str(), nullptr, 0);
  for (unsigned long long i = 0; i < count; ++i) {
    seeds.push_back(fallback.front() + i);
  }
  return seeds;
}

inline std::string SeedName(const testing::TestParamInfo<uint64_t>& info) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seed_%llx",
                static_cast<unsigned long long>(info.param));
  return buf;
}

}  // namespace fuzz
}  // namespace mpn
