// Engine-layer tests: thread-pool primitives, multi-group determinism
// across thread counts, multi-session vs one-session equivalence,
// per-round stats, and a 64-group integration run (suites named
// *Integration* are registered under the `integration` ctest label;
// everything else is `unit`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/digest.h"
#include "engine/engine.h"
#include "engine/session_codec.h"
#include "engine_fuzz_util.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace mpn {
namespace {

// --- Thread pool ------------------------------------------------------------

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // The first task holds the single worker, so the other 32 are still
    // queued when the destructor starts.
    pool.Post(
        [](void*, void*) noexcept {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        },
        nullptr, nullptr, 0);
    for (int i = 0; i < 32; ++i) {
      pool.Post(
          [](void* a, void*) noexcept { ++*static_cast<std::atomic<int>*>(a); },
          &ran, nullptr, 1);
    }
    // Destructor must wait for all 32, not drop queued ones.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, CurrentWorkerIsTheRunningWorkersIndex) {
  // Two tasks that wait for each other run on both workers at once; each
  // records the index CurrentWorker gives it, so the two must differ.
  struct Meet {
    ThreadPool* pool = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::vector<size_t> seen;
  };
  Meet meet;
  {
    ThreadPool pool(2);
    meet.pool = &pool;
    for (int i = 0; i < 2; ++i) {
      pool.Post(
          [](void* a, void*) noexcept {
            Meet* mt = static_cast<Meet*>(a);
            const size_t worker = mt->pool->CurrentWorker();
            std::unique_lock<std::mutex> lock(mt->mu);
            mt->seen.push_back(worker);
            ++mt->arrived;
            mt->cv.notify_all();
            mt->cv.wait(lock, [mt]() { return mt->arrived == 2; });
          },
          &meet, nullptr, 0);
    }
  }  // the destructor drains the queue
  std::sort(meet.seen.begin(), meet.seen.end());
  EXPECT_EQ(meet.seen, (std::vector<size_t>{0, 1}));
}

TEST(ThreadPoolTest, PostRunsInPriorityOrder) {
  // Gate the single worker, queue out of order, then observe that the
  // priority heap replays the queue smallest-priority-first, and equal
  // priorities in the order they were posted — the (priority, seq) rule
  // the scheduler's ready queue relies on.
  struct Log {
    std::mutex mu;
    std::condition_variable cv;
    bool gate_open = false;
    std::vector<int> order;
  };
  struct Entry {
    Log* log;
    int tag;
  };
  Log log;
  // {tag, priority}: tags 10, 11, 12 share priority 1 and 20, 21 share 2.
  const std::vector<std::pair<int, uint64_t>> posted = {
      {3, 3}, {10, 1}, {20, 2}, {11, 1}, {21, 2}, {12, 1}};
  std::vector<Entry> entries;
  for (const auto& [tag, priority] : posted) entries.push_back({&log, tag});
  {
    ThreadPool pool(1);
    pool.Post(
        [](void* a, void*) noexcept {
          Log* l = static_cast<Log*>(a);
          std::unique_lock<std::mutex> lock(l->mu);
          l->cv.wait(lock, [l]() { return l->gate_open; });
        },
        &log, nullptr, 0);
    for (size_t i = 0; i < entries.size(); ++i) {
      pool.Post(
          [](void* a, void*) noexcept {
            const Entry* e = static_cast<const Entry*>(a);
            std::lock_guard<std::mutex> lock(e->log->mu);
            e->log->order.push_back(e->tag);
          },
          &entries[i], nullptr, posted[i].second);
    }
    {
      std::lock_guard<std::mutex> lock(log.mu);
      log.gate_open = true;
    }
    log.cv.notify_all();
  }  // the destructor drains the queue
  EXPECT_EQ(log.order, (std::vector<int>{10, 11, 12, 20, 21, 3}));
}

// --- Engine -----------------------------------------------------------------

using fuzz::MakeEngineOptions;
using fuzz::MakeWorld;
using fuzz::World;

uint64_t RunEngine(const World& w, size_t n_groups, size_t threads,
                   SimMetrics* total = nullptr,
                   std::vector<SimMetrics>* per_session = nullptr) {
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads));
  for (size_t g = 0; g < n_groups; ++g) {
    engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                         &w.trajs[3 * g + 2]});
  }
  engine.Start();
  engine.Shutdown();
  if (total != nullptr) *total = engine.TotalMetrics();
  if (per_session != nullptr) {
    per_session->clear();
    for (uint32_t id = 0; id < n_groups; ++id) {
      per_session->push_back(fuzz::ResultOf(engine, id).metrics);
    }
  }
  return engine.ResultDigest();
}

TEST(EngineTest, BitIdenticalAcrossThreadCounts) {
  const World w = MakeWorld(300, 6, 200, 0xE7617E);
  std::vector<SimMetrics> sessions1;
  const uint64_t d1 = RunEngine(w, 6, 1, nullptr, &sessions1);
  for (size_t threads : {2u, 4u, 7u}) {
    std::vector<SimMetrics> sessions;
    const uint64_t d = RunEngine(w, 6, threads, nullptr, &sessions);
    EXPECT_EQ(d, d1) << "digest diverged at " << threads << " threads";
    ASSERT_EQ(sessions.size(), sessions1.size());
    for (size_t g = 0; g < sessions.size(); ++g) {
      EXPECT_EQ(sessions[g].updates, sessions1[g].updates) << "group " << g;
      EXPECT_EQ(sessions[g].result_changes, sessions1[g].result_changes);
      EXPECT_EQ(sessions[g].comm.TotalPackets(),
                sessions1[g].comm.TotalPackets());
    }
  }
}

TEST(EngineTest, NodeAccessCountersStableAcrossVerifyThreadCounts) {
  // R-tree node accesses are accumulated from thread-local counters via
  // tight per-call deltas (candidates.cc, tile_msr.cc). Sessions recompute
  // concurrently on pooled worker threads, and no recompute may pick up
  // another's accesses, so the per-recompute totals — and hence the figure
  // counters — are identical at every thread count. The digest leaves
  // node accesses out (engine/digest.h), so this is their only check.
  const World w = MakeWorld(300, 4, 200, 0xACCE55);
  SimMetrics base;
  RunEngine(w, 4, 1, &base);
  EXPECT_GT(base.msr.rtree_node_accesses, 0u);
  for (size_t threads : {2u, 4u}) {
    SimMetrics m;
    RunEngine(w, 4, threads, &m);
    EXPECT_EQ(m.msr.rtree_node_accesses, base.msr.rtree_node_accesses)
        << "node-access counter drifted at " << threads << " threads";
  }
}

TEST(EngineTest, MatchesIndependentSimulatorRuns) {
  // A multi-session engine must produce exactly the merged metrics of the
  // groups run one at a time, each on its own one-session engine.
  const World w = MakeWorld(250, 3, 150, 0xBEEF01);
  SimMetrics engine_total;
  RunEngine(w, 3, 2, &engine_total);
  SimOptions opt;
  opt.server = MakeEngineOptions(1).sim.server;
  SimMetrics separate;
  for (size_t g = 0; g < 3; ++g) {
    separate.Merge(fuzz::RunSingleGroup(
        &w.pois, &w.tree,
        {&w.trajs[3 * g], &w.trajs[3 * g + 1], &w.trajs[3 * g + 2]}, opt));
  }
  EXPECT_EQ(engine_total.timestamps, separate.timestamps);
  EXPECT_EQ(engine_total.updates, separate.updates);
  EXPECT_EQ(engine_total.result_changes, separate.result_changes);
  EXPECT_EQ(engine_total.comm.TotalMessages(), separate.comm.TotalMessages());
  EXPECT_EQ(engine_total.comm.TotalPackets(), separate.comm.TotalPackets());
  EXPECT_EQ(engine_total.msr.tiles_added, separate.msr.tiles_added);
  EXPECT_EQ(engine_total.msr.verify.calls, separate.msr.verify.calls);
  EXPECT_EQ(engine_total.msr.rtree_node_accesses,
            separate.msr.rtree_node_accesses);
}

TEST(EngineTest, RoundStatsAccountForAllWork) {
  const World w = MakeWorld(250, 4, 180, 0xC0FFEE);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  for (size_t g = 0; g < 4; ++g) {
    engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                         &w.trajs[3 * g + 2]});
  }
  engine.Start();
  engine.Shutdown();
  const EngineRoundStats& rs = engine.round_stats();
  const SimMetrics total = engine.TotalMetrics();
  EXPECT_EQ(rs.rounds, 180u);  // all horizons equal -> one round per ts
  EXPECT_EQ(static_cast<size_t>(rs.recomputes_per_round.Sum()),
            total.updates);
  EXPECT_EQ(static_cast<size_t>(rs.messages_per_round.Sum()),
            total.comm.TotalMessages());
  // First round: no session holds a region yet, so every one recomputes.
  EXPECT_EQ(static_cast<size_t>(rs.recomputes_per_round.Max()), 4u);
  // The table renders one row per metric.
  EXPECT_NE(rs.ToTable().ToString().find("recomputes/round"),
            std::string::npos);
}

TEST(EngineTest, SessionsWithDifferentHorizonsFinishIndependently) {
  const World w = MakeWorld(200, 2, 120, 0xD15C0);
  EngineOptions opt = MakeEngineOptions(2);
  Engine engine(&w.pois, &w.tree, opt);
  // Session 0 sees the full 120 timestamps, session 1 only 60.
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
  std::vector<Trajectory> short_trajs;
  for (size_t i = 3; i < 6; ++i) {
    Trajectory t = w.trajs[i];
    t.positions.resize(60);
    short_trajs.push_back(std::move(t));
  }
  engine.AdmitSession({&short_trajs[0], &short_trajs[1], &short_trajs[2]});
  engine.Start();
  engine.Shutdown();
  EXPECT_EQ(fuzz::ResultOf(engine, 0).metrics.timestamps, 120u);
  EXPECT_EQ(fuzz::ResultOf(engine, 1).metrics.timestamps, 60u);
  EXPECT_EQ(engine.round_stats().rounds, 120u);
}

// --- Session lifecycle ------------------------------------------------------

TEST(EngineLifecycleTest, RunTwiceIsAHardError) {
  const World w = MakeWorld(150, 1, 40, 0x2E0);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
  engine.Start();
  EXPECT_THROW(engine.Start(), std::logic_error);  // while serving
  engine.Shutdown();
  EXPECT_THROW(engine.Start(), std::logic_error);  // after the run
}

TEST(EngineLifecycleTest, UnknownSessionIdsAreRejected) {
  const World w = MakeWorld(150, 1, 30, 0x2E9);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
  EXPECT_THROW(engine.RetireSession(0, 10), std::out_of_range);
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
  engine.Start();
  engine.Shutdown();
  EXPECT_NO_THROW(fuzz::ResultOf(engine, 0));
  EXPECT_THROW(fuzz::ResultOf(engine, 1), std::out_of_range);
  EXPECT_THROW(engine.RetireSession(1), std::out_of_range);
}

// A malformed admission throws std::invalid_argument before an id is
// reserved: the session count does not move, and a valid admission after it
// gets id 0 and the digest of an engine that never saw the bad one. The
// engine is started, so a bad session that got in would run at once.
void ExpectAdmissionRejected(const World& w,
                             const std::vector<const Trajectory*>& bad_group,
                             const SessionTuning& bad_tuning) {
  const std::vector<const Trajectory*> good = {&w.trajs[0], &w.trajs[1],
                                               &w.trajs[2]};
  Engine clean(&w.pois, &w.tree, MakeEngineOptions(2));
  clean.AdmitSession(good);
  clean.Start();
  clean.Shutdown();

  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  Engine::Hold hold = engine.AcquireHold();
  engine.Start();
  EXPECT_THROW(engine.AdmitSession(bad_group, bad_tuning),
               std::invalid_argument);
  EXPECT_EQ(engine.session_count(), 0u);
  EXPECT_EQ(engine.AdmitSession(good), 0u);
  hold.Reset();
  engine.Shutdown();
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_EQ(engine.ResultDigest(), clean.ResultDigest());
}

SessionTuning CostFactor(double factor) {
  SessionTuning tuning;
  tuning.recompute_cost_factor = factor;
  return tuning;
}

TEST(EngineLifecycleTest, RejectsEmptyGroup) {
  const World w = MakeWorld(150, 1, 40, 0x2EA);
  ExpectAdmissionRejected(w, {}, SessionTuning());
}

TEST(EngineLifecycleTest, RejectsNullTrajectory) {
  const World w = MakeWorld(150, 1, 40, 0x2EA);
  ExpectAdmissionRejected(w, {&w.trajs[0], nullptr, &w.trajs[2]},
                          SessionTuning());
}

TEST(EngineLifecycleTest, RejectsEmptyTrajectory) {
  const World w = MakeWorld(150, 1, 40, 0x2EA);
  const Trajectory empty;
  ExpectAdmissionRejected(w, {&w.trajs[0], &empty}, SessionTuning());
}

TEST(EngineLifecycleTest, RejectsCostFactorBelowOne) {
  const World w = MakeWorld(150, 1, 40, 0x2EA);
  ExpectAdmissionRejected(w, {&w.trajs[0], &w.trajs[1]}, CostFactor(0.5));
}

TEST(EngineLifecycleTest, RejectsNanCostFactor) {
  const World w = MakeWorld(150, 1, 40, 0x2EA);
  ExpectAdmissionRejected(
      w, {&w.trajs[0], &w.trajs[1]},
      CostFactor(std::numeric_limits<double>::quiet_NaN()));
}

TEST(EngineLifecycleTest, RejectsInfiniteCostFactor) {
  const World w = MakeWorld(150, 1, 40, 0x2EA);
  ExpectAdmissionRejected(
      w, {&w.trajs[0], &w.trajs[1]},
      CostFactor(std::numeric_limits<double>::infinity()));
}

TEST(EngineLifecycleTest, RejectsMismatchedPoisAndTree) {
  // A tree built from another POI set used to pass the constructor and
  // abort the process at the first admission, after an id was reserved.
  const World w = MakeWorld(150, 1, 40, 0x2EA);
  const std::vector<Point> two(w.pois.begin(), w.pois.begin() + 2);
  const PackedRTree two_tree = PackedRTree::Build(two);
  const EngineOptions opt = MakeEngineOptions(1);
  EXPECT_THROW(Engine(&w.pois, &two_tree, opt), std::invalid_argument);
  EXPECT_THROW(Engine(&two, &w.tree, opt), std::invalid_argument);
  EXPECT_THROW(Engine(nullptr, &w.tree, opt), std::invalid_argument);
  EXPECT_THROW(Engine(&w.pois, nullptr, opt), std::invalid_argument);
  Engine engine(&two, &two_tree, opt);
  EXPECT_EQ(engine.AdmitSession(fuzz::GroupOf(w, 0)), 0u);
  engine.Start();
  engine.Shutdown();
  EXPECT_EQ(fuzz::ResultOf(engine, 0).metrics.timestamps, 40u);
}

TEST(EngineLifecycleTest, ConcurrentAdmissionsGetDenseIds) {
  // The session table is callable from any thread: four threads admitting
  // 16 groups each into a started engine get exactly the ids 0-63, and the
  // digest equals a serial engine's that admits the same groups in id
  // order (the digest reads sessions in id order).
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 16;
  constexpr size_t kGroups = kThreads * kPerThread;
  const World w = MakeWorld(200, kGroups, 30, 0x2EC);
  EngineOptions opt = MakeEngineOptions(2);
  opt.sim.server.method = Method::kCircle;  // cheap recomputes
  const auto group_of = [&w](size_t g) {
    return std::vector<const Trajectory*>{&w.trajs[3 * g], &w.trajs[3 * g + 1],
                                          &w.trajs[3 * g + 2]};
  };

  std::vector<size_t> group_by_id(kGroups, kGroups);
  uint64_t concurrent = 0;
  {
    Engine engine(&w.pois, &w.tree, opt);
    Engine::Hold hold = engine.AcquireHold();
    engine.Start();
    std::atomic<bool> go{false};
    std::vector<std::vector<uint32_t>> ids(kThreads);
    std::vector<std::thread> admitters;
    for (size_t k = 0; k < kThreads; ++k) {
      admitters.emplace_back([&, k]() {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (size_t i = 0; i < kPerThread; ++i) {
          ids[k].push_back(engine.AdmitSession(group_of(k * kPerThread + i)));
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : admitters) t.join();
    hold.Reset();
    engine.Shutdown();
    for (size_t k = 0; k < kThreads; ++k) {
      for (size_t i = 0; i < kPerThread; ++i) {
        const uint32_t id = ids[k][i];
        ASSERT_LT(id, kGroups);
        EXPECT_EQ(group_by_id[id], kGroups) << "id " << id << " given twice";
        group_by_id[id] = k * kPerThread + i;
      }
    }
    EXPECT_EQ(engine.session_count(), kGroups);
    concurrent = engine.ResultDigest();
  }

  EngineOptions serial_opt = opt;
  serial_opt.threads = 1;
  Engine serial(&w.pois, &w.tree, serial_opt);
  for (size_t id = 0; id < kGroups; ++id) {
    EXPECT_EQ(serial.AdmitSession(group_of(group_by_id[id])), id);
  }
  serial.Start();
  serial.Shutdown();
  EXPECT_EQ(serial.ResultDigest(), concurrent);
}

TEST(EngineLifecycleTest, AdmissionsRacingStartAllRun) {
  // Four threads admit 16 groups each while the main thread calls Start:
  // an id reserved before Start but inserted after it is the start links'
  // skip path, and its own Admit must schedule it. Every session serves
  // its whole horizon, and the digest equals a serial engine's that
  // admits the same groups in id order.
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 16;
  constexpr size_t kGroups = kThreads * kPerThread;
  const World w = MakeWorld(200, kGroups, 30, 0x57A2);
  const auto group_of = [&w](size_t g) {
    return std::vector<const Trajectory*>{&w.trajs[3 * g], &w.trajs[3 * g + 1],
                                          &w.trajs[3 * g + 2]};
  };
  const auto horizon_of = [&group_of](size_t g) {
    size_t h = std::numeric_limits<size_t>::max();
    for (const Trajectory* t : group_of(g)) h = std::min(h, t->size());
    return h;
  };

  for (const size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineOptions opt = MakeEngineOptions(threads);
    opt.sim.server.method = Method::kCircle;  // cheap recomputes
    std::vector<size_t> group_by_id(kGroups, kGroups);
    uint64_t racing = 0;
    {
      Engine engine(&w.pois, &w.tree, opt);
      Engine::Hold hold = engine.AcquireHold();
      std::atomic<size_t> begun{0};
      std::vector<std::vector<uint32_t>> ids(kThreads);
      std::vector<std::thread> admitters;
      for (size_t k = 0; k < kThreads; ++k) {
        admitters.emplace_back([&, k]() {
          begun.fetch_add(1, std::memory_order_acq_rel);
          for (size_t i = 0; i < kPerThread; ++i) {
            ids[k].push_back(engine.AdmitSession(group_of(k * kPerThread + i)));
          }
        });
      }
      while (begun.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      engine.Start();
      for (std::thread& t : admitters) t.join();
      hold.Reset();
      engine.Shutdown();
      for (size_t k = 0; k < kThreads; ++k) {
        for (size_t i = 0; i < kPerThread; ++i) {
          const uint32_t id = ids[k][i];
          ASSERT_LT(id, kGroups);
          EXPECT_EQ(group_by_id[id], kGroups) << "id " << id << " given twice";
          group_by_id[id] = k * kPerThread + i;
        }
      }
      ASSERT_EQ(engine.session_count(), kGroups);
      for (uint32_t id = 0; id < kGroups; ++id) {
        EXPECT_EQ(fuzz::ResultOf(engine, id).metrics.timestamps,
                  horizon_of(group_by_id[id]))
            << "session " << id << " did not serve its horizon";
      }
      racing = engine.ResultDigest();
    }

    EngineOptions serial_opt = opt;
    serial_opt.threads = 1;
    Engine serial(&w.pois, &w.tree, serial_opt);
    for (size_t id = 0; id < kGroups; ++id) {
      EXPECT_EQ(serial.AdmitSession(group_of(group_by_id[id])), id);
    }
    serial.Start();
    serial.Shutdown();
    EXPECT_EQ(serial.ResultDigest(), racing);
  }
}

TEST(EngineLifecycleTest, WaitBeforeStartIsAHardError) {
  const World w = MakeWorld(120, 1, 20, 0x2E2);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
  EXPECT_THROW(engine.Wait(), std::logic_error);
}

TEST(EngineLifecycleTest, ZeroHorizonSessionFinishesWithNoWork) {
  const World w = MakeWorld(150, 2, 40, 0x2E3);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  SessionTuning zero;
  zero.retire_at = 0;  // retired before its first timestamp
  const uint32_t z = engine.AdmitSession(
      {&w.trajs[0], &w.trajs[1], &w.trajs[2]}, zero);
  const uint32_t live = engine.AdmitSession(
      {&w.trajs[3], &w.trajs[4], &w.trajs[5]});
  engine.Start();
  engine.Shutdown();
  EXPECT_EQ(fuzz::ResultOf(engine, z).metrics.timestamps, 0u);
  EXPECT_EQ(fuzz::ResultOf(engine, z).metrics.updates, 0u);
  EXPECT_EQ(fuzz::ResultOf(engine, live).metrics.timestamps, 40u);
  EXPECT_GT(fuzz::ResultOf(engine, live).metrics.updates, 0u);
}

TEST(EngineLifecycleTest, SingleUserGroupRunsTheProtocol) {
  const World w = MakeWorld(150, 1, 60, 0x2E4);
  uint64_t digest1 = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads));
    engine.AdmitSession({&w.trajs[0]});
    engine.Start();
    engine.Shutdown();
    const SimMetrics m = fuzz::ResultOf(engine, 0).metrics;
    EXPECT_EQ(m.timestamps, 60u);
    EXPECT_GT(m.updates, 0u);
    // m = 1: one location update + one result message per round, no probes.
    EXPECT_EQ(m.comm.messages(MessageType::kProbe), 0u);
    if (threads == 1) {
      digest1 = engine.ResultDigest();
    } else {
      EXPECT_EQ(engine.ResultDigest(), digest1);
    }
  }
}

TEST(EngineLifecycleTest, MidRunAdmissionMatchesUpfrontAdmission) {
  // Sessions are independent, so admitting them while the engine is
  // draining must produce exactly the digest of admitting them up front.
  const World w = MakeWorld(250, 4, 120, 0x2E5);
  uint64_t upfront = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    for (size_t g = 0; g < 4; ++g) {
      engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                           &w.trajs[3 * g + 2]});
    }
    engine.Start();
    engine.Shutdown();
    upfront = engine.ResultDigest();
  }
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  Engine::Hold hold = engine.AcquireHold();
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
  engine.Start();
  for (size_t g = 1; g < 4; ++g) {
    engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                         &w.trajs[3 * g + 2]});
  }
  hold.Reset();
  engine.Wait();
  EXPECT_EQ(engine.ResultDigest(), upfront);
}

TEST(EngineLifecycleTest, RetireWhileRecomputingCompletesCleanly) {
  // A straggler session (every recomputation padded 50x) gets retired
  // "now" while its recompute jobs are in flight; the engine must drain
  // without deadlock and the session must keep a consistent prefix.
  const World w = MakeWorld(200, 2, 150, 0x2E6);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  SessionTuning slow;
  slow.recompute_cost_factor = 50.0;
  const uint32_t straggler = engine.AdmitSession(
      {&w.trajs[0], &w.trajs[1], &w.trajs[2]}, slow);
  const uint32_t normal = engine.AdmitSession(
      {&w.trajs[3], &w.trajs[4], &w.trajs[5]});
  Engine::Hold hold = engine.AcquireHold();
  engine.Start();
  engine.RetireSession(straggler);  // asap — lands mid-recompute
  hold.Reset();
  engine.Wait();
  EXPECT_LE(fuzz::ResultOf(engine, straggler).metrics.timestamps, 150u);
  EXPECT_EQ(fuzz::ResultOf(engine, normal).metrics.timestamps, 150u);
  EXPECT_GT(fuzz::ResultOf(engine, normal).metrics.updates, 0u);
}

TEST(EngineLifecycleTest, ChurnDigestBitIdenticalAcrossThreadCounts) {
  // Admission mid-run plus scheduled retirements (deterministic horizon
  // truncation) must leave the digest bit-identical across thread counts.
  const World w = MakeWorld(300, 6, 160, 0x2E7);
  const auto run = [&w](size_t threads) {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads));
    Engine::Hold hold = engine.AcquireHold();
    // Two sessions up front, one of them retiring at t=70.
    SessionTuning early;
    early.retire_at = 70;
    engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]}, early);
    engine.AdmitSession({&w.trajs[3], &w.trajs[4], &w.trajs[5]});
    engine.Start();
    // Admit the rest while the engine drains; one with a tiny mailbox,
    // one retiring mid-run, one zero-horizon.
    SessionTuning tiny_mailbox;
    tiny_mailbox.mailbox_capacity = 1;
    engine.AdmitSession({&w.trajs[6], &w.trajs[7], &w.trajs[8]},
                        tiny_mailbox);
    SessionTuning mid;
    mid.retire_at = 40;
    engine.AdmitSession({&w.trajs[9], &w.trajs[10], &w.trajs[11]}, mid);
    SessionTuning zero;
    zero.retire_at = 0;
    engine.AdmitSession({&w.trajs[12], &w.trajs[13], &w.trajs[14]}, zero);
    engine.AdmitSession({&w.trajs[15], &w.trajs[16], &w.trajs[17]});
    hold.Reset();
    engine.Wait();
    EXPECT_EQ(fuzz::ResultOf(engine, 0).metrics.timestamps, 70u);
    EXPECT_EQ(fuzz::ResultOf(engine, 3).metrics.timestamps, 40u);
    EXPECT_EQ(fuzz::ResultOf(engine, 4).metrics.timestamps, 0u);
    return engine.ResultDigest();
  };
  const uint64_t d1 = run(1);
  EXPECT_EQ(run(2), d1);
  EXPECT_EQ(run(4), d1);
}

TEST(EngineLifecycleTest, BoundedMailboxStallsButStaysDeterministic) {
  // Capacity 0 disables buffering entirely (the session stalls during
  // recomputation); results must match the default capacity bit-for-bit.
  const World w = MakeWorld(200, 2, 100, 0x2E8);
  uint64_t digests[2];
  size_t i = 0;
  for (size_t capacity : {size_t{0}, size_t{16}}) {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    SessionTuning tuning;
    tuning.mailbox_capacity = capacity;
    engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]}, tuning);
    engine.AdmitSession({&w.trajs[3], &w.trajs[4], &w.trajs[5]}, tuning);
    engine.Start();
    engine.Shutdown();
    digests[i++] = engine.ResultDigest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// --- Serving loop (Wait drains, Shutdown finishes) ---------------------------

TEST(EngineServingLoopTest, WaitServesMultipleAdmissionWaves) {
  // Wait() drains the sessions admitted so far but keeps the engine
  // serving: admit/Wait cycles must repeat, and the final digest must be
  // exactly the one-shot digest over the same admission order.
  const World w = MakeWorld(250, 4, 100, 0x5E71);
  uint64_t oneshot = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    for (size_t g = 0; g < 4; ++g) {
      engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                           &w.trajs[3 * g + 2]});
    }
    engine.Start();
    engine.Shutdown();
    oneshot = engine.ResultDigest();
  }
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  // After every Wait the mailbox marks hold one observation per session
  // admitted so far, and they sum to what the sessions themselves report
  // (under MPN_MEMORY_BUDGET the finals are read back from the spill file).
  const auto expect_mailbox_marks_cover_every_session = [&engine]() {
    const EngineRoundStats& rs = engine.round_stats();
    double peaks = 0.0, stalls = 0.0;
    for (uint32_t id = 0; id < engine.session_count(); ++id) {
      engine.WithSessionResult(id, [&](const SessionFinalResult& fr) {
        peaks += static_cast<double>(fr.mailbox_peak);
        stalls += static_cast<double>(fr.stall_count);
      });
    }
    EXPECT_EQ(rs.mailbox_peak_per_session.count(), engine.session_count());
    EXPECT_EQ(rs.mailbox_stalls_per_session.count(), engine.session_count());
    EXPECT_EQ(rs.mailbox_peak_per_session.Sum(), peaks);
    EXPECT_EQ(rs.mailbox_stalls_per_session.Sum(), stalls);
  };
  engine.Start();
  SessionTuning unbuffered;  // capacity 0: every flight stalls
  unbuffered.mailbox_capacity = 0;
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]}, unbuffered);
  engine.AdmitSession({&w.trajs[3], &w.trajs[4], &w.trajs[5]}, unbuffered);
  engine.Wait();
  // First wave fully drained; results already consistent.
  EXPECT_EQ(fuzz::ResultOf(engine, 0).metrics.timestamps, 100u);
  EXPECT_EQ(fuzz::ResultOf(engine, 1).metrics.timestamps, 100u);
  EXPECT_EQ(engine.round_stats().rounds, 100u);
  expect_mailbox_marks_cover_every_session();
  EXPECT_GT(engine.round_stats().mailbox_stalls_per_session.Sum(), 0.0);
  // Second wave: the engine is still a server.
  for (size_t g = 2; g < 4; ++g) {
    engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                         &w.trajs[3 * g + 2]});
  }
  engine.Wait();
  expect_mailbox_marks_cover_every_session();
  engine.Wait();  // re-draining an idle engine is a no-op
  expect_mailbox_marks_cover_every_session();
  EXPECT_EQ(engine.session_count(), 4u);
  EXPECT_EQ(engine.ResultDigest(), oneshot);
  engine.Shutdown();
  engine.Shutdown();  // idempotent
  EXPECT_EQ(engine.ResultDigest(), oneshot);
  EXPECT_THROW(engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]}),
               std::logic_error);
}

TEST(EngineServingLoopTest, FinishedSessionsNeedNoTrajectories) {
  // AdmitSession's lifetime contract: a group's trajectories need to
  // outlive only the first Wait() after its admission, because every
  // session admitted before it is final then and holds no pointer into
  // them. Wave 1's trajectories are overwritten and freed right after that
  // Wait; a later read of them would move the results below (and is a
  // heap-use-after-free under ASan). The reference keeps every trajectory
  // alive throughout.
  const World w = MakeWorld(250, 4, 100, 0x5E73);
  const auto group_of = [](const std::vector<Trajectory>& trajs, size_t g) {
    return std::vector<const Trajectory*>{&trajs[3 * g], &trajs[3 * g + 1],
                                          &trajs[3 * g + 2]};
  };
  uint64_t ref_digest = 0;
  SimMetrics ref_total;
  std::vector<SessionFinalResult> ref_results;
  {
    Engine ref(&w.pois, &w.tree, MakeEngineOptions(2));
    ref.Start();
    for (size_t g = 0; g < 2; ++g) ref.AdmitSession(group_of(w.trajs, g));
    ref.Wait();
    for (size_t g = 2; g < 4; ++g) ref.AdmitSession(group_of(w.trajs, g));
    ref.Shutdown();
    ref_digest = ref.ResultDigest();
    ref_total = ref.TotalMetrics();
    for (uint32_t id = 0; id < 4; ++id) {
      ref_results.push_back(fuzz::ResultOf(ref, id));
    }
  }

  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  engine.Start();
  auto wave1 = std::make_unique<std::vector<Trajectory>>(
      w.trajs.begin(), w.trajs.begin() + 6);
  for (size_t g = 0; g < 2; ++g) engine.AdmitSession(group_of(*wave1, g));
  engine.Wait();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Trajectory& t : *wave1) {
    for (Point& p : t.positions) p = Point{nan, nan};
  }
  wave1.reset();
  for (size_t g = 2; g < 4; ++g) engine.AdmitSession(group_of(w.trajs, g));
  engine.Shutdown();

  EXPECT_EQ(engine.ResultDigest(), ref_digest);
  fuzz::ExpectSameDeterministicMetrics(engine.TotalMetrics(), ref_total);
  for (uint32_t id = 0; id < 4; ++id) {
    SCOPED_TRACE("session " + std::to_string(id));
    const SessionFinalResult got = fuzz::ResultOf(engine, id);
    fuzz::ExpectSameDeterministicMetrics(got.metrics, ref_results[id].metrics);
    EXPECT_EQ(got.has_result, ref_results[id].has_result);
    EXPECT_EQ(got.po, ref_results[id].po);
  }
}

// --- Mailbox high-water marks ------------------------------------------------

TEST(EngineMailboxStatsTest, CapacityZeroStallCountIsDeterministic) {
  // With no mailbox at all, every recomputation that still has timestamps
  // ahead stalls the clock — a count fixed by the logical step order, so
  // it must match across thread counts; the digest must not move against
  // the default capacity.
  const World w = MakeWorld(200, 2, 100, 0x5E72);
  uint64_t default_digest = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
    engine.Start();
    engine.Shutdown();
    default_digest = engine.ResultDigest();
  }
  size_t stalls_1thread = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads));
    SessionTuning unbuffered;
    unbuffered.mailbox_capacity = 0;
    engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]}, unbuffered);
    engine.Start();
    engine.Shutdown();
    EXPECT_EQ(engine.ResultDigest(), default_digest)
        << "capacity must not change the digest (threads=" << threads << ")";
    const SessionFinalResult result = fuzz::ResultOf(engine, 0);
    EXPECT_GT(result.stall_count, 0u);
    EXPECT_EQ(result.mailbox_peak, 0u);
    if (threads == 1) {
      stalls_1thread = result.stall_count;
    } else {
      EXPECT_EQ(result.stall_count, stalls_1thread);
    }
  }
}

TEST(EngineMailboxStatsTest, CapacityOneReportsStallsWithoutChangingDigest) {
  // A capacity-1 mailbox fills on the first buffered update of every
  // recomputation flight: with a second worker draining location updates
  // while the (padded) recompute runs, stalls must be reported — and the
  // digest must still be bit-identical to the default-capacity run.
  const World w = MakeWorld(200, 2, 120, 0x5E73);
  uint64_t default_digest = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
    engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
    engine.Start();
    engine.Shutdown();
    default_digest = engine.ResultDigest();
  }
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2));
  SessionTuning tiny;
  tiny.mailbox_capacity = 1;
  tiny.recompute_cost_factor = 10.0;  // widen the buffering window
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]}, tiny);
  engine.Start();
  engine.Shutdown();
  EXPECT_EQ(engine.ResultDigest(), default_digest);
  const EngineRoundStats& rs = engine.round_stats();
  EXPECT_GT(rs.mailbox_stalls_per_session.Sum(), 0.0);
  EXPECT_EQ(rs.mailbox_peak_per_session.Max(), 1.0);
  EXPECT_EQ(fuzz::ResultOf(engine, 0).mailbox_peak, 1u);
  // The marks are surfaced in the rendered stats table.
  const std::string table = rs.ToTable().ToString();
  EXPECT_NE(table.find("mailbox_peak/session"), std::string::npos);
  EXPECT_NE(table.find("mailbox_stalls/session"), std::string::npos);
}

// --- A bare GroupSession, phase by phase ------------------------------------

// Encodes the session's state at a drained boundary, decodes it into a
// fresh session and checks that its export encodes to the same bytes.
void ExpectStateRoundTrips(const GroupSession& s, const World& w,
                           const std::vector<const Trajectory*>& group,
                           const SimOptions& opt, const SessionTuning& tuning) {
  WireBuffer first;
  EncodeLiveSession(s.ExportState(), &first);
  WireReader r(first.data());
  ASSERT_EQ(ReadSnapshotHeader(&r), SnapshotKind::kLive);
  GroupSession fresh(s.id(), &w.pois, &w.tree, group, opt, tuning);
  fresh.ImportState(DecodeLiveSession(&r));
  WireBuffer second;
  EncodeLiveSession(fresh.ExportState(), &second);
  EXPECT_EQ(second.data(), first.data()) << "t " << s.next_timestamp();
}

/// Expects the same slot count and, slot by slot, the same message and
/// recompute columns (the seconds are wall-clock).
void ExpectSameCountColumns(const SlotTotals& got, const SlotTotals& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(got[t].messages, want[t].messages) << "t " << t;
    EXPECT_EQ(got[t].recomputes, want[t].recomputes) << "t " << t;
  }
}

uint64_t SessionDigest(const GroupSession& s) {
  Fnv1a fnv;
  AddSessionResultToDigest(&fnv, s.metrics(), s.has_result(),
                           s.current_po());
  return fnv.hash;
}

TEST(GroupSessionTest, BufferedDriveMatchesUnbufferedDrive) {
  // One thread drives the phases the scheduler would: after every
  // violation the flight buffers until the mailbox is full, then the
  // recompute, the install and the replay run until the mailbox drains or
  // a replayed update violates; such a violation buffers again (behind the
  // updates still queued) before its own install. The logical step order
  // equals the unbuffered drive's, so every digested field and the count
  // columns of the slot totals each drive was handed must too, and the
  // session must export and re-import exactly whenever the mailbox is
  // drained.
  const World w = MakeWorld(120, 1, 160, 0x6B0F);
  const std::vector<const Trajectory*> group = {&w.trajs[0], &w.trajs[1]};
  SimOptions opt;
  opt.server.method = Method::kCircle;
  opt.server.objective = Objective::kMax;
  SessionTuning tuning;
  tuning.mailbox_capacity = 3;

  GroupSession plain(0, &w.pois, &w.tree, group, opt, tuning);
  SlotTotals plain_slots;
  GroupSession::Snapshot snap;
  while (!plain.AdvancesExhausted()) {
    if (!plain.AdvanceAndCheck(&snap, &plain_slots)) continue;
    plain.InstallResult(plain.Recompute(snap, &plain_slots), &plain_slots);
    ASSERT_EQ(plain.ReplayOne(&snap, &plain_slots),
              GroupSession::Replay::kEmpty);
  }
  plain.Finish();

  GroupSession buffered(0, &w.pois, &w.tree, group, opt, tuning);
  SlotTotals buffered_slots;
  size_t flights = 0;
  size_t queued_violations = 0;  // replay violations with updates left
  while (!buffered.AdvancesExhausted()) {
    ASSERT_TRUE(buffered.MailboxEmpty());
    ExpectStateRoundTrips(buffered, w, group, opt, tuning);
    if (!buffered.AdvanceAndCheck(&snap, &buffered_slots)) continue;
    for (bool violated = true; violated;) {
      ++flights;
      while (buffered.CanBuffer()) buffered.BufferAdvance(&buffered_slots);
      buffered.InstallResult(buffered.Recompute(snap, &buffered_slots),
                             &buffered_slots);
      GroupSession::Replay rr;
      do {
        rr = buffered.ReplayOne(&snap, &buffered_slots);
      } while (rr == GroupSession::Replay::kClean);
      violated = rr == GroupSession::Replay::kViolation;
      if (violated && !buffered.MailboxEmpty()) ++queued_violations;
    }
  }
  ASSERT_TRUE(buffered.done());
  ExpectStateRoundTrips(buffered, w, group, opt, tuning);
  buffered.Finish();

  EXPECT_GT(flights, 3u);
  EXPECT_GT(queued_violations, 0u) << "the walk never violated mid-replay";
  EXPECT_EQ(buffered.mailbox_peak(), 3u);
  EXPECT_EQ(plain.mailbox_peak(), 0u);
  EXPECT_EQ(SessionDigest(buffered), SessionDigest(plain));
  EXPECT_EQ(buffered.current_po(), plain.current_po());
  EXPECT_EQ(plain_slots.size(), plain.horizon());
  ExpectSameCountColumns(buffered_slots, plain_slots);
}

// --- Per-timestamp slots ----------------------------------------------------

TEST(EngineSlotTest, SlotsMatchAnInOrderFold) {
  // Each step adds its share to the slot array of the pool worker running
  // it, and a drain merges the arrays. The message and recompute columns
  // must equal, slot by slot, a fold of the plan's sessions driven in
  // order on the test thread: a recompute adds 1 recompute and 3m - 1
  // messages (the report, m - 1 probes and replies, m results) at its
  // timestamp. Mid-run admissions, retirements, stalls, spills and the
  // thread count move no slot.
  Rng rng(0x5107'F01Dull);
  const World w = fuzz::MakeFuzzWorld(&rng, 10, 3, 24);
  const fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 10, 24);
  const SimOptions sim = MakeEngineOptions(1).sim;
  const size_t m = w.group_size;
  SlotTotals want;
  for (const fuzz::PlannedSession& s : plan.sessions) {
    const SimMetrics metrics = fuzz::DriveInOrder(
        &w.pois, &w.tree, fuzz::GroupOf(w, s.group), sim, s.tuning,
        s.prestart_retire ? s.prestart_retire_at : fuzz::kNoRetire,
        [&want, m](const GroupSession::Snapshot& snap, const MsrResult&) {
          AddToSlot(&want, snap.t, {3 * m - 1, 1, 0.0});
        });
    if (want.size() < metrics.timestamps) want.resize(metrics.timestamps);
  }
  ASSERT_GT(want.size(), 1u);

  for (const size_t cap : {size_t{0}, size_t{1}}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("cap " + std::to_string(cap) + " threads " +
                   std::to_string(threads));
      Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads, cap));
      fuzz::Replay(&engine, w, plan);
      ExpectSameCountColumns(engine.timeline_slots(), want);
      EXPECT_EQ(engine.round_stats().rounds, want.size());
    }
  }
}

TEST(EngineSlotTest, WaitRacingAdmissionsKeepsEverySlot) {
  // One thread admits with no hold while another calls Wait() and reads
  // the round stats: a Wait may find the engine idle between two
  // admissions and merge the workers' slot arrays while the next
  // admission's steps are about to write them. Once everything drained,
  // the totals equal a serial engine's, slot by slot.
  constexpr size_t kGroups = 24;
  const World w = MakeWorld(200, kGroups, 40, 0x5107'ADD5);
  EngineOptions opt = MakeEngineOptions(2);
  opt.sim.server.method = Method::kCircle;  // cheap recomputes

  EngineOptions serial_opt = opt;
  serial_opt.threads = 1;
  SlotTotals want;
  {
    Engine serial(&w.pois, &w.tree, serial_opt);
    for (size_t g = 0; g < kGroups; ++g) {
      serial.AdmitSession(fuzz::GroupOf(w, g));
    }
    serial.Start();
    serial.Shutdown();
    want = serial.timeline_slots();
  }

  Engine engine(&w.pois, &w.tree, opt);
  engine.Start();
  std::atomic<bool> admitted{false};
  std::thread admitter([&]() {
    for (size_t g = 0; g < kGroups; ++g) {
      engine.AdmitSession(fuzz::GroupOf(w, g));
    }
    admitted.store(true, std::memory_order_release);
  });
  double messages = 0.0;
  while (!admitted.load(std::memory_order_acquire)) {
    engine.Wait();
    const EngineRoundStats& rs = engine.round_stats();
    EXPECT_GE(rs.messages_per_round.Sum(), messages);
    EXPECT_LE(rs.rounds, want.size());
    messages = rs.messages_per_round.Sum();
  }
  admitter.join();
  engine.Shutdown();
  ExpectSameCountColumns(engine.timeline_slots(), want);
}

// --- 64-group integration run (labeled `integration` in ctest) --------------

TEST(EngineIntegrationTest, SixtyFourGroupsDeterministicUnderLoad) {
  const size_t kGroups = 64;
  const World w = MakeWorld(800, kGroups, 120, 0x64C0DE);
  SimMetrics serial_total, parallel_total;
  const uint64_t d_serial = RunEngine(w, kGroups, 1, &serial_total);
  const uint64_t d_parallel =
      RunEngine(w, kGroups, ThreadPool::HardwareThreads(), &parallel_total);
  EXPECT_EQ(serial_total.timestamps, kGroups * 120u);
  EXPECT_GT(serial_total.updates, kGroups);  // every group updates at t=0
  // Per-group jobs on every hardware thread leave the protocol results
  // untouched.
  EXPECT_EQ(parallel_total.updates, serial_total.updates);
  EXPECT_EQ(parallel_total.comm.TotalPackets(),
            serial_total.comm.TotalPackets());
  // And the digest is bit-identical across thread counts.
  EXPECT_EQ(d_parallel, d_serial);
  EXPECT_EQ(RunEngine(w, kGroups, 2), d_serial);
}

}  // namespace
}  // namespace mpn
