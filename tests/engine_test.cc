// Engine-layer tests: thread-pool primitives, multi-group determinism
// across thread counts, multi-session vs one-session equivalence,
// per-round stats, and a 64-group integration run (suites named
// *Integration* are registered under the `integration` ctest label;
// everything else is `unit`).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine_fuzz_util.h"
#include "sim/simulator.h"
#include "traj/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mpn {
namespace {

// --- Thread pool ------------------------------------------------------------

TEST(ThreadPoolTest, SubmitRunsTaskAndReturnsValue) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  auto future = pool.Submit([]() { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SubmitManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i]() { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&ran]() { ++ran; });
    }
    // Destructor must wait for all 32, not drop queued ones.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1237;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, 10, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForChunkLayoutIsGrainAligned) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(105, 16, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 7u);  // ceil(105/16)
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin % 16, 0u);
    EXPECT_EQ(end, std::min<size_t>(105, begin + 16));
  }
}

TEST(ThreadPoolTest, ParallelForWithoutCallerParticipationStaysOffCaller) {
  // The engine's round loop relies on this: with caller_participates off
  // (and more than one chunk), every chunk runs on a pool worker, so the
  // configured thread count is exactly the number of executors.
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::thread::id> executors;
  size_t covered = 0;
  pool.ParallelFor(
      100, 10,
      [&](size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        executors.push_back(std::this_thread::get_id());
        covered += end - begin;
      },
      /*caller_participates=*/false);
  EXPECT_EQ(covered, 100u);
  for (const auto& id : executors) EXPECT_NE(id, caller);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(100, 8,
                                [](size_t begin, size_t) {
                                  if (begin == 32) {
                                    throw std::logic_error("chunk failed");
                                  }
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Saturate the pool with outer chunks that each fan out again; the
  // caller-participates design must make progress regardless.
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, 1, [&pool, &total](size_t, size_t) {
    pool.ParallelFor(50, 4, [&total](size_t begin, size_t end) {
      total += end - begin;
    });
  });
  EXPECT_EQ(total.load(), 400u);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
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
  ThreadPool pool(1);
  Log log;
  pool.Post(
      [](void* a, void*) noexcept {
        Log* l = static_cast<Log*>(a);
        std::unique_lock<std::mutex> lock(l->mu);
        l->cv.wait(lock, [l]() { return l->gate_open; });
      },
      &log, nullptr);
  // {tag, priority}: tags 10, 11, 12 share priority 1 and 20, 21 share 2.
  const std::vector<std::pair<int, uint64_t>> posted = {
      {3, 3}, {10, 1}, {20, 2}, {11, 1}, {21, 2}, {12, 1}};
  std::vector<Entry> entries;
  for (const auto& [tag, priority] : posted) entries.push_back({&log, tag});
  for (size_t i = 0; i < entries.size(); ++i) {
    pool.Post(
        [](void* a, void*) noexcept {
          const Entry* e = static_cast<const Entry*>(a);
          std::lock_guard<std::mutex> lock(e->log->mu);
          e->log->order.push_back(e->tag);
        },
        &entries[i], nullptr, posted[i].second);
  }
  auto last = pool.Submit([]() {});  // default priority: runs after all
  {
    std::lock_guard<std::mutex> lock(log.mu);
    log.gate_open = true;
  }
  log.cv.notify_all();
  last.get();
  std::lock_guard<std::mutex> lock(log.mu);
  EXPECT_EQ(log.order, (std::vector<int>{10, 11, 12, 20, 21, 3}));
}

// --- Engine -----------------------------------------------------------------

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

EngineOptions MakeEngineOptions(size_t threads, bool parallel_verify) {
  EngineOptions opt;
  opt.threads = threads;
  opt.parallel_verify = parallel_verify;
  opt.verify_min_candidates = 2;  // tiny scenes still exercise the fan-out
  opt.sim.server.method = Method::kTileD;
  opt.sim.server.alpha = 10;
  return opt;
}

uint64_t RunEngine(const World& w, size_t n_groups, size_t threads,
                   bool parallel_verify, SimMetrics* total = nullptr,
                   std::vector<SimMetrics>* per_session = nullptr) {
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads, parallel_verify));
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
  const uint64_t d1 = RunEngine(w, 6, 1, false, nullptr, &sessions1);
  for (size_t threads : {2u, 4u, 7u}) {
    std::vector<SimMetrics> sessions;
    const uint64_t d = RunEngine(w, 6, threads, false, nullptr, &sessions);
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

TEST(EngineTest, BitIdenticalAcrossThreadCountsWithParallelVerify) {
  const World w = MakeWorld(300, 4, 200, 0xFA2007);
  const uint64_t d1 = RunEngine(w, 4, 1, true);
  EXPECT_EQ(RunEngine(w, 4, 2, true), d1);
  EXPECT_EQ(RunEngine(w, 4, 4, true), d1);
}

TEST(EngineTest, NodeAccessCountersStableAcrossVerifyThreadCounts) {
  // R-tree node accesses are accumulated from thread-local counters via
  // tight per-call deltas (candidates.cc, tile_msr.cc). The fan-out must
  // not leak or drop accesses no matter how chunks land on pooled worker
  // threads, so the per-recompute totals — and hence the figure counters —
  // are identical at every thread count.
  const World w = MakeWorld(300, 4, 200, 0xACCE55);
  SimMetrics base;
  RunEngine(w, 4, 1, true, &base);
  EXPECT_GT(base.msr.rtree_node_accesses, 0u);
  for (size_t threads : {2u, 4u}) {
    SimMetrics m;
    RunEngine(w, 4, threads, true, &m);
    EXPECT_EQ(m.msr.rtree_node_accesses, base.msr.rtree_node_accesses)
        << "node-access counter drifted at " << threads << " threads";
  }
}

TEST(EngineTest, ParallelVerifyPreservesProtocolBehavior) {
  // The fan-out changes only how candidate scans are scheduled, never which
  // tiles are accepted — so the protocol-visible results must match the
  // sequential scan exactly (verifier call counters may differ: chunks
  // don't stop at the first failing candidate of the whole list).
  const World w = MakeWorld(300, 4, 200, 0x5E0);
  SimMetrics seq, par;
  RunEngine(w, 4, 1, false, &seq);
  RunEngine(w, 4, 4, true, &par);
  EXPECT_EQ(par.updates, seq.updates);
  EXPECT_EQ(par.result_changes, seq.result_changes);
  EXPECT_EQ(par.comm.TotalMessages(), seq.comm.TotalMessages());
  EXPECT_EQ(par.comm.TotalPackets(), seq.comm.TotalPackets());
  EXPECT_EQ(par.msr.tiles_added, seq.msr.tiles_added);
}

TEST(EngineTest, MatchesIndependentSimulatorRuns) {
  // A multi-session engine must produce exactly the merged metrics of the
  // groups run one at a time, each on its own one-session engine.
  const World w = MakeWorld(250, 3, 150, 0xBEEF01);
  SimMetrics engine_total;
  RunEngine(w, 3, 2, false, &engine_total);
  SimOptions opt;
  opt.server = MakeEngineOptions(1, false).sim.server;
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
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
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
  EngineOptions opt = MakeEngineOptions(2, false);
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
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(1, false));
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
  engine.Start();
  EXPECT_THROW(engine.Start(), std::logic_error);  // while serving
  engine.Shutdown();
  EXPECT_THROW(engine.Start(), std::logic_error);  // after the run
}

TEST(EngineLifecycleTest, UnknownSessionIdsAreRejected) {
  const World w = MakeWorld(150, 1, 30, 0x2E9);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(1, false));
  EXPECT_THROW(engine.RetireSession(0, 10), std::out_of_range);
  engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
  engine.Start();
  engine.Shutdown();
  EXPECT_NO_THROW(fuzz::ResultOf(engine, 0));
  EXPECT_THROW(fuzz::ResultOf(engine, 1), std::out_of_range);
  EXPECT_THROW(engine.RetireSession(1), std::out_of_range);
}

TEST(EngineLifecycleTest, WaitBeforeStartIsAHardError) {
  const World w = MakeWorld(120, 1, 20, 0x2E2);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(1, false));
  EXPECT_THROW(engine.Wait(), std::logic_error);
}

TEST(EngineLifecycleTest, ZeroHorizonSessionFinishesWithNoWork) {
  const World w = MakeWorld(150, 2, 40, 0x2E3);
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
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
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads, false));
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
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
    for (size_t g = 0; g < 4; ++g) {
      engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                           &w.trajs[3 * g + 2]});
    }
    engine.Start();
    engine.Shutdown();
    upfront = engine.ResultDigest();
  }
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
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
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
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
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads, false));
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
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
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
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
    for (size_t g = 0; g < 4; ++g) {
      engine.AdmitSession({&w.trajs[3 * g], &w.trajs[3 * g + 1],
                           &w.trajs[3 * g + 2]});
    }
    engine.Start();
    engine.Shutdown();
    oneshot = engine.ResultDigest();
  }
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
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

// --- Mailbox high-water marks ------------------------------------------------

TEST(EngineMailboxStatsTest, CapacityZeroStallCountIsDeterministic) {
  // With no mailbox at all, every recomputation that still has timestamps
  // ahead stalls the clock — a count fixed by the logical step order, so
  // it must match across thread counts; the digest must not move against
  // the default capacity.
  const World w = MakeWorld(200, 2, 100, 0x5E72);
  uint64_t default_digest = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
    engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
    engine.Start();
    engine.Shutdown();
    default_digest = engine.ResultDigest();
  }
  size_t stalls_1thread = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(threads, false));
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
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
    engine.AdmitSession({&w.trajs[0], &w.trajs[1], &w.trajs[2]});
    engine.Start();
    engine.Shutdown();
    default_digest = engine.ResultDigest();
  }
  Engine engine(&w.pois, &w.tree, MakeEngineOptions(2, false));
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

// --- 64-group integration run (labeled `integration` in ctest) --------------

TEST(EngineIntegrationTest, SixtyFourGroupsDeterministicUnderLoad) {
  const size_t kGroups = 64;
  const World w = MakeWorld(800, kGroups, 120, 0x64C0DE);
  SimMetrics serial_total, parallel_total;
  const uint64_t d_serial = RunEngine(w, kGroups, 1, false, &serial_total);
  const uint64_t d_parallel =
      RunEngine(w, kGroups, ThreadPool::HardwareThreads(), true,
                &parallel_total);
  EXPECT_EQ(serial_total.timestamps, kGroups * 120u);
  EXPECT_GT(serial_total.updates, kGroups);  // every group updates at t=0
  // Full parallelism (per-group jobs + per-user fan-out) leaves the
  // protocol results untouched.
  EXPECT_EQ(parallel_total.updates, serial_total.updates);
  EXPECT_EQ(parallel_total.comm.TotalPackets(),
            serial_total.comm.TotalPackets());
  // And an identically-configured run is bit-identical to itself across
  // thread counts.
  EXPECT_EQ(RunEngine(w, kGroups, 2, true), d_parallel);
  EXPECT_EQ(RunEngine(w, kGroups, 2, false), d_serial);
}

}  // namespace
}  // namespace mpn
