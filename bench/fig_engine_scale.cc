// Engine scaling harness (not a paper figure): the event-driven scheduler
// under three workloads.
//
//  1. Throughput of the multi-group engine as the number of in-flight
//     groups grows from 1 to 256 and the thread-pool size grows from 1 to
//     the hardware concurrency, now with per-session round-latency
//     percentiles (p50/p99 of the gaps between consecutive advance
//     completions, over all sessions). Digests must stay bit-identical
//     across thread counts — the engine's determinism guarantee.
//  2. Straggler isolation: one session's recomputations are padded 10x.
//     Under the old lockstep round loop every session's round latency
//     inflated behind the barrier; with per-session clocks the straggler
//     delays only itself, so the non-stragglers' percentiles should match
//     a straggler-free control run (up to CPU contention — one core of
//     the pool is burning in the padded recompute).
//  3. Churn: half the sessions are admitted mid-run under an admission
//     hold and a quarter retire at half their horizon; the digest must
//     not depend on the thread count.
//  4. Process shards: the same workload on a multi-process ClusterEngine
//     with 1/2/4 forked workers. The cluster digest must be bit-identical
//     to the single-process engine over the same groups (the cluster's
//     determinism guarantee); throughput shows what forked shards buy
//     once real cores are available (the 1-core dev box shows none).
//  5. Elastic recovery: one worker is killed mid-run (deterministic
//     virtual-timestamp crash injection) and one drain reply is corrupted
//     in flight (deterministic transport fault injection, caught by the
//     frame CRC). The supervisor forks replacements and re-admits each
//     shard's groups from the coordinator snapshot. The table reports the
//     restart count, re-admitted session count, the hardened-transport
//     counters (crc_fail / hb_miss / deadline_hits) and recovery
//     wall-clock, and checks the digest is still bit-identical to the
//     single-process engine.
//  6. Kernel ablation: the Tile-D groups' recomputes, captured once from
//     in-order sessions and replayed under the scalar reference
//     verification kernel vs the SoA lane kernels (mpn/tile_msr.h
//     KernelKind). Both replays must equal the served results — the
//     kernels make the same decisions — and soa_speedup is the win from
//     batching the candidate scans, per recompute.
//  7. Out-of-core spill: thousands of m=2 sessions (1M+ in full mode)
//     under a fixed memory budget (engine/session_store.h), at horizon 16
//     and, in one row, at the paper's quick horizon of 1,200. The digest
//     must be bit-identical to the unbudgeted run across thread counts
//     and cluster shards, the spill/rehydrate counters are exact at one
//     thread, and peak RSS is sampled to show the cap actually bounds
//     resident session state.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/cluster.h"
#include "engine/engine.h"
#include "engine/group_session.h"
#include "index/packed_rtree.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mpn {
namespace bench {
namespace {

struct RunResult {
  double seconds = 0.0;
  double throughput = 0.0;  // groups*rounds per second
  uint64_t digest = 0;
  double p50_ms = 0.0;      // per-session round-latency percentiles
  double p99_ms = 0.0;
};

/// Round latency of one session: gaps between consecutive advance
/// completions (the time each next virtual timestamp took to land).
void AppendAdvanceGapsMs(const Engine& engine, uint32_t id,
                         std::vector<double>* gaps) {
  engine.WithSessionResult(id, [gaps](const SessionFinalResult& fr) {
    const std::vector<double>& at = fr.advance_seconds;
    for (size_t t = 1; t < at.size(); ++t) {
      if (at[t] > 0.0 && at[t - 1] > 0.0) {
        gaps->push_back((at[t] - at[t - 1]) * 1e3);
      }
    }
  });
}

RunResult RunEngineOnce(const std::vector<Point>& pois, const PackedRTree& tree,
                        const std::vector<std::vector<const Trajectory*>>&
                            groups,
                        size_t n_groups, size_t threads,
                        const ServerConfig& server) {
  EngineOptions opt;
  opt.threads = threads;
  opt.sim.server = server;
  Engine engine(&pois, &tree, opt);
  for (size_t g = 0; g < n_groups; ++g) engine.AdmitSession(groups[g]);
  Timer timer;
  engine.Start();
  engine.Shutdown();
  RunResult r;
  r.seconds = timer.ElapsedSeconds();
  const double rounds =
      static_cast<double>(engine.TotalMetrics().timestamps);
  r.throughput = r.seconds > 0.0 ? rounds / r.seconds : 0.0;
  r.digest = engine.ResultDigest();
  std::vector<double> gaps;
  for (uint32_t id = 0; id < n_groups; ++id) {
    AppendAdvanceGapsMs(engine, id, &gaps);
  }
  r.p50_ms = Quantile(gaps, 0.5);
  r.p99_ms = Quantile(gaps, 0.99);
  return r;
}

void RunScaleTable(const std::vector<Point>& pois, const PackedRTree& tree,
                   const std::vector<std::vector<const Trajectory*>>& groups,
                   const std::vector<size_t>& group_counts,
                   const std::vector<size_t>& thread_counts,
                   const ServerConfig& server) {
  Table table({"groups", "threads", "seconds", "rounds/sec", "speedup",
               "lat_p50_ms", "lat_p99_ms", "deterministic"});
  for (size_t n_groups : group_counts) {
    double base_throughput = 0.0;
    uint64_t base_digest = 0;
    for (size_t threads : thread_counts) {
      const RunResult r =
          RunEngineOnce(pois, tree, groups, n_groups, threads, server);
      if (threads == thread_counts.front()) {
        base_throughput = r.throughput;
        base_digest = r.digest;
      }
      table.AddRow({std::to_string(n_groups), std::to_string(threads),
                    FormatDouble(r.seconds, 3), FormatDouble(r.throughput, 0),
                    FormatDouble(base_throughput > 0.0
                                     ? r.throughput / base_throughput
                                     : 1.0,
                                 2),
                    FormatDouble(r.p50_ms, 3), FormatDouble(r.p99_ms, 3),
                    r.digest == base_digest ? "yes" : "NO"});
    }
  }
  table.Print("Engine scale — per-session parallelism (Tile-D, m=3)");
  table.WriteCsv(CsvPath("fig_engine_scale.csv"));
}

void RunStragglerTable(const std::vector<Point>& pois, const PackedRTree& tree,
                       const std::vector<std::vector<const Trajectory*>>&
                           groups,
                       size_t n_groups,
                       const std::vector<size_t>& thread_counts,
                       const ServerConfig& server) {
  Table table({"threads", "straggler", "strag_p99_ms", "others_p50_ms",
               "others_p99_ms", "seconds", "deterministic"});
  for (size_t threads : thread_counts) {
    uint64_t control_digest = 0;
    for (int with_straggler = 0; with_straggler < 2; ++with_straggler) {
      EngineOptions opt;
      opt.threads = threads;
      opt.sim.server = server;
      Engine engine(&pois, &tree, opt);
      for (size_t g = 0; g < n_groups; ++g) {
        SessionTuning tuning;
        if (with_straggler == 1 && g == 0) {
          tuning.recompute_cost_factor = 10.0;
        }
        engine.AdmitSession(groups[g], tuning);
      }
      Timer timer;
      engine.Start();
      engine.Shutdown();
      const double seconds = timer.ElapsedSeconds();
      // The pad is wall-clock only, so the digest must not move.
      if (with_straggler == 0) control_digest = engine.ResultDigest();
      std::vector<double> strag_gaps, other_gaps;
      for (uint32_t id = 0; id < n_groups; ++id) {
        AppendAdvanceGapsMs(engine, id,
                            id == 0 && with_straggler == 1 ? &strag_gaps
                                                           : &other_gaps);
      }
      table.AddRow(
          {std::to_string(threads), with_straggler == 1 ? "10x" : "none",
           with_straggler == 1 ? FormatDouble(Quantile(strag_gaps, 0.99), 3)
                               : "-",
           FormatDouble(Quantile(other_gaps, 0.5), 3),
           FormatDouble(Quantile(other_gaps, 0.99), 3),
           FormatDouble(seconds, 3),
           engine.ResultDigest() == control_digest ? "yes" : "NO"});
    }
  }
  table.Print("Engine scale — straggler isolation (one session padded 10x; "
              "others_p99 should match the straggler-free row)");
  table.WriteCsv(CsvPath("fig_engine_scale_straggler.csv"));
}

void RunChurnTable(const std::vector<Point>& pois, const PackedRTree& tree,
                   const std::vector<std::vector<const Trajectory*>>& groups,
                   size_t n_groups, size_t timestamps,
                   const std::vector<size_t>& thread_counts,
                   const ServerConfig& server) {
  Table table({"threads", "sessions", "retired", "seconds", "rounds/sec",
               "deterministic"});
  uint64_t base_digest = 0;
  for (size_t threads : thread_counts) {
    EngineOptions opt;
    opt.threads = threads;
    opt.sim.server = server;
    Engine engine(&pois, &tree, opt);
    Engine::Hold hold = engine.AcquireHold();
    size_t retired = 0;
    Timer timer;
    // Half the sessions up front (every fourth retiring at half horizon),
    // the other half admitted while the engine is already draining.
    for (size_t g = 0; g < n_groups; ++g) {
      SessionTuning tuning;
      if (g % 4 == 0) {
        tuning.retire_at = timestamps / 2;
        ++retired;
      }
      if (g == n_groups / 2) engine.Start();
      engine.AdmitSession(groups[g], tuning);
    }
    hold.Reset();
    engine.Wait();
    const double seconds = timer.ElapsedSeconds();
    if (threads == thread_counts.front()) base_digest = engine.ResultDigest();
    const double rounds =
        static_cast<double>(engine.TotalMetrics().timestamps);
    table.AddRow({std::to_string(threads), std::to_string(n_groups),
                  std::to_string(retired), FormatDouble(seconds, 3),
                  FormatDouble(seconds > 0.0 ? rounds / seconds : 0.0, 0),
                  engine.ResultDigest() == base_digest ? "yes" : "NO"});
  }
  table.Print("Engine scale — churn (half admitted mid-run, quarter retired "
              "at half horizon)");
  table.WriteCsv(CsvPath("fig_engine_scale_churn.csv"));
}

void RunClusterTable(const std::vector<Point>& pois, const PackedRTree& tree,
                     const std::vector<std::vector<const Trajectory*>>&
                         groups,
                     size_t n_groups,
                     const std::vector<size_t>& shard_counts,
                     const ServerConfig& server) {
  // Single-process reference digest (engine destroyed before the first
  // fork so no thread-pool workers are alive across fork()).
  uint64_t ref_digest = 0;
  {
    const RunResult r = RunEngineOnce(pois, tree, groups, n_groups, 1, server);
    ref_digest = r.digest;
  }
  Table table({"shards", "groups", "seconds", "rounds/sec", "deterministic"});
  for (size_t shards : shard_counts) {
    ClusterOptions opt;
    opt.workers = shards;
    opt.engine.threads = 1;
    opt.engine.sim.server = server;
    ClusterEngine cluster(&pois, &tree, opt);
    for (size_t g = 0; g < n_groups; ++g) cluster.AdmitSession(groups[g]);
    Timer timer;
    cluster.Start();
    cluster.Shutdown();
    const double seconds = timer.ElapsedSeconds();
    const double rounds =
        static_cast<double>(cluster.TotalMetrics().timestamps);
    table.AddRow({std::to_string(shards), std::to_string(n_groups),
                  FormatDouble(seconds, 3),
                  FormatDouble(seconds > 0.0 ? rounds / seconds : 0.0, 0),
                  cluster.ResultDigest() == ref_digest ? "yes" : "NO"});
  }
  table.Print("Engine scale — process shards (forked workers, groups routed "
              "by id % shards; digest vs single-process engine)");
  table.WriteCsv(CsvPath("fig_engine_scale_cluster.csv"));
}

void RunRecoveryTable(const std::vector<Point>& pois, const PackedRTree& tree,
                      const std::vector<std::vector<const Trajectory*>>&
                          groups,
                      size_t n_groups, size_t timestamps,
                      const std::vector<size_t>& shard_counts,
                      const ServerConfig& server) {
  // Single-process reference digest: supervised recovery must be invisible
  // in the results, so every killed-worker run is checked against it.
  uint64_t ref_digest = 0;
  {
    const RunResult r = RunEngineOnce(pois, tree, groups, n_groups, 1, server);
    ref_digest = r.digest;
  }
  Table table({"shards", "groups", "kills", "faults", "restarts",
               "readmitted", "crc_fail", "hb_miss", "deadline_hits",
               "seconds", "recover_ms", "deterministic"});
  for (size_t shards : shard_counts) {
    ClusterOptions opt;
    opt.workers = shards;
    opt.engine.threads = 1;
    opt.engine.sim.server = server;
    // Generous liveness tuning: the bench asserts hb_miss stays exactly 0
    // in the baseline diff, so a descheduled-but-healthy worker on a
    // loaded CI box must never be mistaken for a hang.
    opt.transport.heartbeat_timeout_ms = 2000;
    opt.transport.heartbeat_miss_budget = 5;
    ClusterEngine cluster(&pois, &tree, opt);
    // One deterministic mid-run death on the last shard: the supervisor
    // forks a replacement and re-admits the shard's groups from the
    // coordinator snapshot.
    cluster.InjectFaultAt(shards - 1, timestamps / 2, FaultKind::kCrash);
    // Plus one transport fault on shard 0: its first drain reply is
    // corrupted in flight. The frame-op index counts the shard's channel
    // ops — n_groups/shards admit recvs, the drain recv, then the reply
    // send — so the coordinator's CRC32 check trips exactly once
    // (crc_fail), the shard restarts and the digest must not move.
    cluster.InjectFaultAt(0, n_groups / shards + 1, FaultKind::kCorrupt);
    for (size_t g = 0; g < n_groups; ++g) cluster.AdmitSession(groups[g]);
    Timer timer;
    cluster.Start();
    cluster.Shutdown();
    const double seconds = timer.ElapsedSeconds();
    const ClusterEngine::RecoveryStats rs = cluster.recovery_stats();
    table.AddRow({std::to_string(shards), std::to_string(n_groups), "1", "1",
                  std::to_string(rs.restarts),
                  std::to_string(rs.sessions_readmitted),
                  std::to_string(rs.checksum_failures),
                  std::to_string(rs.heartbeat_misses),
                  std::to_string(rs.deadline_hits),
                  FormatDouble(seconds, 3),
                  FormatDouble(rs.recovery_seconds * 1e3, 3),
                  cluster.ResultDigest() == ref_digest ? "yes" : "NO"});
  }
  table.Print("Engine scale — elastic recovery (one worker killed mid-run, "
              "one drain reply corrupted in flight; digest vs "
              "single-process engine)");
  table.WriteCsv(CsvPath("fig_engine_scale_recovery.csv"));
}

// Scalar vs SoA verification kernels on the recomputes the engine serves.
// Each group runs once, in order, on its own session (a session's results
// do not depend on scheduling), and every recompute's locations, hints and
// served result are captured. Each kernel then replays all of them through
// ComputeTileMsr with the served configuration (TileMsrConfigFor) on one
// thread; its seconds are the fastest of kKernelPasses passes, the two
// kernels' passes interleaved so a drift in host speed hits both alike.
// Both replays must equal the served results (deterministic), and
// verify_calls is their total, the engine run's. soa_speedup is the ratio
// scalar/soa.
struct CapturedRecompute {
  std::vector<Point> locations;
  std::vector<MotionHint> hints;
  MsrResult served;
};

std::vector<CapturedRecompute> CaptureRecomputes(
    const std::vector<Point>& pois, const PackedRTree& tree,
    const std::vector<std::vector<const Trajectory*>>& groups,
    size_t n_groups, const ServerConfig& server) {
  SimOptions sim;
  sim.server = server;
  std::vector<CapturedRecompute> captured;
  for (size_t g = 0; g < n_groups; ++g) {
    GroupSession session(static_cast<uint32_t>(g), &pois, &tree, groups[g],
                         sim);
    while (!session.AdvancesExhausted()) {
      GroupSession::Snapshot snap;
      if (!session.AdvanceAndCheck(&snap)) continue;
      GroupSession::RecomputeOutcome outcome = session.Recompute(snap);
      captured.push_back({snap.locations, snap.hints, outcome.result});
      session.InstallResult(std::move(outcome));
    }
  }
  return captured;
}

/// Same meeting point, same tiles in every region, same algorithm counters.
bool SameResult(const MsrResult& a, const MsrResult& b) {
  if (a.po_id != b.po_id || a.regions.size() != b.regions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.regions.size(); ++i) {
    const SafeRegion& ra = a.regions[i];
    const SafeRegion& rb = b.regions[i];
    if (ra.is_circle() != rb.is_circle()) return false;
    if (!ra.is_circle() && ra.tiles().tiles() != rb.tiles().tiles()) {
      return false;
    }
  }
  const MsrStats& x = a.stats;
  const MsrStats& y = b.stats;
  return x.tiles_tried == y.tiles_tried && x.tiles_added == y.tiles_added &&
         x.divide_calls == y.divide_calls &&
         x.verify.calls == y.verify.calls &&
         x.verify.accepted == y.verify.accepted &&
         x.candidates.candidates_total == y.candidates.candidates_total;
}

void RunKernelTable(const std::vector<Point>& pois, const PackedRTree& tree,
                    const std::vector<std::vector<const Trajectory*>>& groups,
                    const std::vector<size_t>& group_counts,
                    const ServerConfig& server) {
  constexpr int kKernelPasses = 5;
  Table table({"groups", "scalar_seconds", "soa_seconds", "soa_speedup",
               "verify_calls", "deterministic"});
  const KernelKind kernels[2] = {KernelKind::kScalar, KernelKind::kSoA};
  for (size_t n_groups : group_counts) {
    const std::vector<CapturedRecompute> captured =
        CaptureRecomputes(pois, tree, groups, n_groups, server);
    double best[2] = {0.0, 0.0};
    bool identical = true;
    uint64_t verify_calls = 0;
    std::vector<MsrResult> replayed(captured.size());
    MsrScratch scratch;
    for (int pass = 0; pass < kKernelPasses; ++pass) {
      for (int k = 0; k < 2; ++k) {
        TileMsrConfig config = TileMsrConfigFor(server);
        config.kernel = kernels[k];
        config.scratch = &scratch;
        Timer timer;
        for (size_t i = 0; i < captured.size(); ++i) {
          replayed[i] = ComputeTileMsr(&tree, captured[i].locations,
                                       server.objective, config,
                                       captured[i].hints);
        }
        const double seconds = timer.ElapsedSeconds();
        if (pass == 0 || seconds < best[k]) best[k] = seconds;
        if (pass > 0) continue;
        for (size_t i = 0; i < captured.size(); ++i) {
          identical &= SameResult(replayed[i], captured[i].served);
          if (k == 1) verify_calls += replayed[i].stats.verify.calls;
        }
      }
    }
    table.AddRow({std::to_string(n_groups), FormatDouble(best[0], 3),
                  FormatDouble(best[1], 3),
                  FormatDouble(best[1] > 0.0 ? best[0] / best[1] : 1.0, 2),
                  std::to_string(verify_calls),
                  identical ? "yes" : "NO"});
  }
  table.Print("Engine scale — scalar vs SoA verification kernels (Tile-D "
              "recomputes replayed, 1 thread, fastest of 5 passes)");
  table.WriteCsv(CsvPath("fig_engine_scale_kernels.csv"));
}

// --- out-of-core session spill (7) -----------------------------------------

/// Current VmRSS of this process in bytes (0 if /proc is unreadable).
size_t ReadVmRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

/// Samples VmRSS on a background thread while a run is in flight and keeps
/// the maximum — peak RSS *during this run*, unlike VmHWM which never
/// resets across the rows of the table.
class RssSampler {
 public:
  RssSampler() : peak_(ReadVmRssBytes()) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        const size_t rss = ReadVmRssBytes();
        if (rss > peak_) peak_ = rss;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  size_t Stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    const size_t rss = ReadVmRssBytes();
    return rss > peak_ ? rss : peak_;
  }

 private:
  size_t peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct SpillRun {
  uint64_t digest = 0;
  MemoryStats mem;
  double seconds = 0.0;
  size_t rss_peak = 0;
};

SpillRun RunSpillOnce(const std::vector<Point>& pois, const PackedRTree& tree,
                      const std::vector<std::vector<const Trajectory*>>&
                          groups,
                      size_t n_sessions, size_t threads, size_t cap_bytes,
                      const ServerConfig& server) {
  EngineOptions opt;
  opt.threads = threads;
  opt.sim.server = server;
  opt.budget.bytes_cap = cap_bytes;
  Engine engine(&pois, &tree, opt);
  RssSampler rss;
  Timer timer;
  for (size_t i = 0; i < n_sessions; ++i) {
    engine.AdmitSession(groups[i % groups.size()]);
  }
  engine.Start();
  engine.Shutdown();
  SpillRun r;
  r.seconds = timer.ElapsedSeconds();
  r.rss_peak = rss.Stop();
  r.digest = engine.ResultDigest();
  r.mem = engine.memory_stats();
  return r;
}

SpillRun RunSpillClusterOnce(const std::vector<Point>& pois,
                             const PackedRTree& tree,
                             const std::vector<std::vector<const Trajectory*>>&
                                 groups,
                             size_t n_sessions, size_t shards,
                             size_t cap_bytes, const ServerConfig& server) {
  ClusterOptions opt;
  opt.workers = shards;
  opt.engine.threads = 1;
  opt.engine.sim.server = server;
  opt.engine.budget.bytes_cap = cap_bytes;  // per-shard cap
  ClusterEngine cluster(&pois, &tree, opt);
  RssSampler rss;
  Timer timer;
  for (size_t i = 0; i < n_sessions; ++i) {
    cluster.AdmitSession(groups[i % groups.size()]);
  }
  cluster.Start();
  cluster.Shutdown();
  SpillRun r;
  r.seconds = timer.ElapsedSeconds();
  r.rss_peak = rss.Stop();
  r.digest = cluster.ResultDigest();
  r.mem = cluster.memory_stats();
  return r;
}

/// The ROADMAP acceptance table: sessions far beyond what fits resident,
/// run under a fixed byte cap. Counters are printed exactly only where
/// they are deterministic (single-threaded, single-process); the digest
/// must match the unbudgeted reference in every row. 2048 sessions in
/// quick mode; full mode adds a 1M+-session row (the "millions of users"
/// north star) checked via two-cap digest identity.
void RunSpillTable(const std::vector<Point>& pois, const PackedRTree& tree) {
  // Dedicated small workload: m=2 groups over a shared pool of 64 short
  // trajectories, so session count — not trajectory storage — dominates.
  const BenchEnv env = GetBenchEnv();
  const size_t m = 2;
  const size_t n_trajs = 64;
  const size_t timestamps = 16;
  Rng rng(0x5B111);
  RandomWalkGenerator::Options wopt;
  wopt.world = kWorld;
  wopt.mean_speed = 1.5;
  wopt.heading_sigma = 0.06;
  const RandomWalkGenerator gen(wopt);
  const std::vector<Trajectory> trajs =
      gen.GenerateGroupedFleet(n_trajs, m, 2000.0, timestamps, &rng);
  const auto groups = MakeGroups(trajs, m, m);
  const ServerConfig server =
      MakeServerConfig(Method::kCircle, Objective::kMax);

  const size_t quick_sessions = 2048;
  const size_t quick_cap = 256 * 1024;  // bytes; far below resident demand

  Table table({"sessions", "threads", "shards", "budget_kb", "spilled",
               "rehydrated", "spilled_kb", "peak_resident_kb", "rss_mb",
               "seconds", "deterministic"});
  const auto add_row = [&table](size_t sessions, size_t threads,
                                size_t shards, size_t cap_bytes,
                                const SpillRun& r, bool exact_counters,
                                bool ok) {
    table.AddRow(
        {std::to_string(sessions), std::to_string(threads),
         shards == 0 ? "-" : std::to_string(shards),
         std::to_string(cap_bytes / 1024),
         exact_counters ? std::to_string(r.mem.spilled_sessions) : "-",
         exact_counters ? std::to_string(r.mem.rehydrated_sessions) : "-",
         exact_counters ? std::to_string(r.mem.spilled_bytes / 1024) : "-",
         exact_counters ? std::to_string(r.mem.peak_resident_bytes / 1024)
                        : "-",
         FormatDouble(static_cast<double>(r.rss_peak) / (1024.0 * 1024.0), 1),
         FormatDouble(r.seconds, 3), ok ? "yes" : "NO"});
  };

  // Unbudgeted reference: digest D0, nothing may spill.
  const SpillRun base =
      RunSpillOnce(pois, tree, groups, quick_sessions, 1, 0, server);
  add_row(quick_sessions, 1, 0, 0, base, true,
          base.mem.spilled_sessions == 0);

  // Budgeted single-thread row: spill counters deterministic and gated
  // exactly in the baselines; the spill path must actually run, and the
  // charged resident peak must stay at the cap (eviction is synchronous
  // on the charging thread, so the overshoot is at most one snapshot —
  // peak_resident_kb itself stays a timing-class column because the
  // exact overshoot byte count is interleaving-dependent).
  const SpillRun b1 =
      RunSpillOnce(pois, tree, groups, quick_sessions, 1, quick_cap, server);
  add_row(quick_sessions, 1, 0, quick_cap, b1, true,
          b1.digest == base.digest && b1.mem.spilled_sessions > 0 &&
              b1.mem.rehydrated_sessions > 0 &&
              b1.mem.peak_resident_bytes <= quick_cap + quick_cap / 4);

  // Thread scaling: counters race (victim selection depends on timing) so
  // only the digest is gated.
  for (const size_t threads : {size_t{2}, size_t{4}}) {
    const SpillRun r = RunSpillOnce(pois, tree, groups, quick_sessions,
                                    threads, quick_cap, server);
    add_row(quick_sessions, threads, 0, quick_cap, r, false,
            r.digest == base.digest && r.mem.spilled_sessions > 0);
  }

  // The paper's quick horizon: the same number of pair sessions over
  // 1,200 timestamps under a 4 MB cap, one thread, gated like the
  // budgeted single-thread row. The digest must equal an unbudgeted run
  // of them, which prints no row of its own.
  {
    const size_t horizon = 1200;
    const size_t cap = 4 * 1024 * 1024;
    Rng long_rng(0x5B111);
    const std::vector<Trajectory> long_trajs =
        gen.GenerateGroupedFleet(n_trajs, m, 2000.0, horizon, &long_rng);
    const auto long_groups = MakeGroups(long_trajs, m, m);
    const SpillRun ref =
        RunSpillOnce(pois, tree, long_groups, quick_sessions, 1, 0, server);
    const SpillRun h1 =
        RunSpillOnce(pois, tree, long_groups, quick_sessions, 1, cap, server);
    add_row(quick_sessions, 1, 0, cap, h1, true,
            h1.digest == ref.digest && h1.mem.spilled_sessions > 0 &&
                h1.mem.rehydrated_sessions > 0 &&
                h1.mem.peak_resident_bytes <= cap + cap / 4);
  }

  // Cluster shards with a per-shard cap: spill totals arrive over the
  // drain protocol; the merged digest must still match D0.
  const SpillRun c2 = RunSpillClusterOnce(pois, tree, groups, quick_sessions,
                                          2, quick_cap, server);
  add_row(quick_sessions, 1, 2, quick_cap, c2, false,
          c2.digest == base.digest && c2.mem.spilled_sessions > 0);

  if (env.full) {
    // 1M+ sessions under a fixed cap — would be ~GBs resident unbudgeted.
    // No unbudgeted reference at this scale (that is the point); digest
    // identity across two different caps certifies the spill round trip,
    // since any serialization loss would move at least one of them.
    const size_t big = size_t{1} << 20;
    const SpillRun f1 = RunSpillOnce(pois, tree, groups, big, 1,
                                     4 * 1024 * 1024, server);
    add_row(big, 1, 0, 4 * 1024 * 1024, f1, true,
            f1.mem.spilled_sessions > 0 &&
                f1.mem.peak_resident_bytes <= 4 * 1024 * 1024 + 64 * 1024);
    const SpillRun f2 = RunSpillOnce(pois, tree, groups, big, 1,
                                     16 * 1024 * 1024, server);
    add_row(big, 1, 0, 16 * 1024 * 1024, f2, true,
            f2.digest == f1.digest && f2.mem.spilled_sessions > 0);
    std::printf("1M-session RSS under 4 MB evictable cap: %.1f MB peak\n",
                static_cast<double>(f1.rss_peak) / (1024.0 * 1024.0));
  }

  table.Print("Engine scale — out-of-core session spill (Circle, m=2, "
              "horizon 16 but 1,200 in the 2048-session 4096 KB row; budget "
              "caps resident session state)");
  table.WriteCsv(CsvPath("fig_engine_scale_spill.csv"));
}

void Run() {
  const BenchEnv env = GetBenchEnv();

  // Workload: up to 256 co-located groups of m=3 walkers. Scaled down in
  // quick mode so the full sweep stays in CI budget.
  const size_t max_groups = env.full ? 256 : 64;
  const size_t timestamps = env.full ? 1000 : 200;
  const size_t n_pois = env.full ? env.n_pois : 4000;
  const size_t m = 3;
  std::printf("Engine scale — event-driven scheduler, groups vs threads\n");
  std::printf("scale=%s  N=%zu  timestamps=%zu  max_groups=%zu  m=%zu  "
              "hardware_threads=%zu\n",
              env.full ? "full" : "quick", n_pois, timestamps, max_groups, m,
              ThreadPool::HardwareThreads());

  const auto pois = MakePoiSet(n_pois);
  const PackedRTree tree = PackedRTree::Build(pois);
  Rng rng(0xE59153);
  RandomWalkGenerator::Options wopt;
  wopt.world = kWorld;
  wopt.mean_speed = 1.5;
  wopt.speed_jitter = 0.25;
  wopt.heading_sigma = 0.06;
  const RandomWalkGenerator gen(wopt);
  const std::vector<Trajectory> trajs =
      gen.GenerateGroupedFleet(max_groups * m, m, 2000.0, timestamps, &rng);
  const auto groups = MakeGroups(trajs, m, m);
  const ServerConfig server = MakeServerConfig(Method::kTileD,
                                               Objective::kMax);

  std::vector<size_t> thread_counts = {1, 2, 4};
  const size_t hw = ThreadPool::HardwareThreads();
  if (hw > 4) thread_counts.push_back(hw);
  std::vector<size_t> group_counts = {1, 4, 16, 64};
  if (max_groups >= 256) group_counts.push_back(256);

  RunScaleTable(pois, tree, groups, group_counts, thread_counts, server);
  RunStragglerTable(pois, tree, groups, std::min<size_t>(16, max_groups),
                    thread_counts, server);
  RunChurnTable(pois, tree, groups, std::min<size_t>(32, max_groups),
                timestamps, thread_counts, server);
  RunClusterTable(pois, tree, groups, std::min<size_t>(16, max_groups),
                  {1, 2, 4}, server);
  RunRecoveryTable(pois, tree, groups, std::min<size_t>(16, max_groups),
                   timestamps, {2, 4}, server);
  RunKernelTable(pois, tree, groups, {1, std::min<size_t>(16, max_groups)},
                 server);
  RunSpillTable(pois, tree);
}

}  // namespace
}  // namespace bench
}  // namespace mpn

int main() {
  mpn::bench::Run();
  return 0;
}
