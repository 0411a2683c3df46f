// Multi-process engine sharding: a ClusterEngine forks N worker processes,
// each running an Engine (engine/engine.h) over its shard of groups, with
// admissions and retirements routed by group_id % N over length-prefixed
// binary frames on socketpair(2) pipes (engine/ipc.h), the one byte
// transport. No network is
// involved: the coordinator forks after the immutable world (POIs, R-tree)
// is built, so workers share it copy-on-write; only per-group data
// (trajectories, tuning) and results cross the process boundary.
//
// Ids and routing: the coordinator assigns dense global session ids in
// admission order; id g lives on worker g % N as that shard's k-th group
// (k = g / N — per-pipe FIFO keeps per-worker admission order equal to
// global order restricted to the shard). When a drain completes, each
// worker ships the deterministic result fields of the sessions admitted
// since its previous drain (earlier ones were final then and the
// coordinator keeps their results) plus its per-timestamp slot totals; the
// coordinator reassembles the per-session results in global id order and
// feeds them through the same digest code the single-process engine uses
// (engine/digest.h) — so ResultDigest() is bit-identical to one Engine
// over the same groups, for any worker count and any admission
// interleaving. Round-stat counters re-aggregate with the same commutative
// per-timestamp sums and are bit-identical too; wall-clock columns
// (seconds, mailbox marks) are machine-dependent as always.
//
// Serving loop: workers run Engine::Start immediately and then serve
// frames forever — admit, retire, drain (Engine::Wait + result snapshot),
// shutdown — so a cluster supports repeated AdmitSession/Wait() cycles
// exactly like the single-process serving loop.
//
// Elastic recovery: the coordinator keeps a session snapshot — each
// undrained group's serialized admit frame and retirement timestamps, in
// one queue per shard, plus every session's last drained result — so a
// worker death (EOF / EPIPE / kWorkerError on any interaction) is
// survivable. The supervisor forks a replacement, re-admits the dead
// shard's *non-final* groups from its queue (sessions final as of the
// shard's last successful drain keep their coordinator-held results, are
// not recomputed, and left the queue with that drain), and resumes the
// interrupted operation. Workers likewise free a session's decoded
// trajectories once the drain reply carrying its result has been sent, so
// neither side of the pipe grows with the sessions it has finished.
// Replayed sessions recompute deterministically from timestamp 0, so the
// post-recovery ResultDigest() is bit-identical to an uninterrupted run;
// per-timestamp round stats stay bit-identical too because each shard's
// slot totals split into the dead incarnations' drained history
// (slot_base) plus the replacement's recomputed timeline, and per-slot
// integer sums are commutative. Restarts are bounded per
// shard (RecoveryOptions::max_restarts); exhausting the budget degrades
// gracefully — the shard is marked lost, the error names every group lost
// with it, and the healthy shards keep serving and draining.
// RecoveryStats reports restarts, re-admissions, replayed frames and
// recovery latency.
//
// Hardened transport (engine/transport.h, engine/ipc.h): frames carry a
// magic/version/CRC32 header, channels are non-blocking with per-operation
// deadlines, and the coordinator probes a silent worker's liveness over a
// dedicated heartbeat channel (a worker-side responder thread answers
// pings even while the worker's main thread blocks inside Engine::Wait).
// A hung-but-alive worker — SIGSTOPped, wedged, or stalling mid-frame —
// exhausts the heartbeat miss budget (TransportTuning), is SIGKILLed and
// recovered through the same snapshot replay as a death, so the digest
// contract holds for hangs exactly as it does for crashes. Corrupt or
// torn frames surface as the typed FrameError and take the same restart
// path. Deterministic fault injection for tests and benches, one plan for
// both failure classes: InjectFaultAt (engine/ipc.h FaultPlan) arms
// per-frame transport faults and virtual-timestamp worker crashes (the
// `crash` kind, EngineOptions::crash_at_timestamp) in each worker
// incarnation.
//
// The coordinator keeps each session's result as the SessionFinalResult a
// worker's Engine::WithSessionResult streamed to it, minus the wall-clock
// advance trace (advance_seconds stays empty: timings do not cross IPC),
// and serves it through the same WithSessionResult — the one read both
// engines share (engine/engine.h). session_metrics, session_po and
// session_has_result remain as one-line reads of that record only because
// the serving benchmark's cluster outcome (perfbench/serve.cc) still calls
// them; they go when it reads through WithSessionResult.
//
// With max_restarts = 0 the pre-elastic fail-stop behaviour is restored:
// any transport failure latches the cluster as failed and every
// subsequent call throws. Double Start() and AdmitSession after
// Shutdown() are hard std::logic_errors. See docs/ARCHITECTURE.md §5c for
// the protocol and the recovery determinism argument, §5d for the frame
// format, deadlines, heartbeats and the fault taxonomy.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/ipc.h"

namespace mpn {

/// Worker supervision policy.
struct RecoveryOptions {
  /// Replacement workers the supervisor may fork per shard (immediately,
  /// without backoff) before the shard degrades to lost. 0 disables
  /// recovery entirely: the first transport failure poisons the cluster
  /// (pre-elastic fail-stop).
  size_t max_restarts = 2;
};

/// Transport hardening knobs (see docs/ARCHITECTURE.md §5d).
struct TransportTuning {
  /// Liveness probing while awaiting a drain reply. Every
  /// heartbeat_interval_ms without a reply, the coordinator pings the
  /// worker's heartbeat channel and waits heartbeat_timeout_ms for the
  /// pong; heartbeat_miss_budget *consecutive* unanswered probes declare
  /// the worker hung — it is SIGKILLed and recovered via snapshot
  /// replay.
  double heartbeat_interval_ms = 500.0;
  double heartbeat_timeout_ms = 1'000.0;
  size_t heartbeat_miss_budget = 3;
  /// Optional cap (ms) on a drain wait with no scheduler progress
  /// observed via heartbeat pongs: when exceeded, the worker is killed
  /// and recovered (counted in RecoveryStats::deadline_hits). 0 (the
  /// default) trusts heartbeats alone — a slow-but-alive worker is never
  /// killed for being slow.
  double drain_deadline_ms = 0.0;
};

/// Cluster configuration.
struct ClusterOptions {
  /// Worker processes (shards). Groups are routed by group_id % workers.
  size_t workers = 2;
  /// Per-worker engine configuration (thread pool size, sim options, ...).
  EngineOptions engine;
  /// Worker supervision (restart budget).
  RecoveryOptions recovery;
  /// Transport hardening (deadlines, heartbeats).
  TransportTuning transport;
};

/// Coordinator of a multi-process engine cluster. Shares the Engine's
/// lifecycle and read surface by name (see engine/engine.h); calls are
/// serialized internally — the concurrency lives in the worker processes.
/// Worker deaths are handled by the supervisor (see the header comment);
/// only an exhausted restart budget (per-shard graceful degradation),
/// max_restarts = 0 (fail-stop poison latch) or a protocol violation
/// (poison latch) surface as errors, and the result reads always keep
/// returning the last successful drain's snapshot.
class ClusterEngine {
 public:
  /// Counters of the supervisor (cumulative over the cluster's life).
  struct RecoveryStats {
    size_t restarts = 0;            ///< replacement workers forked
    size_t sessions_readmitted = 0; ///< non-final sessions replayed to them
    size_t sessions_restored = 0;   ///< final sessions kept from snapshot
    size_t frames_replayed = 0;     ///< admit+retire frames re-sent
    size_t shards_lost = 0;         ///< shards degraded after the budget
    double recovery_seconds = 0.0;  ///< wall time spent recovering
    /// Transport-level EINTR/EAGAIN retries absorbed (coordinator
    /// channels harvested continuously, worker channels via drain
    /// replies) — nonzero is normal under load, growth without progress
    /// is the smell.
    uint64_t retries = 0;
    size_t checksum_failures = 0;  ///< frames rejected by integrity checks
    size_t heartbeat_misses = 0;   ///< liveness probes that went unanswered
    size_t deadline_hits = 0;      ///< I/O or drain deadlines that expired
  };

  /// `pois` and `tree` must be fully built before Start() forks the
  /// workers and must outlive the cluster (workers inherit them
  /// copy-on-write). Throws std::invalid_argument when options.workers
  /// is 0 or when `pois` and `tree` do not match (ValidatePoiIndex).
  ClusterEngine(const std::vector<Point>* pois, const PackedRTree* tree,
                const ClusterOptions& options);
  ~ClusterEngine();

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  /// Registers one group; returns its global session id (dense, in
  /// admission order). The trajectories are serialized into the admit
  /// frame (which the coordinator also keeps for recovery replay until
  /// the session's first drain), so they only need to stay alive for the
  /// duration of the call. Throws
  /// std::logic_error after Shutdown(), std::runtime_error when the
  /// group routes to a lost shard, and std::invalid_argument for a
  /// malformed group or tuning (ValidateAdmission) — all before an id is
  /// taken or a frame is snapshotted.
  uint32_t AdmitSession(const std::vector<const Trajectory*>& group,
                        const SessionTuning& tuning = SessionTuning());

  /// Deterministically truncates session `id`'s horizon at `at_timestamp`
  /// (see Engine::RetireSession; Engine::kRetireNow asks for the next
  /// event boundary instead, which is wall-clock dependent). Recorded in
  /// the recovery snapshot while the session is undrained, so replayed
  /// sessions retire identically (a drained session is final and never
  /// replayed, so nothing is recorded for it) —
  /// and delivered *inside* the admit frame when recorded before the
  /// session's admission ships (pre-Start, or before a recovery replay):
  /// a worker's engine advances sessions the moment they are admitted,
  /// so a separate retire frame could lose the race against the session
  /// finishing.
  void RetireSession(uint32_t id, size_t at_timestamp = Engine::kRetireNow);

  /// Forks the worker processes (each starts its engine immediately) and
  /// replays the admissions/retirements recorded before Start. Throws
  /// std::logic_error when called twice.
  void Start();

  /// Serving-loop drain: asks every healthy worker to drain (Engine::Wait)
  /// and collects their result snapshots. Valid results afterwards; more
  /// admissions may follow. A worker dying anywhere in the drain is
  /// recovered and re-drained transparently (bit-identical results — see
  /// the header comment). Throws std::runtime_error naming the shard and
  /// its lost group ids when a shard exhausts its restart budget (healthy
  /// shards still drain first, and their fresh results stay readable —
  /// every later Wait re-throws for the lost shard); std::logic_error
  /// before Start.
  void Wait();

  /// Wait() + stop the workers (graceful shutdown frames, then reap).
  /// AdmitSession afterwards is a hard std::logic_error. Idempotent. When
  /// Wait degrades (lost shards), healthy workers are still stopped
  /// gracefully before the error propagates.
  void Shutdown();

  size_t worker_count() const { return options_.workers; }
  size_t session_count() const { return next_id_; }

  /// Streams session `id`'s result as of the last successful Wait to `fn`
  /// (see Engine::WithSessionResult). advance_seconds is always empty:
  /// wall-clock traces stay on the workers. Throws std::out_of_range for
  /// an id no Wait has drained yet.
  void WithSessionResult(
      uint32_t id,
      const std::function<void(const SessionFinalResult&)>& fn) const;

  /// One-line reads of the same record, kept for the serving benchmark's
  /// cluster outcome (see the header comment). Same std::out_of_range.
  const SimMetrics& session_metrics(uint32_t id) const;
  uint32_t session_po(uint32_t id) const;
  bool session_has_result(uint32_t id) const;

  /// Merged metrics across all sessions (valid after Wait).
  SimMetrics TotalMetrics() const;

  /// Cluster-level per-timestamp aggregates (valid after Wait): worker
  /// slot totals summed per timestamp, then folded by the single-process
  /// engine's own fold (EngineRoundStats::FromSlots).
  const EngineRoundStats& round_stats() const { return round_stats_; }

  /// Bit-identical to Engine::ResultDigest() over the same groups in the
  /// same admission order, for any worker count and any recovered worker
  /// deaths (valid after Wait).
  uint64_t ResultDigest() const;

  /// Supervisor counters so far.
  RecoveryStats recovery_stats() const;

  /// Session-store (memory budget) counters summed across shards, as
  /// reported by each worker's last drain: spill/rehydrate counts and
  /// spilled bytes are sums over every incarnation; peak_resident_bytes
  /// sums each shard's per-incarnation maximum (shards run concurrently).
  /// resident_bytes is not meaningful coordinator-side and stays zero.
  /// The budget itself flows to workers via ClusterOptions::engine.
  MemoryStats memory_stats() const;

  /// True once `shard` exhausted its restart budget and degraded to lost.
  /// Throws std::out_of_range for a shard >= worker_count().
  bool shard_lost(size_t shard) const;

  /// Test hook: SIGKILLs shard's worker process so the recovery paths
  /// (Send failure, EOF instead of a drain reply) can be exercised at a
  /// wall-clock instant. For a deterministic kill inject a
  /// FaultKind::kCrash. Throws std::out_of_range for a shard >=
  /// worker_count().
  void KillWorkerForTest(size_t shard);

  /// Test hook: SIGSTOPs shard's worker — hung, not dead. The kernel
  /// keeps its pipes open, so only the heartbeat machinery (not EOF) can
  /// detect it; the next Wait must kill and recover it via the miss
  /// budget. Throws std::out_of_range for a shard >= worker_count().
  void StopWorkerForTest(size_t shard);

  /// Deterministic fault injection: appends `kind` at `at` for `shard` to
  /// the cluster's FaultPlan (engine/ipc.h). `at` is the frame-op index
  /// on shard's data channel, or — for FaultKind::kCrash — the virtual
  /// timestamp at which the incarnation _Exit(134)s. Events are consumed
  /// FIFO per shard, one batch per incarnation (initial worker first,
  /// then each replacement), each batch ending at its first fatal kind.
  /// The plan starts empty; this is the only way to fill it. Must be
  /// called before Start (std::logic_error afterwards); throws
  /// std::out_of_range for a shard >= worker_count().
  void InjectFaultAt(size_t shard, size_t at, FaultKind kind);

 private:
  struct Worker {
    pid_t pid = -1;
    IpcChannel channel;
    /// Dedicated liveness channel: pings answered by a worker-side
    /// responder thread even while the worker's main thread is draining.
    IpcChannel heartbeat;
    /// Sequence number of the last ping sent (pongs echo it, so stale
    /// replies to timed-out probes are recognizable and drained).
    uint64_t ping_seq = 0;
    /// Scheduler progress reported by the worker's last pong.
    uint64_t last_progress = 0;
    /// Last transport-level failure text (errno / integrity detail) for
    /// this shard, surfaced into per-shard error messages.
    std::string last_io_error;
    bool reaped = false;
    /// Replacements forked for this shard so far.
    size_t restarts = 0;
    /// Restart budget exhausted: the shard is permanently degraded.
    bool lost = false;
    std::string lost_reason;
    /// Shard-local indices below this are final (drained) sessions whose
    /// results live in the coordinator's results_; they are not
    /// re-admitted to the current incarnation.
    size_t restored_below = 0;
    /// Shard-local session count at this shard's last successful drain —
    /// everything below it was final then (Engine::Wait drains every
    /// admitted session to completion). The next drain reply carries the
    /// sessions from this index on.
    size_t drained_through = 0;
    /// Recovery snapshot of the shard's undrained sessions, one serialized
    /// kAdmit frame each, with every RetireSession since min-merged into
    /// its retire_at: re-sent as is, it re-admits the session to a
    /// replacement worker bit-identically. Shard-local index k (global id
    /// shard + k * workers), for k in [drained_through, shard sessions),
    /// sits at position k - drained_through. Appended *before* an
    /// admission's first send, so a replay can never miss a session;
    /// popped once a drain reply carrying the sessions has parsed.
    std::deque<WireBuffer> pending;
    /// Per-timestamp slot totals owned by dead incarnations' drained
    /// history; the current incarnation's drain adds on top.
    SlotTotals slot_base;
    /// slot_base + the last successful drain's reported slots — this
    /// shard's effective contribution to the cluster round stats.
    SlotTotals last_slots;
    /// Session-store counters owned by dead incarnations (sums folded,
    /// peak maxed — see RecoverShard); the replacement restarts at zero.
    MemoryStats mem_base;
    /// Counters reported by the current incarnation's last drain.
    MemoryStats last_mem;
  };

  void RequireStarted() const;
  void RequireServing() const;
  /// With recovery disabled (max_restarts = 0) or after a protocol
  /// violation the cluster is poisoned: replies may be out of phase with
  /// requests, so refreshed results could silently be wrong. Every
  /// subsequent admit/retire/drain throws; results from the last
  /// *successful* Wait stay readable.
  void RequireHealthy() const;
  /// Throws std::out_of_range naming `what` for a shard >= workers.
  void RequireShard(size_t shard, const char* what) const;
  const SessionFinalResult& ResultChecked(uint32_t id) const;
  /// Shard-local session count (groups routed to `shard` so far).
  size_t ShardSessionCount(size_t shard) const;
  /// Forks one worker for `shard` (arming the shard's next fault batch)
  /// and installs its channel. Caller holds mu_.
  void ForkWorker(size_t shard);
  /// Replays shard's queue to its current incarnation: the admit frame
  /// of every non-final session, ascending, with recorded retirements
  /// folded into each frame's retire_at tuning (a trailing retire frame
  /// would race the session finishing on the live worker). Returns false
  /// when the replacement died mid-replay (caller recovers again).
  /// Caller holds mu_.
  bool ReplayShardSnapshot(size_t shard, bool count_stats);
  /// Supervisor: reaps the dead worker and brings up a replayed
  /// replacement. Throws (std::runtime_error) when the restart budget is
  /// exhausted — marking the shard lost and naming its lost groups — or
  /// when recovery is disabled (poison latch). Caller holds mu_.
  void RecoverShard(size_t shard);
  /// Marks `shard` lost and throws the per-shard degradation error.
  [[noreturn]] void MarkShardLost(size_t shard);
  /// Deadline-bounded send on shard's data channel. A deadline expiry
  /// counts in stats_, kills the worker (it stopped draining its pipe)
  /// and returns false so the caller runs the normal recovery path; a
  /// gone peer just returns false. Caller holds mu_.
  bool SendToShard(size_t shard, const WireBuffer& frame);
  /// One liveness probe: ping + pong (seq-matched, stale pongs drained)
  /// within heartbeat_timeout_ms. Updates last_progress on success.
  /// Caller holds mu_.
  bool ProbeWorker(size_t shard);
  /// Receives shard's next data-channel frame, slicing the wait every
  /// heartbeat_interval_ms to probe liveness: a worker that answers
  /// probes may take forever (slow != dead), one that exhausts the miss
  /// budget — or the optional drain_deadline_ms without scheduler
  /// progress — is SIGKILLed and reported as kClosed. Throws FrameError
  /// on integrity failures. Caller holds mu_.
  IoStatus RecvReplySliced(size_t shard, std::vector<uint8_t>* payload);
  /// Folds shard's channel counters into stats_ (exactly once per
  /// channel: call right before Close). Caller holds mu_.
  void HarvestChannelCounters(Worker* w);
  /// Sends the drain frame to `shard`, recovering through worker deaths.
  /// Returns false when the shard degraded to lost (error recorded in
  /// lost_reason). Caller holds mu_.
  bool SendDrainRecovering(size_t shard);
  /// Receives + parses shard's drain reply into results_/last_slots,
  /// recovering and re-draining through worker deaths. Returns false when
  /// the shard degraded to lost. Caller holds mu_.
  bool RecvDrainRecovering(size_t shard);
  /// Parses one kDrainedOk payload, then pops the sessions it carried
  /// from shard's queue — only once the whole payload has parsed. Throws
  /// on protocol violations.
  void ParseDrainReply(size_t shard, const std::vector<uint8_t>& payload);
  /// Reaps shard's process if still outstanding (blocking, EINTR-safe).
  void Reap(size_t shard);
  /// SIGKILLs, closes and reaps every remaining worker (destructor /
  /// abnormal paths — the graceful route is Shutdown). The kill is
  /// unconditional: a SIGSTOPped worker never sees the channel EOF, so
  /// waiting for a voluntary exit could hang forever.
  void TeardownWorkers();

  const std::vector<Point>* pois_;
  const PackedRTree* tree_;
  ClusterOptions options_;
  mutable std::mutex mu_;
  bool started_ = false;
  bool stopped_ = false;
  bool failed_ = false;  ///< poison latch (see RequireHealthy)
  uint32_t next_id_ = 0;
  /// One per shard from construction: the undrained-session queues take
  /// admissions before Start forks the workers.
  std::vector<Worker> workers_;
  FaultPlan fault_plan_;
  RecoveryStats stats_;
  /// Last drained result per global id; persists across Waits so final
  /// sessions on recovered (or lost) shards keep their results.
  std::vector<SessionFinalResult> results_;
  EngineRoundStats round_stats_;
};

}  // namespace mpn
