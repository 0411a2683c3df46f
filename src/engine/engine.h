// Multi-group concurrent server engine (event-driven).
//
// The Engine owns a session table, a fixed-size thread pool, and an
// event-driven scheduler (engine/scheduler.h): every session advances on
// its own virtual clock, ordered by (next_timestamp, session_id) in the
// pool's priority queue, so a lagging session delays only itself — there is
// no global round barrier. A safe-region violation posts the Tile/Circle-
// MSR recomputation as an async pool job; the session keeps buffering
// location updates in a bounded mailbox and re-enters the ready queue when
// its fresh regions arrive. Groups can be admitted and retired mid-run:
// AdmitSession / RetireSession are callable from any thread while the
// engine drains; the session table's one lock serves only them and result
// reads, never the scheduler.
//
// Since the cluster layer landed (engine/cluster.h) the engine is a
// persistent server: Wait() drains the sessions admitted so far but keeps
// the engine serving, so admit/Wait cycles can repeat indefinitely (the
// worker serving loop); Shutdown() ends the engine's life explicitly. A
// one-shot run is Start() then Shutdown().
//
// Engine and ClusterEngine share one surface, by name: the lifecycle
// (AdmitSession, RetireSession, Start, Wait, Shutdown) and the reads
// (WithSessionResult, TotalMetrics, round_stats, memory_stats,
// ResultDigest, session_count). A session's result is read only through
// WithSessionResult, which streams it without rehydrating a spilled
// session. Callers that treat both engines alike are templates over those
// names; there is no common base class.
//
// Determinism: sessions share only immutable data (POIs, R-tree), every
// session phase except the recomputation job is serialized per session,
// and the per-session logical step order is independent of wall-clock
// interleaving (see scheduler.h). Everything in SimMetrics except the
// wall-clock timing fields is therefore bit-identical across thread
// counts for a fixed session set — ResultDigest() hashes exactly those
// deterministic fields.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "engine/group_session.h"
#include "engine/memory_budget.h"
#include "engine/scheduler.h"
#include "engine/session_table.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mpn {

/// Engine configuration.
struct EngineOptions {
  /// Worker threads in the pool (0 = hardware concurrency).
  size_t threads = 1;
  /// Per-session simulation options (the server configuration).
  SimOptions sim;
  /// Crash-injection test hook: the process _Exit(134)s the first time any
  /// session is about to advance to this virtual timestamp (deterministic
  /// in virtual time). SIZE_MAX disables. Set by the cluster supervisor
  /// when a worker incarnation's fault batch holds a `crash` event
  /// (FaultPlan, engine/ipc.h); never use it in-process.
  size_t crash_at_timestamp = static_cast<size_t>(-1);
  /// Resident-session byte budget (engine/memory_budget.h); bytes_cap == 0
  /// turns spilling off. Any cap produces bit-identical digests to an
  /// unbudgeted run — only memory_stats() and wall time change.
  MemoryBudget budget;
};

/// Throws std::invalid_argument unless `pois` and `tree` are non-null and
/// `tree` indexes as many points as `pois` holds. Both engines' constructors
/// call it (`engine` names the caller in the message), so a tree built from
/// another POI set fails there rather than at the first admission.
void ValidatePoiIndex(const std::vector<Point>* pois, const PackedRTree* tree,
                      const char* engine);

/// Per-timestamp aggregates of one Engine run, built on util/stats. A
/// "round" is one virtual timestamp slot: since sessions run on their own
/// clocks, the per-slot totals aggregate each session's timestamp t
/// regardless of when it was processed in wall-clock terms — which makes
/// them deterministic.
struct EngineRoundStats {
  RunningStat messages_per_round;      ///< protocol messages per timestamp
  RunningStat recomputes_per_round;    ///< safe-region recomputations
  RunningStat round_seconds;           ///< processing seconds per timestamp
  size_t rounds = 0;                   ///< timestamp slots processed
  /// Mailbox high-water marks, one observation per finalized session: the
  /// highest occupancy each session's mailbox reached, and how often a
  /// recomputation flight saturated it (stalling the session's clock).
  /// Folded at finalization, not re-read by Wait. Wall-clock dependent —
  /// excluded from ResultDigest().
  RunningStat mailbox_peak_per_session;
  RunningStat mailbox_stalls_per_session;

  /// Folds per-timestamp slot totals in timestamp order — the fold the
  /// engine and the cluster coordinator share, so their counter columns
  /// are bit-identical. The mailbox marks are left for the caller to add.
  static EngineRoundStats FromSlots(const SlotTotals& slots);

  /// Renders the aggregates as a util/table (one row per metric).
  Table ToTable() const;
};

/// Concurrent multi-group server engine.
class Engine {
 public:
  /// Retire as soon as the session's event chain notices (non-deterministic
  /// cut point; pass an explicit timestamp for a deterministic one).
  static constexpr size_t kRetireNow = 0;

  /// RAII admission hold: keeps Wait()/Shutdown() from returning while
  /// mid-run admissions are still coming. Shares ownership of the
  /// scheduler, so a hold that outlives its engine releases safely (though
  /// holding one past ~Engine just forfeits the hold — the destructor
  /// drains anyway).
  class Hold {
   public:
    Hold() = default;
    explicit Hold(std::shared_ptr<Scheduler> scheduler)
        : scheduler_(std::move(scheduler)) {
      scheduler_->Hold();
    }
    Hold(Hold&& other) noexcept = default;
    Hold& operator=(Hold&& other) noexcept {
      Reset();
      scheduler_ = std::move(other.scheduler_);
      return *this;
    }
    ~Hold() { Reset(); }
    /// Releases the hold early.
    void Reset() {
      if (scheduler_ != nullptr) scheduler_->Release();
      scheduler_.reset();
    }

   private:
    std::shared_ptr<Scheduler> scheduler_;
  };

  /// `pois` and `tree` are shared, read-only, and must outlive the engine;
  /// throws std::invalid_argument when they do not match (ValidatePoiIndex).
  Engine(const std::vector<Point>* pois, const PackedRTree* tree,
         const EngineOptions& options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers one group; returns its session id (dense, in admission
  /// order). The trajectories must stay alive until a Wait() (or
  /// Shutdown()) called after this admission returns — every session
  /// admitted before it is final then, and a final session holds no
  /// pointer into them — or else until the engine is destroyed, since
  /// ~Engine drains what is still in flight. Callable from any thread,
  /// before Start or while the engine drains; throws
  /// std::logic_error once the engine has finished and
  /// std::invalid_argument for a malformed group or tuning
  /// (ValidateAdmission), in both cases without reserving an id.
  uint32_t AdmitSession(std::vector<const Trajectory*> group,
                        const SessionTuning& tuning = SessionTuning());

  /// Stops session `id` before it advances to timestamp `at` (a
  /// deterministic truncation of its horizon — same digest on every thread
  /// count if `at` is set before the session reaches it, e.g. via
  /// SessionTuning::retire_at at admission). kRetireNow stops it at the
  /// next event boundary instead, which is wall-clock dependent.
  /// Already-processed timestamps are unaffected; the session keeps its
  /// metrics and digest contribution. Callable from any thread; throws
  /// std::out_of_range for an id that was never admitted.
  void RetireSession(uint32_t id, size_t at_timestamp = kRetireNow);

  size_t session_count() const { return table_->size(); }
  size_t thread_count() const { return pool_->thread_count(); }

  /// Begins dispatching (non-blocking; work runs on the pool). Throws
  /// std::logic_error when called twice.
  void Start();

  /// Serving-loop drain: blocks until every session admitted so far has
  /// finished and no admission hold is outstanding, then refreshes the
  /// round stats from the slots the pool workers added up as the steps ran
  /// (O(timestamps), not O(sessions)). The engine keeps serving — new
  /// sessions may be admitted after Wait() returns and drained by another
  /// Wait(), so a worker built on the engine is a long-lived server rather
  /// than a one-shot drain.
  /// Results (digest, metrics, stats) are valid after every Wait().
  ///
  /// If a session event or recomputation threw (a spill file that cannot
  /// be created or written, a spilled snapshot that does not decode), the
  /// other sessions still drain, and then this throws std::runtime_error
  /// naming the first failing session — and so does every later Wait().
  /// The destructor never throws.
  void Wait();

  /// Wait() + permanently stop serving: AdmitSession afterwards is a hard
  /// std::logic_error. Idempotent.
  void Shutdown();

  /// Keeps Wait()/Shutdown() from returning while the caller still plans
  /// mid-run admissions. Acquire before Start (or while holding another
  /// hold) to avoid racing the drain.
  Hold AcquireHold() { return Hold(scheduler_); }

  /// Streams session `id`'s result (valid after Wait) to `fn`: metrics,
  /// final meeting point, mailbox marks and the wall-clock advance stamps
  /// (seconds since Start; consecutive gaps are the round latencies). A
  /// spilled session is decoded into a stack-local that dies with the call
  /// and is never rehydrated, so reading every session stays O(1)
  /// resident. The reference is valid only inside `fn`. Throws
  /// std::out_of_range for an id that was never admitted.
  void WithSessionResult(
      uint32_t id,
      const std::function<void(const SessionFinalResult&)>& fn) const;

  /// Spill/rehydrate counters and resident accounting of the session
  /// store. Resident and peak bytes are charged with or without a budget;
  /// the spill counters stay zero without one. Counters are deterministic
  /// at threads == 1 under a fixed budget for sessions admitted before
  /// Start (a mid-run admission races the worker's events); with more
  /// threads the victim timing is wall-clock dependent.
  MemoryStats memory_stats() const;

  /// Merged metrics across all sessions (valid after Wait).
  SimMetrics TotalMetrics() const;

  /// Per-timestamp aggregates (valid after Wait; refreshed by every Wait).
  const EngineRoundStats& round_stats() const { return round_stats_; }

  /// Raw per-timestamp slot totals as of the last Wait. Exposed so the
  /// cluster layer can serialize a worker's timeline and re-aggregate it
  /// coordinator-side with the same commutative per-slot sums.
  SlotTotals timeline_slots() const {
    return scheduler_->SnapshotSlots();
  }

  /// Monotone count of scheduler events dispatched — the liveness signal
  /// a cluster worker's heartbeat replies carry (see Scheduler::
  /// events_processed). Safe to read from any thread at any time.
  uint64_t events_processed() const { return scheduler_->events_processed(); }

  /// FNV-1a hash over every deterministic per-session result field
  /// (protocol counters, algorithm counters, final meeting point) in
  /// session-id order. Identical across thread counts for identical
  /// admissions; wall-clock fields are excluded.
  uint64_t ResultDigest() const;

 private:
  /// The record of session `id`; std::out_of_range when never admitted.
  SessionRecord* FindChecked(uint32_t id) const;
  /// Rebuilds round_stats_ from the scheduler's slots and mailbox marks.
  /// Called after every drain (idle engine, all sessions final).
  void RebuildRoundStats();

  const std::vector<Point>* pois_;
  const PackedRTree* tree_;
  EngineOptions options_;
  Timer run_timer_;
  EngineRoundStats round_stats_;
  // Atomic: AdmitSession/RetireSession read these from arbitrary threads
  // while Start()/Wait() write them.
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  // Destruction order matters: the pool (declared last) is destroyed
  // first, joining every worker before the scheduler and table they
  // reference go away. ~Engine additionally drains outstanding work so no
  // task re-posts into a stopping pool.
  std::unique_ptr<SessionTable> table_;
  // Destroyed after the scheduler (which holds a raw pointer into it) and
  // before the table whose records it compacts/spills.
  std::unique_ptr<SessionStore> store_;
  // shared_ptr so outstanding Holds keep the Scheduler object (whose
  // Release() only touches its own mutex/cv) alive past ~Engine.
  std::shared_ptr<Scheduler> scheduler_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mpn
