// One group's Fig. 3 protocol round-trip as an independent state machine.
//
// A GroupSession owns the server-side computation state (MpnServer) and the
// client replicas (MpnClient) of a single moving group. Since the engine
// went event-driven the per-timestamp step is split into schedulable
// phases so the expensive safe-region recomputation can run off the tick
// path:
//
//   AdvanceAndCheck  — advance clients one timestamp and check containment
//                      (the fast path). On a violation it captures the
//                      locations + motion hints the recomputation needs.
//   Recompute        — the Tile/Circle-MSR run. Touches only the server
//                      state, so the scheduler executes it as an async pool
//                      job concurrently with BufferAdvance calls.
//   BufferAdvance    — while a recomputation is in flight, location
//                      updates keep arriving: advance clients and append
//                      the snapshot to a bounded mailbox instead of
//                      checking regions the session does not have yet.
//                      A full mailbox stalls the session's virtual clock
//                      until the install — the one backpressure rule.
//   InstallResult    — apply a finished recomputation (step-3 messages,
//                      codec round-trip, region installation), then
//   ReplayOne        — re-check the buffered updates, oldest first,
//                      against the fresh regions; a violation mid-replay
//                      captures a new recomputation snapshot and leaves
//                      the remaining mailbox entries queued.
//
// The logical per-session order — advance t, check t against the newest
// regions, recompute with the locations of the violating timestamp — is
// exactly the order the old synchronous Tick() produced, so per-session
// results are bit-identical to a sequential run no matter how the
// scheduler interleaves sessions or how long a recomputation takes in
// wall-clock terms. Sessions share nothing mutable with each other.
//
// Thread-safety contract: all methods except Recompute must be serialized
// per session (the scheduler guarantees one session event at a time).
// Recompute may run concurrently with BufferAdvance on the same session —
// it touches only the MpnServer, its own outcome and the slot totals it is
// handed. Two Recomputes of the same session never overlap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/message.h"
#include "sim/client.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "traj/trajectory.h"
#include "util/timer.h"

namespace mpn {

/// Per-session knobs of the dynamic-admission API.
struct SessionTuning {
  /// Multiplies the wall-clock cost of every recomputation by busy-waiting
  /// (straggler injection for scheduling benches). Results are unaffected —
  /// only wall time, which the digest excludes.
  double recompute_cost_factor = 1.0;
  /// Deterministic retirement: the session stops before advancing to this
  /// timestamp, exactly as if its horizon were min(horizon, retire_at).
  /// Settable later via Engine::RetireSession.
  size_t retire_at = std::numeric_limits<size_t>::max();
  /// Buffered location updates the session may accumulate while a
  /// recomputation is in flight. A full mailbox stops the session's
  /// virtual clock until the fresh regions arrive (counted in
  /// stall_count()); 0 stalls on every recomputation.
  size_t mailbox_capacity = 16;
};

/// Throws std::invalid_argument unless `group` is a non-empty list of at
/// most UINT32_MAX non-null, non-empty trajectories and
/// `tuning.recompute_cost_factor` is finite and >= 1. Both engines'
/// AdmitSession call it before they reserve an id, so a malformed
/// admission leaves no trace (and never reaches a worker).
void ValidateAdmission(const std::vector<const Trajectory*>& group,
                       const SessionTuning& tuning);

/// What the sessions' phases attribute to one virtual timestamp.
struct Slot {
  size_t messages = 0;    ///< protocol messages attributed to this ts
  size_t recomputes = 0;  ///< safe-region violations at this ts
  double seconds = 0.0;   ///< processing seconds attributed to this ts
};
/// Per-timestamp totals, slot t for timestamp t; commutative sums.
using SlotTotals = std::vector<Slot>;

/// Adds `share` to slot t of `*totals`, growing it to t + 1 slots; a null
/// `totals` records nothing.
void AddToSlot(SlotTotals* totals, size_t t, const Slot& share);
/// Adds `from` into `*into` slot by slot, growing it to from's length.
void AddSlots(const SlotTotals& from, SlotTotals* into);

/// The per-session fields the engine still serves after a finalized
/// session's state machine has been destroyed (engine/session_store.h
/// compacts every finalized session down to this, budget or not).
struct SessionFinalResult {
  SimMetrics metrics;
  bool has_result = false;
  uint32_t po = 0;
  size_t mailbox_peak = 0;
  size_t stall_count = 0;
  /// The session's advance stamps, one per timestamp of its horizon, kept
  /// so round-latency percentiles survive compaction.
  std::vector<double> advance_seconds;
};

/// Single-group protocol state machine, driven by the engine's scheduler.
class GroupSession {
 public:
  /// Probe-phase capture of one timestamp: everything a recomputation (or a
  /// deferred region check) needs from the clients.
  struct Snapshot {
    size_t t = 0;
    std::vector<Point> locations;
    std::vector<MotionHint> hints;
  };

  /// Result of one async recomputation, handed back to InstallResult.
  struct RecomputeOutcome {
    size_t t = 0;                 ///< violating timestamp
    MsrResult result;
    double compute_seconds = 0.0; ///< server time (excl. straggler spin)
  };

  /// Outcome of re-checking one buffered location update.
  enum class Replay {
    kClean,      ///< inside the fresh regions; entry consumed
    kViolation,  ///< outside; entry consumed, snapshot captured
    kEmpty       ///< mailbox drained
  };

  /// All referenced data must outlive the session. All trajectories must be
  /// at least as long as the simulated horizon. `run_timer` (optional) is
  /// the engine-wide clock the advances are stamped against.
  GroupSession(uint32_t id, const std::vector<Point>* pois,
               const PackedRTree* tree,
               const std::vector<const Trajectory*>& group,
               const SimOptions& options,
               const SessionTuning& tuning = SessionTuning(),
               const Timer* run_timer = nullptr);

  uint32_t id() const { return id_; }

  /// Timestamps this session would simulate without retirement (the
  /// shortest trajectory's length).
  size_t horizon() const { return horizon_; }

  /// Horizon after retirement truncation.
  size_t effective_horizon() const {
    const size_t r = retire_at_;
    return r < horizon_ ? r : horizon_;
  }

  /// Next timestamp an Advance call would process.
  size_t next_timestamp() const { return next_t_; }

  /// True when no further advances are possible.
  bool AdvancesExhausted() const { return next_t_ >= effective_horizon(); }

  /// True when every advanced timestamp has also been region-checked (or
  /// dropped by retirement) — i.e. nothing is buffered.
  bool MailboxEmpty() const { return MailboxSize() == 0; }

  /// True while a recomputation is in flight and another location update
  /// can land in the mailbox; a full mailbox stalls the clock instead.
  bool CanBuffer() const {
    return !AdvancesExhausted() && MailboxSize() < tuning_.mailbox_capacity;
  }

  /// True once every timestamp has been processed (the scheduler must also
  /// see no recomputation in flight before finalizing).
  bool done() const { return AdvancesExhausted() && MailboxEmpty(); }

  // Each phase adds its share to `slots` (the scheduler passes the running
  // pool worker's array, so a session keeps no per-timestamp counter): a
  // violation's step 1/2 messages and recompute at the violating timestamp,
  // its step-3 messages there too at the install, each phase's seconds at
  // the timestamp it serves. With no `slots` they record nothing.

  /// Fast path: advance clients one timestamp and check containment.
  /// Returns true on a safe-region violation, with `snap` filled for the
  /// recomputation. Requires an empty mailbox; no-op (returns false) when
  /// a concurrent retirement already exhausted the horizon.
  bool AdvanceAndCheck(Snapshot* snap, SlotTotals* slots = nullptr);

  /// Advance clients one timestamp into the mailbox (recompute in flight).
  /// No-op when a concurrent retirement invalidated CanBuffer().
  void BufferAdvance(SlotTotals* slots = nullptr);

  /// Runs the safe-region recomputation for `snap`. The only method the
  /// scheduler may run concurrently with BufferAdvance.
  RecomputeOutcome Recompute(const Snapshot& snap, SlotTotals* slots = nullptr);

  /// Applies a finished recomputation: result bookkeeping, step-3 messages,
  /// codec round-trip, region installation.
  void InstallResult(RecomputeOutcome outcome, SlotTotals* slots = nullptr);

  /// Re-checks the oldest buffered update against the current regions.
  Replay ReplayOne(Snapshot* snap, SlotTotals* slots = nullptr);

  /// Pulls the server's accumulated algorithm counters into metrics().
  /// Call once after the last phase (no recomputation may be in flight).
  void Finish() { metrics_.msr = server_.stats(); }

  /// Requests retirement: the session stops before advancing to timestamp
  /// `at` (already-advanced timestamps are unaffected; buffered updates at
  /// or past `at` are dropped unchecked). Callable from any thread.
  void RequestRetire(size_t at) {
    size_t cur = retire_at_;
    while (at < cur && !retire_at_.compare_exchange_weak(cur, at)) {
    }
  }

  /// Metrics accumulated so far.
  const SimMetrics& metrics() const { return metrics_; }

  /// POI id of the current meeting point (valid after the first update).
  uint32_t current_po() const { return current_po_; }

  /// True after the first update round.
  bool has_result() const { return has_result_; }

  /// Highest mailbox occupancy the session ever reached. Wall-clock
  /// dependent (how many updates land during a recomputation depends on
  /// its latency), so it is observability only and excluded from digests.
  size_t mailbox_peak() const { return mailbox_peak_; }

  /// Times a recomputation flight saturated the mailbox — further location
  /// updates had to stall the session's virtual clock until the fresh
  /// regions arrived. With mailbox_capacity == 0 every non-final
  /// recomputation stalls (deterministically); for capacity >= 1 the count
  /// is wall-clock dependent. Observability only, excluded from digests.
  size_t stall_count() const { return stall_count_; }

  /// Distills the session into the fields the engine keeps serving after
  /// compaction. After Finish() that is the final result. Read mid-run,
  /// every field is current except `metrics.msr`: the server's algorithm
  /// counters are folded into metrics() only at Finish().
  SessionFinalResult ExtractFinalResult() const {
    SessionFinalResult fr;
    fr.metrics = metrics_;
    fr.has_result = has_result_;
    fr.po = current_po_;
    fr.mailbox_peak = mailbox_peak_;
    fr.stall_count = stall_count_;
    fr.advance_seconds = advance_at_;
    return fr;
  }

  // --- out-of-core snapshotting (engine/session_store.h) -------------------

  /// Plain-data snapshot of a live session's evolving state. Everything the
  /// constructor arguments do not already determine; the advance trace
  /// carries only the first next_t entries (later entries are provably
  /// still at their initial zero). Wire encoding lives in
  /// engine/session_codec.h so this layer stays IPC-free.
  struct State {
    size_t next_t = 0;
    size_t retire_at = std::numeric_limits<size_t>::max();
    bool has_result = false;
    uint32_t current_po = 0;
    size_t mailbox_peak = 0;
    size_t stall_count = 0;
    SimMetrics metrics;
    MpnServer::State server;
    std::vector<MpnClient::State> clients;
    std::vector<double> advance_at;
  };

  /// Captures the session's full evolving state. Only valid between events
  /// with an empty mailbox and no recomputation in flight (asserted) — at
  /// that boundary Import(Export()) is a bit-exact identity, which is what
  /// makes spilling digest-neutral.
  State ExportState() const;

  /// Restores a captured state into a freshly constructed session (same id,
  /// same trajectories, same options/tuning).
  void ImportState(const State& state);

  /// Deterministic resident-byte estimate: a pure function of the logical
  /// state, identical across runs/machines for the engine's accounting.
  /// The budget charges these bytes, not heap bytes: a fresh two-member
  /// Circle session of horizon 16 (fleet_spill's shape) is charged 1,024 B
  /// and takes 2 blocks besides the object, the client vector and the
  /// advance trace (GroupSessionFootprintTest pins them).
  size_t StateBytesEstimate() const;

 private:
  /// Advances the clients to t and stamps advance_at_[t] with the start of
  /// `tick`, the phase timer of the tick doing it: one clock read serves
  /// both.
  void AdvanceClients(size_t t, const Timer& tick);
  void CaptureSnapshot(size_t t, Snapshot* snap) const;
  /// Step 1/2 messages + update counters of a violation; returns the count.
  size_t RecordViolation();
  /// Buffered updates not yet replayed.
  size_t MailboxSize() const { return mailbox_.size() - mailbox_head_; }

  uint32_t id_;
  SessionTuning tuning_;
  const Timer* run_timer_;
  MpnServer server_;
  std::vector<MpnClient> clients_;
  PacketModel packet_model_;
  SimMetrics metrics_;
  size_t horizon_ = 0;
  size_t next_t_ = 0;
  std::atomic<size_t> retire_at_{std::numeric_limits<size_t>::max()};
  /// Buffered updates, oldest at mailbox_head_; entries before it were
  /// replayed. A replay that drains the mailbox clears it (keeping its
  /// capacity), so a session that never buffers allocates nothing here.
  std::vector<Snapshot> mailbox_;
  size_t mailbox_head_ = 0;
  size_t mailbox_peak_ = 0;
  size_t stall_count_ = 0;
  /// The in-flight recomputation filled the mailbox; counted as one stall
  /// when its result installs.
  bool flight_saturated_ = false;
  bool has_result_ = false;
  uint32_t current_po_ = 0;

  /// Wall seconds (engine run timer) when the tick that advanced to
  /// timestamp t started; the gaps are the round latencies. Served as
  /// SessionFinalResult::advance_seconds.
  std::vector<double> advance_at_;
};

}  // namespace mpn
