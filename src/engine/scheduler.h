// Event-driven session scheduler.
//
// Replaces the old lockstep round loop (every live session ticked once per
// global round, barrier between rounds) with independent per-session
// virtual clocks: each session's next step is an event ordered by
// (next_timestamp, session_id) in the thread pool's priority queue — the
// ready min-heap. A lagging session therefore delays only itself; everyone
// else keeps draining their own timelines.
//
// Per session, exactly one *event* (tick / buffer tick / install+replay)
// executes at a time; re-arming is a chain — each event schedules the
// session's next step as it completes. A safe-region violation moves the
// violating snapshot into the record's job slot (session_table.h) and posts
// the expensive recomputation as an async pool job; the session leaves the
// ready queue. While the job runs, location updates keep landing through
// buffer-tick events into the session's bounded mailbox. The job ends by
// re-arming the session: the next event moves the slot out, installs the
// fresh regions and replays the mailbox. The recomputation job is the only
// session work that may run concurrently with a session event (it touches
// only server state — see group_session.h). Both post as plain (function,
// scheduler, record) pool entries — nothing is allocated per event.
//
// Start: the sessions admitted before Start do not all enter the ready
// heap at once. Start posts one *start link*, a pool task at the priority
// of session 0's first event; each link posts the link for the next id and
// then schedules its own session's first event. On one thread the events
// pop in the order a heap holding every first event would pop them, but
// under id-major ordering the heap holds one unstarted session instead of
// every admitted one.
//
// Failures: an exception from an event or a job (a spill file that cannot
// be written, a snapshot that does not decode) is caught in the task, the
// first one is kept with its session id, and Engine::Wait rethrows it. The
// outstanding count is released either way, so WaitIdle still drains. A
// session whose own step threw stops where it was; every other session
// runs on.
//
// Determinism: the scheduler fixes *which* logical step a session runs
// next, never the wall-clock interleaving across sessions — and a
// session's logical step order is a pure function of its own inputs, so
// per-session results are bit-identical across thread counts, admission
// timing, and recomputation latency. Per-timestamp aggregates are
// commutative sums, added per pool worker as the steps run and merged by
// WaitIdle, so they are deterministic too.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/session_table.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mpn {

class SessionStore;

/// Drives session events and async recomputations over a thread pool.
class Scheduler {
 public:
  /// `store` is the engine's session store: Admit charges new sessions to
  /// it, RunEvent rehydrates spilled sessions through it and re-accounts/
  /// rebalances after every event, and finalization compacts through it.
  Scheduler(ThreadPool* pool, SessionTable* table, SessionStore* store);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Begins dispatching: posts the start link that schedules, one id at a
  /// time, the first event of every session admitted so far. Sessions
  /// admitted later self-schedule via Admit.
  void Start();

  /// Crash-injection test hook (cluster recovery harness): the process
  /// calls std::_Exit the first time any session's event fires while that
  /// session is about to advance to virtual timestamp >= `t` — a
  /// deterministic-in-virtual-time worker death for EngineOptions::
  /// crash_at_timestamp (a FaultPlan `crash` event). Must be set before
  /// Start (no synchronization). SIZE_MAX (the default) disables the hook.
  void set_crash_at_timestamp(size_t t) { crash_at_timestamp_ = t; }

  /// Switches the ready ordering from time-major (t, id) to id-major
  /// (id, t): each session runs its whole timeline before the next
  /// session's first event fires. Per-session results are interleaving-
  /// independent (see the determinism note above), so this is digest-
  /// neutral — but under a memory budget it turns the spill pattern from
  /// one rehydration per (session, timestamp) into roughly one per
  /// session. Must be set before Start.
  void set_locality_priority(bool on) { locality_priority_ = on; }

  /// True after Start().
  bool started() const { return started_.load(std::memory_order_seq_cst); }

  /// Monotone count of session events dispatched so far — a cheap
  /// liveness signal: a worker whose scheduler is making progress keeps
  /// incrementing this, one that is wedged does not. Read concurrently by
  /// the cluster worker's heartbeat responder thread.
  uint64_t events_processed() const {
    return events_processed_.load(std::memory_order_relaxed);
  }

  /// Schedules a freshly admitted session's first event (no-op before
  /// Start — Start picks it up) and charges the session to the store under
  /// the same lock, before that event can run. Finalizes already-done
  /// (zero-horizon) sessions immediately. The caller rebalances the store
  /// afterwards.
  void Admit(SessionRecord* record);

  /// Blocks until no events or jobs are queued/running and no holds are
  /// outstanding, then merges the workers' slot arrays into the slot
  /// totals. With `ignore_holds`, returns as soon as the work drains
  /// (engine destruction path).
  void WaitIdle(bool ignore_holds = false);

  /// The first exception an event or job threw, as "mpn engine: session
  /// <id>: <what>"; empty while none has.
  std::string error() const;

  /// A hold keeps WaitIdle from returning while mid-run admissions are
  /// still coming (otherwise the engine could drain and stop between two
  /// AdmitSession calls).
  void Hold();
  void Release();

  /// Copies the per-timestamp slot totals as of the last WaitIdle: every
  /// step that ran before it, whether or not its session has finished.
  SlotTotals SnapshotSlots() const;

  /// Mailbox marks folded at finalization, one observation per session.
  struct MailboxMarks {
    RunningStat peak;    ///< GroupSession::mailbox_peak
    RunningStat stalls;  ///< GroupSession::stall_count
  };
  /// Copies the marks under the stats lock (sessions may be finalizing).
  MailboxMarks SnapshotMailboxMarks() const;

 private:
  /// Priority of a session event. Default: virtual time first, session id
  /// as the tie-break — the (next_timestamp, session_id) ready ordering.
  /// Under locality mode the fields swap (id-major, timestamp clamped to
  /// 32 bits). The pool runs only session steps and start links, and a
  /// link takes its session's first-event priority, so the key alone
  /// orders its queue.
  uint64_t EventPriority(size_t t, uint32_t id) const {
    if (locality_priority_) {
      const uint64_t clamped =
          t < 0xffffffffu ? static_cast<uint64_t>(t) : 0xffffffffu;
      return (static_cast<uint64_t>(id) << 32) | clamped;
    }
    return (static_cast<uint64_t>(t) << 32) | id;
  }

  /// Pool entry point of a session step (self = this, record = the
  /// session): runs the step, records what it threw, and releases the
  /// step's outstanding count either way.
  template <void (Scheduler::*Step)(SessionRecord*)>
  static void StepTask(void* self, void* record) noexcept;
  /// Pool entry point of a start link (self = this): starts the session
  /// link_id_ names and releases the link's outstanding count.
  static void StartLinkTask(void* self, void* unused) noexcept;
  /// Posts the link for id + 1 (while below link_end_), then schedules
  /// session `id`'s first event — or finalizes a zero-horizon session. An
  /// id reserved but not yet inserted is skipped: its Admit schedules it.
  void StartSession(uint32_t id);
  void RunEvent(SessionRecord* r);
  /// The slot array of the pool worker running the caller.
  SlotTotals* WorkerSlots() { return &worker_slots_[pool_->CurrentWorker()]; }
  /// Recomputes into r->job and re-arms the session.
  void RunJob(SessionRecord* r);
  /// Called from a catch block: keeps the exception being handled as
  /// session `id`'s error unless an earlier one is kept.
  void RecordError(uint32_t id);
  /// Decides and schedules the session's next step. Caller holds the
  /// record lock (SessionTable::MutexOf).
  void ScheduleNextLocked(SessionRecord* r);
  void ScheduleEventLocked(SessionRecord* r, uint64_t priority);
  /// Finish + fold the session's mailbox marks into mailbox_. Caller holds
  /// the record lock.
  void FinalizeLocked(SessionRecord* r);
  void AddOutstanding();
  void SubOutstanding();

  ThreadPool* pool_;
  SessionTable* table_;
  SessionStore* store_;
  bool locality_priority_ = false;   ///< id-major ready ordering
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> events_processed_{0};
  size_t crash_at_timestamp_ = static_cast<size_t>(-1);
  /// The start links' id range: link_end_ is fixed by Start, and link_id_
  /// is the session the queued link starts. Only the running link reads
  /// or advances link_id_; the pool's lock hands it to the next link.
  uint32_t link_id_ = 0;
  uint32_t link_end_ = 0;

  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  size_t outstanding_ = 0;  ///< queued/running events, jobs, links (idle_mu_)
  size_t holds_ = 0;        ///< outstanding admission holds (idle_mu_)
  std::string error_;       ///< first event/job failure (idle_mu_)
  /// One slot array per pool worker. A task writes its worker's array
  /// before SubOutstanding takes idle_mu_, and WaitIdle reads them under
  /// idle_mu_ with nothing outstanding, so no lock is taken per step.
  std::vector<SlotTotals> worker_slots_;
  SlotTotals slots_;  ///< merged slot totals (idle_mu_)

  mutable std::mutex stats_mu_;
  MailboxMarks mailbox_;
};

}  // namespace mpn
