#include "engine/scheduler.h"

#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "engine/session_store.h"
#include "util/macros.h"

namespace mpn {

Scheduler::Scheduler(ThreadPool* pool, SessionTable* table,
                     SessionStore* store)
    : pool_(pool), table_(table), store_(store) {
  MPN_ASSERT(pool_ != nullptr && table_ != nullptr && store_ != nullptr);
  worker_slots_.resize(pool_->thread_count());
}

void Scheduler::Start() {
  MPN_ASSERT_MSG(!started(), "Scheduler::Start called twice");
  // Sequentially consistent with ReserveId and started(): an id the table
  // has not handed out when link_end_ is read belongs to an admission whose
  // Admit sees started() and schedules the session itself.
  started_.store(true, std::memory_order_seq_cst);
  link_end_ = static_cast<uint32_t>(table_->size());
  if (link_end_ == 0) return;
  AddOutstanding();
  pool_->Post(&StartLinkTask, this, nullptr, EventPriority(0, 0));
}

void Scheduler::StartLinkTask(void* self, void* /*unused*/) noexcept {
  auto* scheduler = static_cast<Scheduler*>(self);
  const uint32_t id = scheduler->link_id_;
  try {
    scheduler->StartSession(id);
  } catch (...) {
    scheduler->RecordError(id);
  }
  scheduler->SubOutstanding();
}

void Scheduler::StartSession(uint32_t id) {
  if (id + 1 < link_end_) {
    link_id_ = id + 1;  // the next link reads it after the pool's lock
    AddOutstanding();
    pool_->Post(&StartLinkTask, this, nullptr, EventPriority(0, id + 1));
  }
  SessionRecord* r = table_->Find(id);
  if (r == nullptr) return;
  std::lock_guard<std::mutex> lock(table_->MutexOf(r));
  ScheduleNextLocked(r);
}

void Scheduler::Admit(SessionRecord* r) {
  std::lock_guard<std::mutex> lock(table_->MutexOf(r));
  ScheduleNextLocked(r);  // no-op before Start, which schedules it then
  // Charge the session before its first event, posted above, can run.
  store_->AccountLocked(r);
}

void Scheduler::WaitIdle(bool ignore_holds) {
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this, ignore_holds]() {
    return outstanding_ == 0 && (ignore_holds || holds_ == 0);
  });
  // No task runs, and none can be posted while idle_mu_ is held: posting
  // calls AddOutstanding first.
  for (SlotTotals& worker : worker_slots_) {
    AddSlots(worker, &slots_);
    worker.clear();
  }
}

void Scheduler::Hold() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  ++holds_;
}

void Scheduler::Release() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  MPN_ASSERT(holds_ > 0);
  if (--holds_ == 0 && outstanding_ == 0) idle_cv_.notify_all();
}

SlotTotals Scheduler::SnapshotSlots() const {
  std::lock_guard<std::mutex> lock(idle_mu_);
  return slots_;
}

Scheduler::MailboxMarks Scheduler::SnapshotMailboxMarks() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return mailbox_;
}

void Scheduler::AddOutstanding() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  ++outstanding_;
}

void Scheduler::SubOutstanding() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  MPN_ASSERT(outstanding_ > 0);
  if (--outstanding_ == 0 && holds_ == 0) idle_cv_.notify_all();
}

void Scheduler::RecordError(uint32_t id) {
  std::string what = "unknown exception";
  try {
    throw;
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  std::lock_guard<std::mutex> lock(idle_mu_);
  if (error_.empty()) {
    error_ = "mpn engine: session " + std::to_string(id) + ": " + what;
  }
}

std::string Scheduler::error() const {
  std::lock_guard<std::mutex> lock(idle_mu_);
  return error_;
}

template <void (Scheduler::*Step)(SessionRecord*)>
void Scheduler::StepTask(void* self, void* record) noexcept {
  auto* scheduler = static_cast<Scheduler*>(self);
  auto* r = static_cast<SessionRecord*>(record);
  try {
    (scheduler->*Step)(r);
  } catch (...) {
    scheduler->RecordError(r->id);
  }
  scheduler->SubOutstanding();
}

void Scheduler::ScheduleEventLocked(SessionRecord* r, uint64_t priority) {
  r->event_queued = true;
  AddOutstanding();
  pool_->Post(&StepTask<&Scheduler::RunEvent>, this, r, priority);
}

void Scheduler::ScheduleNextLocked(SessionRecord* r) {
  if (!started()) return;
  if (r->finalized || r->event_queued || r->event_running) return;
  if (r->spilled) {
    // A spilled session is idle by construction (no job in flight, no
    // pending result, not done — spill eligibility): arm its next tick
    // from the cached clock without rehydrating; RunEvent rehydrates.
    ScheduleEventLocked(r, EventPriority(r->cached_next_t, r->id));
    return;
  }
  GroupSession* s = r->session.get();
  if (r->result_ready) {
    // Install + replay, at the violating timestamp's priority: a lagging
    // session's catch-up beats other sessions' future ticks.
    ScheduleEventLocked(r, EventPriority(r->job->outcome.t, r->id));
    return;
  }
  if (r->job_running) {
    // Recompute in flight: keep draining location updates into the
    // mailbox while it has room; otherwise the job re-arms the session
    // when it finishes.
    if (s->CanBuffer()) {
      ScheduleEventLocked(r, EventPriority(s->next_timestamp(), r->id));
    }
    return;
  }
  if (!s->done()) {
    ScheduleEventLocked(r, EventPriority(s->next_timestamp(), r->id));
    return;
  }
  FinalizeLocked(r);
}

void Scheduler::FinalizeLocked(SessionRecord* r) {
  MPN_ASSERT(!r->job_running && !r->result_ready && !r->finalized);
  GroupSession* s = r->session.get();
  s->Finish();
  r->finalized = true;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    mailbox_.peak.Add(static_cast<double>(s->mailbox_peak()));
    mailbox_.stalls.Add(static_cast<double>(s->stall_count()));
  }
  // Compact: the state machine collapses to its SessionFinalResult.
  store_->CompactFinalizedLocked(r);
}

void Scheduler::RunEvent(SessionRecord* r) {
  events_processed_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<JobSlot> finished;  // set when this event installs
  bool awaiting = false;
  {
    std::lock_guard<std::mutex> lock(table_->MutexOf(r));
    // The event may belong to a spilled session — bring it back first.
    store_->EnsureResidentLocked(r);
    r->event_queued = false;
    r->event_running = true;
    if (r->result_ready) {
      finished = std::move(r->job);
      r->result_ready = false;
    } else {
      awaiting = r->job_running;
    }
  }
  GroupSession* s = r->session.get();
  // Crash injection (see set_crash_at_timestamp): die without unwinding —
  // the kernel closes the IPC pipe, which is exactly the failure signal a
  // real worker crash produces. next_timestamp() only grows and is capped
  // by the (finite) horizon, so the SIZE_MAX default can never trigger.
  if (s->next_timestamp() >= crash_at_timestamp_ && !s->AdvancesExhausted()) {
    std::_Exit(134);
  }

  bool post_job = false;
  GroupSession::Snapshot snap;
  SlotTotals* slots = WorkerSlots();
  if (finished != nullptr) {
    s->InstallResult(std::move(finished->outcome), slots);
    for (;;) {
      const GroupSession::Replay rr = s->ReplayOne(&snap, slots);
      if (rr == GroupSession::Replay::kViolation) {
        post_job = true;
        break;
      }
      if (rr == GroupSession::Replay::kEmpty) break;
    }
  } else if (awaiting) {
    // The event was queued as a buffer tick; room may have vanished if a
    // retirement truncated the horizon meanwhile.
    if (s->CanBuffer()) s->BufferAdvance(slots);
  } else if (!s->AdvancesExhausted()) {
    MPN_ASSERT(s->MailboxEmpty());
    post_job = s->AdvanceAndCheck(&snap, slots);
  }

  const size_t job_t = snap.t;
  {
    std::lock_guard<std::mutex> lock(table_->MutexOf(r));
    r->event_running = false;
    if (post_job) {
      // A violation during replay reuses the slot the install emptied.
      r->job = finished != nullptr ? std::move(finished)
                                   : std::make_unique<JobSlot>();
      r->job->snap = std::move(snap);
      r->job_running = true;
    }
    ScheduleNextLocked(r);
    // Re-account the (grown) session while the next event, posted above,
    // still waits for the record lock: after a violation that event is a
    // buffer tick, which advances the very clients the estimate reads.
    store_->AccountLocked(r);
  }
  if (post_job) {
    AddOutstanding();
    pool_->Post(&StepTask<&Scheduler::RunJob>, this, r,
                EventPriority(job_t, r->id));
  }
  // Spill whatever the budget no longer covers, outside every lock.
  store_->Rebalance();
}

void Scheduler::RunJob(SessionRecord* r) {
  // The slot is the job's alone until result_ready is published below.
  JobSlot* slot = r->job.get();
  slot->outcome = r->session->Recompute(slot->snap, WorkerSlots());
  std::lock_guard<std::mutex> lock(table_->MutexOf(r));
  r->job_running = false;
  r->result_ready = true;
  ScheduleNextLocked(r);
}

}  // namespace mpn
