// Session table of the event-driven engine.
//
// One mutex over one vector indexed by session id: an AdmitSession call
// takes it once, to insert its record. The scheduler never takes it —
// every posted event and job carries its SessionRecord* — so the lock
// serves only admissions, RetireSession and result reads. Ids come from a
// single atomic counter, so they are dense and globally ordered — the
// digest and the metrics iteration read sessions in admission order
// regardless of which thread admitted them.
//
// A SessionRecord bundles the GroupSession with the scheduler's per-session
// flags. The record mutex serializes only the *scheduling decisions* (who
// runs the next event); the session phases themselves execute outside it.
// Records are never erased — a retired session keeps its metrics and final
// meeting point for the digest.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/group_session.h"

namespace mpn {

/// A recomputation in flight: the violating timestamp's snapshot and, once
/// the job has run, its outcome. It exists only from the violation to the
/// install — the violating event puts it on the record when it posts the
/// job, the job fills `outcome`, and the install event moves it out.
struct JobSlot {
  GroupSession::Snapshot snap;
  GroupSession::RecomputeOutcome outcome;
};

/// One session plus its scheduling state.
///
/// With the session store (engine/session_store.h) the record outlives its
/// GroupSession: `session` is null once the session finalized and was
/// compacted to `final_result`, or while a live session's state is spilled
/// (`spilled`; the serialized snapshot lives in the store's external list
/// and `cached_next_t` keeps the scheduler able to re-arm it). The id,
/// trajectory group and tuning stay on the record so the store can rebuild
/// the state machine on rehydration; compaction releases the group, so a
/// finished record points into no caller-owned memory. Only the store's
/// budget decides
/// whether a record is resident: reads stream through
/// SessionStore::WithResult and never rehydrate or hold a record in.
struct SessionRecord {
  SessionRecord(uint32_t session_id, std::vector<const Trajectory*> g,
                const SessionTuning& t, std::unique_ptr<GroupSession> s)
      : session(std::move(s)), id(session_id), group(std::move(g)),
        tuning(t) {}

  std::unique_ptr<GroupSession> session;

  const uint32_t id;                        ///< dense global session id
  /// The caller's trajectories, for rehydration; emptied when the session
  /// is compacted to its final result (guarded by mu).
  std::vector<const Trajectory*> group;
  const SessionTuning tuning;               ///< admission-time tuning

  /// Guards the flags below (never held while a session phase runs).
  std::mutex mu;
  bool event_queued = false;   ///< a session event sits in the ready queue
  bool event_running = false;  ///< a session event is executing
  bool job_running = false;    ///< an async recomputation is in flight
  bool result_ready = false;   ///< `job->outcome` holds its finished result
  bool finalized = false;      ///< Finish() ran; stats folded
  /// Set while job_running or result_ready, null otherwise. The job reads
  /// `job->snap` and writes `job->outcome` without `mu`: nothing else
  /// touches the slot until the job publishes result_ready under `mu`.
  std::unique_ptr<JobSlot> job;

  // --- session-store state (guarded by mu like the flags) ---------------
  /// Distilled result of a finalized session (session itself destroyed).
  std::unique_ptr<SessionFinalResult> final_result;
  bool spilled = false;         ///< state lives in the store's spill file
  /// The record sits in the store's spill-candidate index (guarded by the
  /// *store* mutex, not `mu` — it is bookkeeping for the store).
  bool store_indexed = false;
  /// next_timestamp() at spill time — lets the scheduler arm a spilled
  /// session's next event without rehydrating it first.
  size_t cached_next_t = 0;
  /// Retirement requested while spilled; applied on rehydration.
  size_t pending_retire_at = std::numeric_limits<size_t>::max();
  size_t spill_offset = 0;      ///< extent in the store's spill file
  size_t spill_length = 0;      ///< encoded snapshot bytes
  size_t spill_capacity = 0;    ///< size-class capacity of the extent
  size_t accounted_bytes = 0;   ///< resident estimate charged to the budget
};

/// Concurrent map id -> SessionRecord, callable from any thread.
class SessionTable {
 public:
  SessionTable() = default;
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// The next dense id; the caller builds its record's session with it.
  /// Sequentially consistent, like size(): Scheduler::Start relies on it
  /// (see there).
  uint32_t ReserveId() {
    return next_id_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Registers the record under its session's id (from ReserveId).
  SessionRecord* Insert(std::unique_ptr<SessionRecord> record);

  /// Looks up a session record; nullptr when the id was never admitted.
  SessionRecord* Find(uint32_t id) const;

  /// Sessions admitted so far.
  size_t size() const { return next_id_.load(std::memory_order_seq_cst); }

  /// Visits every admitted record in ascending id order. Not synchronized
  /// with concurrent admissions — call after the engine drained.
  template <typename Fn>
  void ForEachOrdered(Fn&& fn) const {
    const size_t n = size();
    for (uint32_t id = 0; id < n; ++id) {
      SessionRecord* r = Find(id);
      if (r != nullptr) fn(r);
    }
  }

 private:
  mutable std::mutex mu_;
  /// Record for id sits at index id (null while reserved, not inserted).
  std::vector<std::unique_ptr<SessionRecord>> records_;
  std::atomic<uint32_t> next_id_{0};
};

}  // namespace mpn
