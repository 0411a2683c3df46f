// Session table of the event-driven engine.
//
// The table owns every admitted session's SessionRecord, the record locks
// and the admitted groups' trajectory pointers. One table mutex guards the
// id → record index and the pointer arena: an AdmitSession call takes it
// once, to insert its record. The scheduler never takes it — every posted
// event and job carries its SessionRecord* — so the lock serves only
// admissions, RetireSession and result reads. Ids come from a single
// atomic counter, so they are dense and globally ordered — the digest and
// the metrics iteration read sessions in admission order regardless of
// which thread admitted them.
//
// A SessionRecord bundles the GroupSession with the scheduler's per-session
// flags. It is fixed-size and owns no heap block and no mutex of its own,
// because every admitted session keeps one for the whole run, resident,
// spilled or final:
//   - records are built in place in table-owned blocks of kBlockRecords,
//     so they never move and cost no allocation each;
//   - a record's lock is one of kLockStripes cache-line-padded mutexes,
//     picked by id (MutexOf). The lock serializes only the *scheduling
//     decisions* (who runs the next event); the session phases themselves
//     execute outside it. Records on one stripe share it, so no thread may
//     hold two record locks at once;
//   - the group's trajectory pointers are copied into an append-only arena
//     of kArenaChunk-pointer chunks; the record keeps where they start and
//     how many there are.
// Records are never erased — a retired session keeps its metrics and final
// meeting point for the digest.
#pragma once

#include <atomic>
#include <bitset>
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

/// One session plus its scheduling state; every field but `id`, `tuning`
/// and `store_indexed` is guarded by the record's lock,
/// SessionTable::MutexOf.
///
/// With the session store (engine/session_store.h) the record outlives its
/// GroupSession: `session` is null once the session finalized and was
/// compacted to `final_result`, or while a live session's state is spilled
/// (`spilled`; the serialized snapshot lives in the store's external list
/// and `cached_next_t` keeps the scheduler able to re-arm it). The id,
/// trajectory group and tuning stay on the record so the store can rebuild
/// the state machine on rehydration; compaction clears the group, so a
/// finished record points into no caller-owned memory. Only the store's
/// budget decides whether a record is resident: reads stream through
/// SessionStore::WithResult and never rehydrate or hold a record in.
struct SessionRecord {
  SessionRecord(uint32_t session_id, const Trajectory* const* g,
                uint32_t g_size, const SessionTuning& t,
                std::unique_ptr<GroupSession> s)
      : session(std::move(s)),
        group(g),
        tuning(t),
        id(session_id),
        group_size(g_size) {}

  std::unique_ptr<GroupSession> session;
  /// Set while job_running or result_ready, null otherwise. The job reads
  /// `job->snap` and writes `job->outcome` without the record lock:
  /// nothing else touches the slot until the job publishes result_ready
  /// under it.
  std::unique_ptr<JobSlot> job;
  /// Distilled result of a finalized session (session itself destroyed).
  std::unique_ptr<SessionFinalResult> final_result;
  /// The caller's trajectories, for rehydration: `group_size` entries of
  /// the table's pointer arena. Both are cleared when the session is
  /// compacted to its final result.
  const Trajectory* const* group;
  const SessionTuning tuning;  ///< admission-time tuning
  /// next_timestamp() at spill time — lets the scheduler arm a spilled
  /// session's next event without rehydrating it first.
  size_t cached_next_t = 0;
  /// Retirement requested while spilled; applied on rehydration.
  size_t pending_retire_at = std::numeric_limits<size_t>::max();
  size_t spill_offset = 0;      ///< extent in the store's spill file
  uint32_t spill_length = 0;    ///< encoded snapshot bytes
  /// Resident estimate charged to the budget (saturated at UINT32_MAX).
  uint32_t accounted_bytes = 0;
  const uint32_t id;            ///< dense global session id
  uint32_t group_size;          ///< members in `group`

  bool event_queued = false;   ///< a session event sits in the ready queue
  bool event_running = false;  ///< a session event is executing
  bool job_running = false;    ///< an async recomputation is in flight
  bool result_ready = false;   ///< `job->outcome` holds its finished result
  bool finalized = false;      ///< Finish() ran; stats folded
  bool spilled = false;        ///< state lives in the store's spill file
  /// The record sits in the store's spill-candidate index (guarded by the
  /// *store* mutex, not the record lock — it is bookkeeping for the
  /// store).
  bool store_indexed = false;
};

/// Concurrent map id -> SessionRecord, callable from any thread.
class SessionTable {
 public:
  // Every engine pays for the stripes, its first block and its first
  // arena chunk up front, a ten-session one too, so all three stay small:
  // 4 KiB of stripes, 6.5 KiB per block and 2 KiB per chunk.
  /// Records per table-owned block.
  static constexpr size_t kBlockRecords = 64;
  /// Record lock stripes (a power of two).
  static constexpr size_t kLockStripes = 64;
  /// Trajectory pointers per arena chunk (a larger group gets a chunk of
  /// its own size).
  static constexpr size_t kArenaChunk = 256;

  SessionTable() = default;
  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// The next dense id; the caller builds its record's session with it.
  /// Sequentially consistent, like size(): Scheduler::Start relies on it
  /// (see there).
  uint32_t ReserveId() {
    return next_id_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Builds the record of `session` (its id from ReserveId) in place,
  /// copying the group's pointers into the arena, and registers it.
  /// `group` holds at most UINT32_MAX members (ValidateAdmission).
  SessionRecord* Insert(std::unique_ptr<GroupSession> session,
                        const std::vector<const Trajectory*>& group,
                        const SessionTuning& tuning);

  /// Looks up a session record; nullptr when the id was never admitted or
  /// is reserved but not inserted yet.
  SessionRecord* Find(uint32_t id) const;

  /// The lock guarding `r`'s scheduling flags and store state — the one
  /// way to lock a record. It is shared with every record whose id falls
  /// on the same stripe: hold at most one record lock at a time, and call
  /// no code that may lock another record while holding it.
  std::mutex& MutexOf(const SessionRecord* r) const {
    return stripes_[r->id & (kLockStripes - 1)].mu;
  }

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
  static_assert((kLockStripes & (kLockStripes - 1)) == 0,
                "kLockStripes must be a power of two");

  struct alignas(64) Stripe {
    std::mutex mu;
  };

  /// kBlockRecords record slots; slot i holds id (block index *
  /// kBlockRecords + i) once `inserted[i]` is set.
  struct Block {
    /// A slot is raw storage until Insert builds the record in it.
    union Slot {
      Slot() {}
      ~Slot() {}
      SessionRecord record;
    };
    Block() {}  // leaves the slots unconstructed (and untouched)
    ~Block();
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    std::bitset<kBlockRecords> inserted;
    Slot slots[kBlockRecords];
  };

  /// Copies `group` into the arena and returns where it starts (mu_ held).
  const Trajectory* const* AppendGroupLocked(
      const std::vector<const Trajectory*>& group);

  mutable std::mutex mu_;
  /// Block b holds the records of ids [b, b + 1) * kBlockRecords.
  std::vector<std::unique_ptr<Block>> blocks_;
  /// Pointer arena: the chunks, and the fill of the last one.
  std::vector<std::unique_ptr<const Trajectory*[]>> arena_;
  size_t arena_used_ = 0;
  size_t arena_capacity_ = 0;
  std::atomic<uint32_t> next_id_{0};
  mutable Stripe stripes_[kLockStripes];
};

}  // namespace mpn
