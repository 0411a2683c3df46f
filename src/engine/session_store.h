// Memory-budgeted out-of-core session store.
//
// The engine's session table holds every admitted session for the whole
// run (records are never erased — digests and round stats replay them at
// the end), which caps the session count a run can hold at whatever fits
// in RAM. The store breaks that coupling:
//
//   - Every *finalized* session is unconditionally compacted: the full
//     GroupSession state machine (clients, regions, advance trace) is
//     distilled into a small SessionFinalResult and destroyed. This runs
//     budget or no budget — a drained engine's footprint is per-session
//     results, not per-session simulators.
//   - Under a byte budget (EngineOptions::budget.bytes_cap > 0) the store
//     additionally *spills*: when the resident estimate exceeds the cap,
//     cold sessions — live-but-idle state machines and compacted final
//     results — are serialized through engine/session_codec.h into a
//     bounded spill file (anonymous: mkstemp + immediate unlink) and
//     their in-memory state destroyed. Only the record stays resident:
//     fixed-size, in a table-owned block, with no heap block or mutex of
//     its own (engine/session_table.h), so the in-memory index over
//     spilled sessions is O(1) per session and small.
//   - Rehydration is transparent: the scheduler calls
//     EnsureResidentLocked() before running a spilled session's event,
//     the store decodes the snapshot and rebuilds the GroupSession via
//     the engine-provided factory. Snapshot encode/decode is a bit-exact
//     identity at event boundaries, so digests are identical to an
//     unbudgeted run for any cap.
//
// Victim selection: live candidates are kept in an index ordered by
// session id — the scheduler's id-major order — so the evicted session is
// the one the depth-first scheduler will reach *last*; compacted finals are
// spilled first (FIFO) since nothing reads them before the drain. A record
// enters the index when it becomes a resident live candidate and leaves it
// when it is spilled or compacted; its events do not touch it.
//
// Locking: a record's lock is its table stripe (SessionTable::MutexOf),
// which the store reaches through the table it is constructed with. The
// store mutex is a strict leaf — it is acquired with a record lock (and
// the scheduler's stats mutex) held, and no record lock is ever acquired
// under it. Rebalance() pops a victim candidate under the store mutex,
// *releases it*, locks the victim's record, and re-checks eligibility
// before spilling (the candidate may have been re-armed in between; it
// re-registers itself on its next event). No thread holds two record
// locks: two records may share a stripe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/memory_budget.h"
#include "engine/session_table.h"

namespace mpn {

/// Rebuilds a GroupSession for rehydration (same id, trajectories and
/// tuning as admission; the engine binds pois/tree/options/timer).
using SessionFactory = std::function<std::unique_ptr<GroupSession>(
    uint32_t id, const std::vector<const Trajectory*>& group,
    const SessionTuning& tuning)>;

class SessionStore {
 public:
  /// `table` owns the records and their locks; it must outlive the store.
  SessionStore(const MemoryBudget& budget, SessionFactory factory,
               const SessionTable* table);
  ~SessionStore();

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  /// True when a byte cap is configured (spilling active). Finalized
  /// compaction runs regardless.
  bool enabled() const { return budget_.bytes_cap > 0; }

  /// Charges a resident live record's current estimate and enters it in
  /// the spill-candidate index if it is not there yet: on admission, and
  /// after each of its events (state grew). No-op for finalized or spilled
  /// records — compaction and spilling did their accounting. Caller holds
  /// the record lock in the same critical section that posted the record's
  /// next event, so that event cannot run while the session is read. The
  /// caller follows up with Rebalance() once outside all locks.
  void AccountLocked(SessionRecord* r);

  /// Destroys a finalized record's GroupSession, keeping only its
  /// SessionFinalResult, and clears its trajectory group. Caller holds the
  /// record lock (the scheduler's finalize path); the store mutex is
  /// acquired inside.
  void CompactFinalizedLocked(SessionRecord* r);

  /// Rehydrates a spilled record before its next event runs (no-op when
  /// resident). Caller holds the record lock.
  void EnsureResidentLocked(SessionRecord* r);

  /// Streams the record's result fields to `fn` — the one way a session's
  /// result is read. The result is copied (or its snapshot read) under the
  /// record lock and `fn` runs after it is released, so `fn` may read any
  /// session, one on the same stripe included. A spilled record is never
  /// rehydrated: the snapshot is decoded into a stack-local that dies with
  /// the call, so reading every session keeps residency and the spill
  /// counters where they were. For a spilled *live* session the
  /// advance_seconds trace carries only the processed prefix.
  void WithResult(SessionRecord* r,
                  const std::function<void(const SessionFinalResult&)>& fn);

  /// Spills cold sessions until the resident estimate fits the cap.
  /// Call with no record lock held. Throws std::runtime_error when the
  /// spill file cannot be created or written, or when a snapshot is longer
  /// than UINT32_MAX bytes; the victim then stays resident and intact.
  void Rebalance();

  MemoryStats stats() const;

 private:
  static size_t FinalBytesEstimate(const SessionFinalResult& fr);

  /// Updates the record's charged bytes to `bytes`, saturated at
  /// UINT32_MAX (store mutex held).
  void SetAccountedLocked(SessionRecord* r, size_t bytes);
  /// Enter / leave active_ (store mutex held); each is a no-op when the
  /// record is already in / out.
  void InsertActiveLocked(SessionRecord* r);
  void EraseActiveLocked(SessionRecord* r);

  /// Spills `r` if it is still eligible (record lock held; it was popped
  /// from the candidate structures already). Ineligible records are left
  /// resident — they re-register via AccountLocked after their next event.
  void SpillIfEligibleLocked(SessionRecord* r);

  /// Spill-file extent management (store mutex held for alloc/free; the
  /// positioned reads/writes themselves need no lock — extents are
  /// exclusively owned). An extent's capacity is the size class of the
  /// snapshot length it was allocated for (ExtentCapacity), so a record
  /// keeps only the length.
  static size_t ExtentCapacity(size_t length);
  void EnsureFileLocked();
  size_t AllocExtentLocked(size_t length);
  void FreeExtentLocked(size_t offset, size_t length);
  void WriteExtent(size_t offset, const std::vector<uint8_t>& bytes);
  std::vector<uint8_t> ReadExtent(size_t offset, size_t length) const;

  const MemoryBudget budget_;
  const SessionFactory factory_;
  const SessionTable* const table_;

  mutable std::mutex mu_;
  int fd_ = -1;                ///< unlinked spill file (lazy)
  size_t file_end_ = 0;        ///< allocation watermark
  /// Power-of-two size classes (>= 256 B) -> free extent offsets.
  std::map<size_t, std::vector<size_t>> free_lists_;
  /// Resident live sessions by id; victim = largest id.
  std::map<uint32_t, SessionRecord*> active_;
  /// Resident compacted finals, spill-first in FIFO order.
  std::deque<SessionRecord*> finals_;
  MemoryStats stats_;
};

}  // namespace mpn
