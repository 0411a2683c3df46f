// Memory budget for the engine's out-of-core session store.
//
// A budget caps the bytes of *evictable* per-session state the engine keeps
// resident: live GroupSession state machines and compacted final results.
// When the deterministic byte estimate crosses the cap, the session store
// (engine/session_store.h) serializes cold sessions through the versioned
// snapshot codec (engine/session_codec.h) and spills them to a bounded
// external list, rehydrating transparently when the scheduler re-arms them.
// Fixed per-record overhead (SessionRecord, trajectory pointers) is not
// charged — the cap governs what spilling can actually evict.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpn {

/// Byte cap for resident per-session state. 0 disables spilling entirely
/// (finalized-session compaction stays on — it only frees memory).
struct MemoryBudget {
  size_t bytes_cap = 0;
  /// Directory for the spill file (empty = $TMPDIR, falling back to /tmp).
  /// The file is created with mkstemp and unlinked immediately, so nothing
  /// survives the process.
  std::string spill_dir;
};

/// Spill/rehydrate accounting. The byte figures are the store's
/// deterministic estimates, so at threads=1 every field is a pure function
/// of the admitted workload and the cap (and exact-matchable in baselines).
struct MemoryStats {
  uint64_t spilled_sessions = 0;     ///< spill events (cumulative)
  uint64_t rehydrated_sessions = 0;  ///< rehydrate events (cumulative)
  uint64_t spilled_bytes = 0;        ///< encoded bytes written (cumulative)
  uint64_t resident_bytes = 0;       ///< current resident estimate
  uint64_t peak_resident_bytes = 0;  ///< high-water resident estimate
};

}  // namespace mpn
