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
#include <cstring>
#include <limits>
#include <string>

#include "util/decimal.h"

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

/// Parses a byte-count spec with an optional k/m/g suffix ("64k", "256M",
/// "1g", "12345"). Returns 0 for null/empty/garbage — i.e. "no budget".
/// Garbage is anything but digits and one optional suffix (so no
/// whitespace or sign), and any value whose byte count exceeds SIZE_MAX.
/// Used for the MPN_MEMORY_BUDGET environment override.
inline size_t ParseMemoryBudgetBytes(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 0;
  const char* end = spec + std::strlen(spec);
  const char suffix = end[-1];
  uint64_t mult = 1;
  if (suffix == 'k' || suffix == 'K') mult = uint64_t{1} << 10;
  if (suffix == 'm' || suffix == 'M') mult = uint64_t{1} << 20;
  if (suffix == 'g' || suffix == 'G') mult = uint64_t{1} << 30;
  if (mult != 1) --end;
  uint64_t v = 0;
  if (!ParseDecimal(spec, end, &v)) return 0;
  if (v > std::numeric_limits<size_t>::max() / mult) return 0;
  return static_cast<size_t>(v * mult);
}

}  // namespace mpn
