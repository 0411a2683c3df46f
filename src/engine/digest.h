// Deterministic result digest shared by the single-process Engine and the
// multi-process ClusterEngine.
//
// The digest is an FNV-1a hash over every deterministic per-session result
// field (protocol counters, algorithm counters, final meeting point) in
// session-id order. Wall-clock fields (server_seconds, mailbox high-water
// marks, stall counts) and index-structure-dependent fields (R-tree node
// accesses) are excluded. Both engines feed the *same* word
// stream through AddSessionResultToDigest — the cluster coordinator ships
// the per-session fields over IPC and replays them in global session-id
// order — which is what makes the cluster digest bit-identical to a
// single-process run over the same groups, for any shard count.
#pragma once

#include <cstdint>

#include "net/message.h"
#include "sim/simulator.h"

namespace mpn {

/// FNV-1a over a stream of 64-bit words.
struct Fnv1a {
  uint64_t hash = 1469598103934665603ULL;
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
};

/// Folds one session's deterministic result fields into the digest. `po`
/// is the POI id of the session's final meeting point, meaningful only
/// when `has_result` (sessions retired before their first update have
/// none).
inline void AddSessionResultToDigest(Fnv1a* fnv, const SimMetrics& m,
                                     bool has_result, uint32_t po) {
  fnv->Add(m.timestamps);
  fnv->Add(m.updates);
  fnv->Add(m.result_changes);
  fnv->Add(has_result ? 1 + static_cast<uint64_t>(po) : 0);
  for (size_t t = 0; t < kMessageTypeCount; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    fnv->Add(m.comm.messages(type));
    fnv->Add(m.comm.packets(type));
    fnv->Add(m.comm.values(type));
  }
  fnv->Add(m.msr.tiles_tried);
  fnv->Add(m.msr.tiles_added);
  fnv->Add(m.msr.divide_calls);
  fnv->Add(m.msr.verify.calls);
  fnv->Add(m.msr.verify.accepted);
  fnv->Add(m.msr.verify.tile_groups);
  fnv->Add(m.msr.verify.focal_evals);
  fnv->Add(m.msr.verify.memo_hits);
  fnv->Add(m.msr.candidates.retrievals);
  fnv->Add(m.msr.candidates.candidates_total);
  fnv->Add(m.msr.candidates.rejected_by_buffer);
  // rtree_node_accesses is deliberately NOT digested: it measures the
  // index's shape (fanout, build order) rather than a result, so a
  // re-packed index keeps every digest. It still travels over IPC and
  // shows up in metrics tables.
}

}  // namespace mpn
