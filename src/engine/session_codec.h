// Versioned wire serialization for per-session engine state.
//
// Two producers share this codec:
//
//   - The session store (engine/session_store.h) spills cold sessions: a
//     live GroupSession::State or a compacted SessionFinalResult is encoded
//     behind a one-byte version + one-byte kind header, and decoding is a
//     bit-exact inverse — which is what makes spilling digest-neutral.
//   - The cluster drain protocol (engine/cluster.cc) ships SimMetrics per
//     session; WriteMetrics/ReadMetrics moved here so both layers keep one
//     field order. That order predates this header and must stay stable
//     (same forked binary on both ends, but the baseline digests fold the
//     replayed values).
//
// Doubles travel as IEEE-754 bit patterns (WireBuffer::PutDouble), tile
// regions through the canonical mpn/compress bitmap encoding — Encode is
// idempotent on decoded regions, so a spill round trip reproduces the
// client's region representation exactly. All readers are bounds-checked
// and throw FrameError ("mpn ipc: ...") on truncated or malformed input.
#pragma once

#include <cstdint>

#include "engine/group_session.h"
#include "engine/ipc.h"

namespace mpn {

/// Bump when the snapshot layout changes; decoders reject other versions.
inline constexpr uint8_t kSessionSnapshotVersion = 2;

/// What a session snapshot holds (second header byte).
enum class SnapshotKind : uint8_t { kLive = 0, kFinal = 1 };

/// Serializes every SimMetrics field the digest and the result accessors
/// consume. The double (server_seconds) travels as its bit pattern, so the
/// round-trip is byte-exact.
void WriteMetrics(WireBuffer* out, const SimMetrics& m);
SimMetrics ReadMetrics(WireReader* r);

/// SafeRegion codec: circles as three raw doubles, tile regions through
/// the canonical mpn/compress bitmap encoding (per-level bounding window +
/// row-major bitset). Bit-exact round trip; ReadSafeRegion validates the
/// window dimensions against the shipped bitset and throws FrameError on
/// mismatch.
void WriteSafeRegion(WireBuffer* out, const SafeRegion& region);
SafeRegion ReadSafeRegion(WireReader* r);

/// Whole-session snapshots, version + kind header included.
void EncodeLiveSession(const GroupSession::State& state, WireBuffer* out);
void EncodeFinalSession(const SessionFinalResult& result, WireBuffer* out);

/// Reads and validates the two-byte header; the caller dispatches on the
/// returned kind. Throws FrameError on an unsupported version or kind.
SnapshotKind ReadSnapshotHeader(WireReader* r);

/// Payload decoders (call after ReadSnapshotHeader).
GroupSession::State DecodeLiveSession(WireReader* r);
SessionFinalResult DecodeFinalSession(WireReader* r);

}  // namespace mpn
