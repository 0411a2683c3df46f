#include "engine/session_codec.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "mpn/compress.h"

namespace mpn {

namespace {

// Sizes of the records below, for reserving a snapshot's buffer.
constexpr size_t kMsrStatsBytes = 12 * 8;
constexpr size_t kMetricsBytes =
    3 * 8 + kMessageTypeCount * 3 * 8 + 8 + kMsrStatsBytes;
// A client without headings or region: location, two flags, heading and
// the headings count.
constexpr size_t kClientBytes = 16 + 1 + 8 + 4 + 1;
// A circle region with its kind byte (tile bitmaps are larger and grow
// the buffer).
constexpr size_t kCircleRegionBytes = 1 + 24;
// One timestamp of the advance trace: a double.
constexpr size_t kTraceEntryBytes = 8;

void WriteMsrStats(WireBuffer* out, const MsrStats& s) {
  out->PutU64(s.tiles_tried);
  out->PutU64(s.tiles_added);
  out->PutU64(s.divide_calls);
  out->PutU64(s.verify.calls);
  out->PutU64(s.verify.accepted);
  out->PutU64(s.verify.tile_groups);
  out->PutU64(s.verify.focal_evals);
  out->PutU64(s.verify.memo_hits);
  out->PutU64(s.candidates.retrievals);
  out->PutU64(s.candidates.candidates_total);
  out->PutU64(s.candidates.rejected_by_buffer);
  out->PutU64(s.rtree_node_accesses);
}

MsrStats ReadMsrStats(WireReader* r) {
  MsrStats s;
  s.tiles_tried = r->GetU64();
  s.tiles_added = r->GetU64();
  s.divide_calls = r->GetU64();
  s.verify.calls = r->GetU64();
  s.verify.accepted = r->GetU64();
  s.verify.tile_groups = r->GetU64();
  s.verify.focal_evals = r->GetU64();
  s.verify.memo_hits = r->GetU64();
  s.candidates.retrievals = r->GetU64();
  s.candidates.candidates_total = r->GetU64();
  s.candidates.rejected_by_buffer = r->GetU64();
  s.rtree_node_accesses = r->GetU64();
  return s;
}

}  // namespace

void WriteMetrics(WireBuffer* out, const SimMetrics& m) {
  out->PutU64(m.timestamps);
  out->PutU64(m.updates);
  out->PutU64(m.result_changes);
  for (size_t t = 0; t < kMessageTypeCount; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    out->PutU64(m.comm.messages(type));
    out->PutU64(m.comm.packets(type));
    out->PutU64(m.comm.values(type));
  }
  out->PutDouble(m.server_seconds);
  WriteMsrStats(out, m.msr);
}

SimMetrics ReadMetrics(WireReader* r) {
  SimMetrics m;
  m.timestamps = r->GetU64();
  m.updates = r->GetU64();
  m.result_changes = r->GetU64();
  for (size_t t = 0; t < kMessageTypeCount; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    const uint64_t messages = r->GetU64();
    const uint64_t packets = r->GetU64();
    const uint64_t values = r->GetU64();
    m.comm.AddRaw(type, messages, packets, values);
  }
  m.server_seconds = r->GetDouble();
  m.msr = ReadMsrStats(r);
  return m;
}

void WriteSafeRegion(WireBuffer* out, const SafeRegion& region) {
  if (region.is_circle()) {
    out->PutU8(0);
    out->PutDouble(region.circle().center.x);
    out->PutDouble(region.circle().center.y);
    out->PutDouble(region.circle().radius);
    return;
  }
  out->PutU8(1);
  const EncodedTileRegion enc = EncodeTileRegion(region.tiles());
  out->PutDouble(enc.origin.x);
  out->PutDouble(enc.origin.y);
  out->PutDouble(enc.delta);
  out->PutU32(static_cast<uint32_t>(enc.levels.size()));
  for (const EncodedLevel& level : enc.levels) {
    out->PutU32(static_cast<uint32_t>(level.level));
    out->PutU32(static_cast<uint32_t>(level.ix0));
    out->PutU32(static_cast<uint32_t>(level.iy0));
    out->PutU32(static_cast<uint32_t>(level.width));
    out->PutU32(static_cast<uint32_t>(level.height));
    out->PutU64(level.bits.size());
    for (uint64_t word : level.bits.words()) out->PutU64(word);
  }
}

SafeRegion ReadSafeRegion(WireReader* r) {
  const uint8_t kind = r->GetU8();
  if (kind == 0) {
    Circle c;
    c.center.x = r->GetDouble();
    c.center.y = r->GetDouble();
    c.radius = r->GetDouble();
    return SafeRegion::MakeCircle(c);
  }
  if (kind != 1) throw FrameError("unknown safe-region kind");
  EncodedTileRegion enc;
  enc.origin.x = r->GetDouble();
  enc.origin.y = r->GetDouble();
  enc.delta = r->GetDouble();
  const uint32_t n_levels = r->GetU32();
  for (uint32_t i = 0; i < n_levels; ++i) {
    EncodedLevel level;
    level.level = static_cast<int32_t>(r->GetU32());
    level.ix0 = static_cast<int32_t>(r->GetU32());
    level.iy0 = static_cast<int32_t>(r->GetU32());
    level.width = static_cast<int32_t>(r->GetU32());
    level.height = static_cast<int32_t>(r->GetU32());
    const uint64_t bits = r->GetU64();
    if (level.width <= 0 || level.height <= 0 ||
        static_cast<uint64_t>(level.width) *
                static_cast<uint64_t>(level.height) !=
            bits) {
      throw FrameError("tile-region level window does not match its bitset");
    }
    // Words arrive one at a time so a corrupt count cannot force a huge
    // up-front allocation — the bounds-checked reader throws at the real
    // end of the payload first.
    const uint64_t n_words = (bits + 63) / 64;
    std::vector<uint64_t> words;
    for (uint64_t w = 0; w < n_words; ++w) words.push_back(r->GetU64());
    level.bits =
        DynamicBitset::FromWords(words, static_cast<size_t>(bits));
    enc.levels.push_back(std::move(level));
  }
  return SafeRegion::MakeTiles(DecodeTileRegion(enc));
}

namespace {

void WriteClientState(WireBuffer* out, const MpnClient::State& c) {
  out->PutDouble(c.location.x);
  out->PutDouble(c.location.y);
  out->PutU8(c.moved ? 1 : 0);
  out->PutDouble(c.heading);
  out->PutU32(static_cast<uint32_t>(c.recent_headings.size()));
  for (double h : c.recent_headings) out->PutDouble(h);
  out->PutU8(c.has_region ? 1 : 0);
  if (c.has_region) WriteSafeRegion(out, c.region);
}

MpnClient::State ReadClientState(WireReader* r) {
  MpnClient::State c;
  c.location.x = r->GetDouble();
  c.location.y = r->GetDouble();
  c.moved = r->GetU8() != 0;
  c.heading = r->GetDouble();
  const uint32_t n = r->GetU32();
  // The client's ring holds at most kHeadingWindow headings; a longer
  // window is corrupt and must not reach MpnClient::ImportState.
  if (n > MpnClient::kHeadingWindow) {
    throw FrameError("client heading window exceeds kHeadingWindow");
  }
  c.recent_headings.reserve(n);
  for (uint32_t i = 0; i < n; ++i) c.recent_headings.push_back(r->GetDouble());
  c.has_region = r->GetU8() != 0;
  if (c.has_region) c.region = ReadSafeRegion(r);
  return c;
}

}  // namespace

void EncodeLiveSession(const GroupSession::State& state, WireBuffer* out) {
  // Header and fixed fields (39 B), metrics, server state, the clients
  // and trace counts, the trace, and each client with a circle region.
  size_t bytes = 39 + kMetricsBytes + 16 + kMsrStatsBytes + 4 + 4 +
                 kTraceEntryBytes * state.advance_at.size();
  for (const MpnClient::State& c : state.clients) {
    bytes += kClientBytes + kCircleRegionBytes + 8 * c.recent_headings.size();
  }
  out->Reserve(out->size() + bytes);
  out->PutU8(kSessionSnapshotVersion);
  out->PutU8(static_cast<uint8_t>(SnapshotKind::kLive));
  out->PutU64(state.next_t);
  out->PutU64(state.retire_at);
  out->PutU8(state.has_result ? 1 : 0);
  out->PutU32(state.current_po);
  out->PutU64(state.mailbox_peak);
  out->PutU64(state.stall_count);
  WriteMetrics(out, state.metrics);
  out->PutDouble(state.server.compute_seconds);
  out->PutU64(state.server.recompute_count);
  WriteMsrStats(out, state.server.stats);
  out->PutU32(static_cast<uint32_t>(state.clients.size()));
  for (const MpnClient::State& c : state.clients) WriteClientState(out, c);
  // The trace carries exactly the processed prefix (next_t entries).
  out->PutU32(static_cast<uint32_t>(state.advance_at.size()));
  for (double v : state.advance_at) out->PutDouble(v);
}

void EncodeFinalSession(const SessionFinalResult& result, WireBuffer* out) {
  // Header, metrics, fixed fields (25 B) and the advance times.
  out->Reserve(out->size() + 2 + kMetricsBytes + 25 +
               8 * result.advance_seconds.size());
  out->PutU8(kSessionSnapshotVersion);
  out->PutU8(static_cast<uint8_t>(SnapshotKind::kFinal));
  WriteMetrics(out, result.metrics);
  out->PutU8(result.has_result ? 1 : 0);
  out->PutU32(result.po);
  out->PutU64(result.mailbox_peak);
  out->PutU64(result.stall_count);
  out->PutU32(static_cast<uint32_t>(result.advance_seconds.size()));
  for (double v : result.advance_seconds) out->PutDouble(v);
}

SnapshotKind ReadSnapshotHeader(WireReader* r) {
  const uint8_t version = r->GetU8();
  if (version != kSessionSnapshotVersion) {
    throw FrameError("unsupported session snapshot version");
  }
  const uint8_t kind = r->GetU8();
  if (kind > static_cast<uint8_t>(SnapshotKind::kFinal)) {
    throw FrameError("unknown session snapshot kind");
  }
  return static_cast<SnapshotKind>(kind);
}

GroupSession::State DecodeLiveSession(WireReader* r) {
  GroupSession::State state;
  state.next_t = r->GetU64();
  state.retire_at = r->GetU64();
  state.has_result = r->GetU8() != 0;
  state.current_po = r->GetU32();
  state.mailbox_peak = r->GetU64();
  state.stall_count = r->GetU64();
  state.metrics = ReadMetrics(r);
  state.server.compute_seconds = r->GetDouble();
  state.server.recompute_count = r->GetU64();
  state.server.stats = ReadMsrStats(r);
  const uint32_t m = r->GetU32();
  state.clients.reserve(std::min<size_t>(m, r->remaining() / kClientBytes));
  for (uint32_t i = 0; i < m; ++i) state.clients.push_back(ReadClientState(r));
  const uint32_t n = r->GetU32();
  if (n != state.next_t) {
    throw FrameError("session trace length does not match next_t");
  }
  state.advance_at.reserve(
      std::min<size_t>(n, r->remaining() / kTraceEntryBytes));
  for (uint32_t i = 0; i < n; ++i) state.advance_at.push_back(r->GetDouble());
  return state;
}

SessionFinalResult DecodeFinalSession(WireReader* r) {
  SessionFinalResult result;
  result.metrics = ReadMetrics(r);
  result.has_result = r->GetU8() != 0;
  result.po = r->GetU32();
  result.mailbox_peak = r->GetU64();
  result.stall_count = r->GetU64();
  const uint32_t n = r->GetU32();
  result.advance_seconds.reserve(std::min<size_t>(n, r->remaining() / 8));
  for (uint32_t i = 0; i < n; ++i) {
    result.advance_seconds.push_back(r->GetDouble());
  }
  return result;
}

}  // namespace mpn
