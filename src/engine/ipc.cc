#include "engine/ipc.h"

#include <csignal>
#include <cstring>

#include "util/macros.h"

namespace mpn {

namespace {

/// Frames above this are a protocol bug or a corrupted length prefix, not
/// a legitimate payload (the largest real frame — a drained worker's
/// result snapshot — is a few MB at most).
constexpr uint32_t kMaxFrameBytes = 256u * 1024u * 1024u;

void PutLe32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xFF;
}

uint32_t GetLe32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void WireBuffer::PatchU64(size_t offset, uint64_t v) {
  MPN_ASSERT(offset + 8 <= data_.size());
  for (int i = 0; i < 8; ++i) data_[offset + i] = (v >> (8 * i)) & 0xFF;
}

void WireBuffer::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  data_.insert(data_.end(), s.begin(), s.end());
}

void WireReader::ThrowTruncated() {
  throw FrameError("truncated frame payload");
}

std::string WireReader::GetString() {
  const uint32_t n = GetU32();
  Need(n);
  std::string s(reinterpret_cast<const char*>(data_ + off_), n);
  off_ += n;
  return s;
}

namespace {

/// Slice-by-8 tables for the reflected IEEE 802.3 polynomial: t[0] is the
/// classic byte-at-a-time table, and t[k][b] is t[k-1][b] advanced by one
/// more zero byte, so eight lookups fold eight input bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

/// Little-endian word load. The checksum, like the wire format, must not
/// depend on the host's byte order; memcpy keeps the load free of
/// alignment and aliasing assumptions.
uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  // Function-local static init is thread-safe.
  static const Crc32Tables tables;
  const auto& t = tables.t;
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool FaultPlan::IsFatal(FaultKind kind) {
  return kind == FaultKind::kCorrupt || kind == FaultKind::kTruncate ||
         kind == FaultKind::kStall || kind == FaultKind::kReset ||
         kind == FaultKind::kCrash;
}

std::vector<FaultPlan::Event> FaultPlan::TakeIncarnation(size_t shard) {
  std::vector<Event> batch;
  for (size_t i = 0; i < events.size();) {
    if (events[i].shard != shard) {
      ++i;
      continue;
    }
    batch.push_back(events[i]);
    events.erase(events.begin() + static_cast<ptrdiff_t>(i));
    if (IsFatal(batch.back().kind)) break;
  }
  return batch;
}

void IpcChannel::MakePair(IpcChannel* a, IpcChannel* b) {
  Transport ta, tb;
  Transport::MakePair(&ta, &tb);
  *a = IpcChannel(std::move(ta));
  *b = IpcChannel(std::move(tb));
}

IoStatus IpcChannel::SendFrame(const WireBuffer& frame, double deadline_ms) {
  if (!transport_.valid()) return IoStatus::kClosed;
  if (frame.size() > kMaxFrameBytes) {
    // Mirror the receive-side limit at the sender: an oversized frame is
    // a protocol bug and must fail here, not desync the peer's stream.
    throw FrameError("frame length exceeds limit");
  }

  FaultKind fault = FaultKind::kShortIo;
  bool corrupt = false;
  bool truncate = false;
  if (transport_.BeginFrameOp(&fault)) {
    switch (fault) {
      case FaultKind::kStall:
        // "Hung, not dead": SIGSTOP freezes every thread of this process
        // until the coordinator's heartbeat machinery SIGKILLs it (or a
        // SIGCONT resumes it, after which the send proceeds normally).
        ::raise(SIGSTOP);
        break;
      case FaultKind::kReset:
        transport_.Close();
        return IoStatus::kClosed;
      case FaultKind::kCorrupt:
        corrupt = true;
        break;
      case FaultKind::kTruncate:
        truncate = true;
        break;
      default:
        break;  // kShortIo / kEintrStorm shape the byte loops internally.
    }
  }

  const uint32_t len = static_cast<uint32_t>(frame.size());
  uint32_t crc = Crc32(frame.data().data(), frame.size());
  // A corrupt fault on an empty payload damages the checksum field
  // instead, so the fault is never a silent no-op.
  if (corrupt && len == 0) crc ^= 0xFFu;
  uint8_t header[kHeaderBytes];
  PutLe32(header + 0, kFrameMagic);
  PutLe32(header + 4, kFrameVersion);
  PutLe32(header + 8, len);
  PutLe32(header + 12, crc);

  if (truncate) {
    // Tear the frame: deliver a valid-looking prefix, then hang up, so
    // the receiver observes EOF mid-frame. An empty payload tears inside
    // the header instead.
    const size_t header_part = len > 0 ? kHeaderBytes : kHeaderBytes / 2;
    (void)transport_.SendBytes(header, header_part, deadline_ms);
    if (len > 0) {
      (void)transport_.SendBytes(frame.data().data(), len / 2, deadline_ms);
    }
    transport_.ShutdownBoth();
    return IoStatus::kClosed;
  }

  IoStatus st = transport_.SendBytes(header, kHeaderBytes, deadline_ms);
  if (st != IoStatus::kOk) return st;
  if (len == 0) return IoStatus::kOk;
  if (corrupt) {
    // Flip one payload byte *after* the CRC was computed — the receiver
    // must detect the mismatch and raise FrameError.
    std::vector<uint8_t> dirty(frame.data());
    dirty[0] ^= 0x01u;
    return transport_.SendBytes(dirty.data(), len, deadline_ms);
  }
  return transport_.SendBytes(frame.data().data(), len, deadline_ms);
}

IoStatus IpcChannel::RecvFrame(std::vector<uint8_t>* payload,
                               double first_byte_deadline_ms) {
  if (!transport_.valid()) return IoStatus::kClosed;

  FaultKind fault = FaultKind::kShortIo;
  bool corrupt = false;
  if (transport_.BeginFrameOp(&fault)) {
    switch (fault) {
      case FaultKind::kStall:
        ::raise(SIGSTOP);
        break;
      case FaultKind::kReset:
        transport_.Close();
        return IoStatus::kClosed;
      case FaultKind::kTruncate:
        // Receive-side truncation degrades to losing the stream: we hang
        // up before the frame, so the peer's next op fails instead.
        transport_.ShutdownBoth();
        return IoStatus::kClosed;
      case FaultKind::kCorrupt:
        corrupt = true;
        break;
      default:
        break;
    }
  }

  // The first byte is bounded by the caller's deadline (frame-start
  // slice); a kDeadline here consumed nothing and the stream stays
  // aligned, so the caller may probe liveness and retry. Once a frame
  // has begun, the per-op io deadline applies — a peer that stops
  // mid-frame is broken, not merely idle.
  uint8_t header[kHeaderBytes];
  size_t got = 0;
  IoStatus st =
      transport_.RecvBytes(header, 1, first_byte_deadline_ms, &got);
  if (st != IoStatus::kOk) return st;
  st = transport_.RecvBytes(header + 1, kHeaderBytes - 1, io_deadline_ms_,
                            &got);
  if (st != IoStatus::kOk) {
    throw FrameError(st == IoStatus::kDeadline
                         ? "peer wedged mid-frame (header)"
                         : "peer closed mid-frame (header)");
  }

  const uint32_t magic = GetLe32(header + 0);
  const uint32_t version = GetLe32(header + 4);
  const uint32_t len = GetLe32(header + 8);
  const uint32_t crc = GetLe32(header + 12);
  if (magic != kFrameMagic) throw FrameError("bad frame magic");
  if (version != kFrameVersion) {
    throw FrameError("protocol version mismatch");
  }
  if (len > kMaxFrameBytes) throw FrameError("frame length exceeds limit");

  payload->resize(len);
  if (len > 0) {
    st = transport_.RecvBytes(payload->data(), len, io_deadline_ms_, &got);
    if (st != IoStatus::kOk) {
      throw FrameError(st == IoStatus::kDeadline
                           ? "peer wedged mid-frame (payload)"
                           : "peer closed mid-frame (payload)");
    }
  }

  // A receive-side corrupt fault simulates wire damage after the bytes
  // arrived; either way the CRC must catch it.
  uint32_t expect = crc;
  if (corrupt) {
    if (len > 0) {
      (*payload)[0] ^= 0x01u;
    } else {
      expect ^= 0xFFu;
    }
  }
  if (Crc32(payload->data(), payload->size()) != expect) {
    throw FrameError("frame CRC mismatch");
  }
  return IoStatus::kOk;
}

bool IpcChannel::Send(const WireBuffer& frame) {
  return SendFrame(frame, io_deadline_ms_) == IoStatus::kOk;
}

bool IpcChannel::Recv(std::vector<uint8_t>* payload) {
  return RecvFrame(payload, 0) == IoStatus::kOk;
}

}  // namespace mpn
