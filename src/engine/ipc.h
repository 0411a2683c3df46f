// Checksummed binary framing over the cluster's byte transport
// (engine/transport.h) — the protocol of the multi-process cluster layer
// (engine/cluster.h).
//
// The cluster needs no network: the coordinator forks its workers, so an
// AF_UNIX socketpair per worker is enough, and the kernel gives us
// exactly the failure signal the
// robustness story needs — when a worker dies, its end closes and the
// coordinator's next receive returns EOF (and sends fail) instead of
// hanging. For workers that hang *without* dying, every frame operation
// takes a deadline (IoStatus::kDeadline) so the coordinator's liveness
// machinery can step in.
//
// Wire format: every frame is a 16-byte little-endian header
//
//   [magic u32 "MPN1"] [version u32] [payload length u32] [CRC32 u32]
//
// followed by the payload bytes. The CRC (IEEE 802.3, poly 0xEDB88320)
// covers the payload; a bad magic, unknown version, oversized length,
// CRC mismatch or torn frame throws the typed FrameError, which the
// cluster layer routes into its worker-restart path — a corrupt peer is
// a recoverable fault, never undefined decoding. Payloads are built with
// WireBuffer and decoded with WireReader: fixed little-endian integers,
// doubles as their IEEE-754 bit pattern — byte-exact round-trips, which
// the cluster's bit-identical digest aggregation depends on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/transport.h"

namespace mpn {

/// Serialization buffer for one frame payload. Put* append each value's
/// little-endian bytes with one insert.
class WireBuffer {
 public:
  void PutU8(uint8_t v) { data_.push_back(v); }
  void PutU32(uint32_t v) { PutLe(v); }
  void PutU64(uint64_t v) { PutLe(v); }
  /// IEEE-754 bit pattern via the u64 path: byte-exact round-trip.
  void PutDouble(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutString(const std::string& s);
  /// Overwrites the 8 bytes at `offset` with `v` (same little-endian
  /// layout as PutU64). For in-place patching of a recorded frame — the
  /// cluster's snapshot replay folds recorded retirements into the admit
  /// frame's tuning field so retirement never races the admission.
  void PatchU64(size_t offset, uint64_t v);

  /// Capacity for `n` bytes in total, so a payload of known size grows
  /// its vector once.
  void Reserve(size_t n) { data_.reserve(n); }

  const std::vector<uint8_t>& data() const { return data_; }
  size_t size() const { return data_.size(); }

 private:
  template <typename T>
  void PutLe(T v) {
    uint8_t bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    data_.insert(data_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<uint8_t> data_;
};

/// A frame failed integrity checks: bad magic, version mismatch, CRC
/// mismatch, oversized length, truncated payload or a peer that wedged
/// mid-frame. Derives std::runtime_error so pre-existing catch sites
/// still treat it as a fatal worker error; the cluster layer catches it
/// specifically to count the failure and restart the shard.
class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what)
      : std::runtime_error("mpn ipc: " + what) {}
};

/// Bounds-checked decoder over a received payload. Get* throw FrameError
/// past the end (malformed frame); each value is one bounds check.
class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  uint8_t GetU8() {
    Need(1);
    return data_[off_++];
  }
  uint32_t GetU32() { return GetLe<uint32_t>(); }
  uint64_t GetU64() { return GetLe<uint64_t>(); }
  double GetDouble() {
    const uint64_t bits = GetU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string GetString();

  bool AtEnd() const { return off_ == size_; }
  /// Bytes left to read.
  size_t remaining() const { return size_ - off_; }

 private:
  void Need(size_t n) const {
    if (size_ - off_ < n) ThrowTruncated();
  }
  [[noreturn]] static void ThrowTruncated();

  template <typename T>
  T GetLe() {
    Need(sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[off_ + i]) << (8 * i);
    }
    off_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
};

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) over `n` bytes —
/// Crc32((const uint8_t*)"123456789", 9) == 0xCBF43926.
uint32_t Crc32(const uint8_t* data, size_t n);

/// Deterministic fault plan for the cluster's recovery paths
/// (engine/cluster.h): worker crashes and transport faults in one list.
/// Each event injects one FaultKind into a shard's worker at `at`:
///
///   - `crash`: `at` is a *virtual* timestamp. The worker _Exit(134)s the
///     moment any of its sessions is about to advance to it
///     (EngineOptions::crash_at_timestamp), so tests, the lifecycle fuzzer
///     and the bench recovery table kill workers mid-drain reproducibly.
///   - every other kind: `at` is the 0-based frame-operation index on the
///     shard's data channel (sends and receives share the worker
///     channel's counter). The worker side of the cluster protocol is
///     single-threaded, so its frame-op sequence — admit receives, the
///     drain receive, the result send — is a deterministic function of the
///     workload, which makes "the Nth frame of shard k" reproducible.
///
/// Events are consumed per incarnation: TakeIncarnation pops a shard's
/// events in plan order up to and including the first *fatal* kind
/// (crash / corrupt / truncate / stall / reset — anything that costs the
/// incarnation its life), so the k-th batch arms the k-th incarnation
/// forked for the shard (initial worker first, then each replacement). A
/// plan with several fatal events for one shard therefore exercises
/// repeated restarts and, past the restart budget, graceful degradation.
struct FaultPlan {
  struct Event {
    size_t shard = 0;
    size_t at = 0;  ///< frame-op index; virtual timestamp for kCrash
    FaultKind kind = FaultKind::kCorrupt;
  };
  std::vector<Event> events;

  bool empty() const { return events.empty(); }

  /// True for kinds after which the incarnation cannot survive (the
  /// coordinator restarts the shard): crash, corrupt, truncate, stall,
  /// reset.
  static bool IsFatal(FaultKind kind);

  /// Pops the next batch of events for `shard`: everything up to and
  /// including the first fatal kind, so a crash can only come last.
  /// Returns an empty vector when the shard has no events left.
  std::vector<Event> TakeIncarnation(size_t shard);

  /// Parses "shard:at:kind[,shard:at:kind...]" where shard and at are
  /// unsigned decimals (digits only) and kind is a FaultKindName ("short",
  /// "eintr", "corrupt", "trunc", "stall", "reset", "crash"); spaces
  /// allowed around tokens. Throws std::runtime_error on a malformed spec
  /// — a typo in a plan must fail loudly, not silently disarm the fuzz
  /// run.
  static FaultPlan Parse(const std::string& spec);

  /// Derives a small random plan (1-2 frame-fault events over `shards`
  /// shards; never a crash) from a seed — the "seed:N" form of
  /// MPN_FAULT_PLAN, used by the CI fault soak. Deterministic for a given
  /// (seed, shards).
  static FaultPlan FromSeed(uint64_t seed, size_t shards);

  /// Reads the MPN_FAULT_PLAN environment variable: empty plan when
  /// unset or empty, FromSeed when the value is "seed:N", Parse
  /// otherwise. An event naming a shard >= `shards` could never fire, so
  /// it throws std::runtime_error like a malformed entry.
  static FaultPlan FromEnv(size_t shards);
};

/// One endpoint of a connected pair, speaking checksummed frames over a
/// Transport. Owns the underlying file descriptor.
class IpcChannel {
 public:
  /// Frame header constants (also asserted by tests).
  static constexpr uint32_t kFrameMagic = 0x314E504Du;  // "MPN1" in LE
  static constexpr uint32_t kFrameVersion = 1;
  static constexpr size_t kHeaderBytes = 16;

  IpcChannel() = default;
  /// Takes ownership of `fd` (switched to non-blocking).
  explicit IpcChannel(int fd) : transport_(fd) {}
  explicit IpcChannel(Transport transport)
      : transport_(std::move(transport)) {}

  IpcChannel(const IpcChannel&) = delete;
  IpcChannel& operator=(const IpcChannel&) = delete;
  IpcChannel(IpcChannel&&) noexcept = default;
  IpcChannel& operator=(IpcChannel&&) noexcept = default;

  /// Creates a connected socketpair (engine/transport.h). Throws
  /// std::runtime_error when the syscall fails.
  static void MakePair(IpcChannel* a, IpcChannel* b);

  bool valid() const { return transport_.valid(); }
  void Close() { transport_.Close(); }
  /// Half-closes both directions (wakes a blocked reader with EOF)
  /// without releasing the fd.
  void ShutdownBoth() { transport_.ShutdownBoth(); }

  /// Sends one frame; the whole operation (header + payload) must
  /// complete before `deadline_ms` (<= 0: wait indefinitely). Returns
  /// kClosed when the peer is gone (never raises SIGPIPE), kDeadline on
  /// expiry — after which the stream is no longer trustworthy and the
  /// peer should be restarted. Throws FrameError on oversized frames,
  /// std::runtime_error on unexpected socket errors.
  IoStatus SendFrame(const WireBuffer& frame, double deadline_ms);

  /// Receives one frame into `payload`. `first_byte_deadline_ms` bounds
  /// only the wait for the frame to *begin* (<= 0: wait indefinitely);
  /// kDeadline then means "no frame yet", nothing was consumed and the
  /// stream is still clean, so the caller may retry or probe liveness.
  /// Once the first byte has arrived the per-op deadline
  /// (set_io_deadline_ms) applies: a peer that wedges or closes
  /// mid-frame, a bad magic/version/length or a CRC mismatch all throw
  /// FrameError. Returns kClosed on a clean between-frames EOF or reset.
  IoStatus RecvFrame(std::vector<uint8_t>* payload,
                     double first_byte_deadline_ms);

  /// Blocking compatibility wrappers: Send waits io_deadline_ms (false
  /// on a gone peer or expiry), Recv blocks until a frame begins (false
  /// on EOF). Both throw FrameError on integrity failures.
  bool Send(const WireBuffer& frame);
  bool Recv(std::vector<uint8_t>* payload);

  /// Deadline applied to Send and to mid-frame receive progress
  /// (<= 0: unbounded, the pre-hardening behaviour). Default 0.
  void set_io_deadline_ms(double ms) { io_deadline_ms_ = ms; }
  double io_deadline_ms() const { return io_deadline_ms_; }

  /// Arms a deterministic fault on this endpoint (engine/transport.h).
  void ArmFault(size_t frame, FaultKind kind) {
    transport_.ArmFault(frame, kind);
  }

  const TransportCounters& counters() const {
    return transport_.counters();
  }
  /// Last transport-level error text ("" when none) for error messages.
  const std::string& last_error() const { return transport_.last_error(); }

 private:
  Transport transport_;
  double io_deadline_ms_ = 0;
};

}  // namespace mpn
