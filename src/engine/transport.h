// Byte transport under the cluster's frame layer (engine/ipc.h).
//
// A Transport owns one end of an AF_UNIX socketpair(2), switched to
// non-blocking mode and driven through poll(2). MakePair creates the pair
// *pre-fork*, so the coordinator keeps one end and the forked worker the
// other.
//
// Every byte operation takes a deadline: partial reads/writes, EINTR and
// EAGAIN/EWOULDBLOCK are retried internally (counted in
// TransportCounters), and a peer that stops moving bytes surfaces as
// IoStatus::kDeadline instead of hanging the caller forever.
//
// Deterministic fault injection lives here too: the frame layer announces
// each frame operation via BeginFrameOp, and a fault armed for that index
// (FaultPlan, engine/ipc.h) fires exactly then — short I/O and EINTR
// storms shape the byte loops below, while corruption/truncation/stall/
// reset are executed by the frame layer, which knows where payload bytes
// and frame boundaries are. The plan's `crash` kind never reaches a
// channel: it arms the worker's engine instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mpn {

/// Result of a deadline-bounded byte or frame operation.
enum class IoStatus : uint8_t {
  kOk = 0,       ///< All requested bytes moved.
  kClosed = 1,   ///< Peer gone: EOF, EPIPE, ECONNRESET or local close.
  kDeadline = 2  ///< Deadline expired before the operation completed.
};

/// Deterministic fault kinds (FaultPlan, engine/ipc.h). All but kCrash
/// fire at a frame operation of a worker's data channel.
enum class FaultKind : uint8_t {
  kShortIo = 0,     ///< Byte ops capped at 1 byte each for one frame op.
  kEintrStorm = 1,  ///< A burst of simulated EINTR returns before progress.
  kCorrupt = 2,     ///< One payload byte flipped after the CRC is computed.
  kTruncate = 3,    ///< Frame cut mid-payload, then the stream is closed.
  kStall = 4,       ///< raise(SIGSTOP): the process hangs without dying.
  kReset = 5,       ///< The connection is closed at a frame boundary.
  kCrash = 6        ///< The worker _Exit(134)s at a virtual timestamp.
};

/// Cumulative per-endpoint I/O health counters.
struct TransportCounters {
  /// EINTR returns (real or injected) plus EAGAIN poll round-trips.
  uint64_t retries = 0;
  /// Syscalls that moved fewer bytes than requested (partial I/O).
  uint64_t partial_ops = 0;
  /// Armed faults that actually fired on this endpoint.
  uint64_t faults_injected = 0;
};

/// One non-blocking stream endpoint. Owns the fd. Movable, not copyable.
class Transport {
 public:
  Transport() = default;
  /// Takes ownership of `fd` and switches it to O_NONBLOCK.
  explicit Transport(int fd);
  ~Transport() { Close(); }

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  Transport(Transport&& other) noexcept;
  Transport& operator=(Transport&& other) noexcept;

  /// Creates a connected AF_UNIX socketpair. Throws std::runtime_error
  /// when the syscall fails.
  static void MakePair(Transport* a, Transport* b);

  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Half-closes both directions without releasing the fd: a peer (or a
  /// sibling thread of this process) blocked in poll() wakes with EOF.
  void ShutdownBoth();

  /// Sends exactly `n` bytes. `deadline_ms <= 0` waits indefinitely.
  /// Returns kClosed when the peer is gone (never raises SIGPIPE),
  /// kDeadline when the deadline expires mid-operation. Throws
  /// std::runtime_error on unexpected socket errors.
  IoStatus SendBytes(const uint8_t* data, size_t n, double deadline_ms);

  /// Receives exactly `n` bytes. On EOF/reset returns kClosed;
  /// `*received` (optional) reports how many bytes had arrived, so the
  /// frame layer can tell a clean between-frames EOF (0) from a torn
  /// frame (> 0).
  IoStatus RecvBytes(uint8_t* data, size_t n, double deadline_ms,
                     size_t* received = nullptr);

  /// Arms `kind` to fire on this endpoint's `frame`-th frame operation
  /// (0-based, sends and receives share one counter). Multiple faults on
  /// distinct indices may be armed; arming order does not matter.
  void ArmFault(size_t frame, FaultKind kind);

  /// Called by the frame layer at the start of every frame operation.
  /// Clears byte-level shaping from the previous frame op, advances the
  /// frame-op counter and, when a fault is armed for this index, consumes
  /// it: kShortIo / kEintrStorm are applied to this frame op's byte loops
  /// internally, every kind is counted in counters().faults_injected, and
  /// the kind is returned via `*kind` (return value true) so the frame
  /// layer can execute the frame-level kinds. Returns false when no fault
  /// fires here.
  bool BeginFrameOp(FaultKind* kind);

  const TransportCounters& counters() const { return counters_; }

  /// strerror text of the last peer-gone or deadline condition ("" when
  /// none) — surfaced into per-shard error messages by the cluster layer.
  const std::string& last_error() const { return last_error_; }

 private:
  struct ArmedFault {
    size_t frame = 0;
    FaultKind kind = FaultKind::kShortIo;
  };

  /// poll()s for the given events until ready, EOF/error, or deadline.
  IoStatus WaitReady(short events, const double* deadline_left_ms);

  int fd_ = -1;
  size_t frame_ops_ = 0;
  std::vector<ArmedFault> armed_;
  bool short_io_ = false;   ///< Active for the current frame op only.
  int eintr_pending_ = 0;   ///< Simulated EINTRs left in the storm.
  TransportCounters counters_;
  std::string last_error_;
};

}  // namespace mpn
