#include "engine/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace mpn {

namespace {

using Clock = std::chrono::steady_clock;

/// Simulated-EINTR burst length for FaultKind::kEintrStorm — long enough
/// that a loop missing the retry would visibly fail, short enough to be
/// free in tests.
constexpr int kEintrStormLength = 8;

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string("mpn transport: ") + what + ": " +
                           std::strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    ThrowErrno("fcntl(O_NONBLOCK)");
  }
}

Clock::time_point DeadlineFrom(double deadline_ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                deadline_ms));
}

}  // namespace

Transport::Transport(int fd) : fd_(fd) { SetNonBlocking(fd_); }

Transport::Transport(Transport&& other) noexcept
    : fd_(other.fd_),
      frame_ops_(other.frame_ops_),
      armed_(std::move(other.armed_)),
      short_io_(other.short_io_),
      eintr_pending_(other.eintr_pending_),
      counters_(other.counters_),
      last_error_(std::move(other.last_error_)) {
  other.fd_ = -1;
}

Transport& Transport::operator=(Transport&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    frame_ops_ = other.frame_ops_;
    armed_ = std::move(other.armed_);
    short_io_ = other.short_io_;
    eintr_pending_ = other.eintr_pending_;
    counters_ = other.counters_;
    last_error_ = std::move(other.last_error_);
    other.fd_ = -1;
  }
  return *this;
}

void Transport::MakePair(Transport* a, Transport* b) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ThrowErrno("socketpair");
  }
  *a = Transport(fds[0]);
  *b = Transport(fds[1]);
}

void Transport::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Transport::ShutdownBoth() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

IoStatus Transport::WaitReady(short events,
                              const double* deadline_left_ms) {
  for (;;) {
    int timeout = -1;
    if (deadline_left_ms != nullptr) {
      if (*deadline_left_ms <= 0) {
        last_error_ = "I/O deadline expired";
        return IoStatus::kDeadline;
      }
      // Round up so a sub-millisecond remainder still polls once.
      timeout = static_cast<int>(*deadline_left_ms) + 1;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) {
        ++counters_.retries;
        continue;
      }
      ThrowErrno("poll");
    }
    if (rc == 0) {
      last_error_ = "I/O deadline expired";
      return IoStatus::kDeadline;
    }
    // POLLERR/POLLHUP fall through: the following send/recv reports the
    // precise errno (or EOF), which is more useful than guessing here.
    return IoStatus::kOk;
  }
}

IoStatus Transport::SendBytes(const uint8_t* data, size_t n,
                              double deadline_ms) {
  if (fd_ < 0) {
    last_error_ = "channel closed";
    return IoStatus::kClosed;
  }
  const bool bounded = deadline_ms > 0;
  const Clock::time_point deadline =
      bounded ? DeadlineFrom(deadline_ms) : Clock::time_point();
  while (n > 0) {
    if (eintr_pending_ > 0) {
      --eintr_pending_;
      ++counters_.retries;
      continue;
    }
    const size_t chunk = short_io_ ? 1 : n;
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
    const ssize_t w = ::send(fd_, data, chunk, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        ++counters_.retries;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++counters_.retries;
        double left = -1;
        if (bounded) {
          left = std::chrono::duration<double, std::milli>(deadline -
                                                           Clock::now())
                     .count();
        }
        const IoStatus st =
            WaitReady(POLLOUT, bounded ? &left : nullptr);
        if (st != IoStatus::kOk) return st;
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        last_error_ = std::strerror(errno);
        return IoStatus::kClosed;
      }
      ThrowErrno("send");
    }
    if (static_cast<size_t>(w) < n) ++counters_.partial_ops;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return IoStatus::kOk;
}

IoStatus Transport::RecvBytes(uint8_t* data, size_t n, double deadline_ms,
                              size_t* received) {
  if (received != nullptr) *received = 0;
  if (fd_ < 0) {
    last_error_ = "channel closed";
    return IoStatus::kClosed;
  }
  const bool bounded = deadline_ms > 0;
  const Clock::time_point deadline =
      bounded ? DeadlineFrom(deadline_ms) : Clock::time_point();
  size_t got = 0;
  while (got < n) {
    if (eintr_pending_ > 0) {
      --eintr_pending_;
      ++counters_.retries;
      continue;
    }
    const size_t want = n - got;
    const size_t chunk = short_io_ ? 1 : want;
    const ssize_t r = ::recv(fd_, data + got, chunk, 0);
    if (r < 0) {
      if (errno == EINTR) {
        ++counters_.retries;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++counters_.retries;
        double left = -1;
        if (bounded) {
          left = std::chrono::duration<double, std::milli>(deadline -
                                                           Clock::now())
                     .count();
        }
        const IoStatus st = WaitReady(POLLIN, bounded ? &left : nullptr);
        if (st != IoStatus::kOk) {
          if (received != nullptr) *received = got;
          return st;
        }
        continue;
      }
      if (errno == ECONNRESET) {
        last_error_ = std::strerror(errno);
        if (received != nullptr) *received = got;
        return IoStatus::kClosed;
      }
      ThrowErrno("recv");
    }
    if (r == 0) {
      last_error_ = got == 0 ? "peer closed" : "peer closed mid-frame";
      if (received != nullptr) *received = got;
      return IoStatus::kClosed;
    }
    if (static_cast<size_t>(r) < want) ++counters_.partial_ops;
    got += static_cast<size_t>(r);
  }
  if (received != nullptr) *received = got;
  return IoStatus::kOk;
}

void Transport::ArmFault(size_t frame, FaultKind kind) {
  ArmedFault f;
  f.frame = frame;
  f.kind = kind;
  armed_.push_back(f);
}

bool Transport::BeginFrameOp(FaultKind* kind) {
  short_io_ = false;
  eintr_pending_ = 0;
  const size_t index = frame_ops_++;
  for (size_t i = 0; i < armed_.size(); ++i) {
    if (armed_[i].frame != index) continue;
    const FaultKind k = armed_[i].kind;
    armed_.erase(armed_.begin() + static_cast<ptrdiff_t>(i));
    ++counters_.faults_injected;
    if (k == FaultKind::kShortIo) short_io_ = true;
    if (k == FaultKind::kEintrStorm) eintr_pending_ = kEintrStormLength;
    if (kind != nullptr) *kind = k;
    return true;
  }
  return false;
}

}  // namespace mpn
