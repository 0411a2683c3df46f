#include "engine/session_store.h"

#include <errno.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/session_codec.h"
#include "util/macros.h"

namespace mpn {

namespace {
constexpr size_t kMinExtentBytes = 256;
constexpr size_t kNoRetire = std::numeric_limits<size_t>::max();
}  // namespace

SessionStore::SessionStore(const MemoryBudget& budget, SessionFactory factory)
    : budget_(budget), factory_(std::move(factory)) {}

SessionStore::~SessionStore() {
  if (fd_ >= 0) close(fd_);
}

size_t SessionStore::FinalBytesEstimate(const SessionFinalResult& fr) {
  return 128 + fr.advance_seconds.size() * sizeof(double);
}

void SessionStore::SetAccountedLocked(SessionRecord* r, size_t bytes) {
  stats_.resident_bytes -= r->accounted_bytes;
  stats_.resident_bytes += bytes;
  r->accounted_bytes = bytes;
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
}

void SessionStore::InsertActiveLocked(SessionRecord* r) {
  if (r->store_indexed) return;
  active_.emplace(r->id, r);
  r->store_indexed = true;
}

void SessionStore::EraseActiveLocked(SessionRecord* r) {
  if (!r->store_indexed) return;
  active_.erase(r->id);
  r->store_indexed = false;
}

void SessionStore::AccountLocked(SessionRecord* r) {
  if (r->finalized || r->spilled || r->session == nullptr) return;
  const size_t est = r->session->StateBytesEstimate();
  std::lock_guard<std::mutex> sl(mu_);
  SetAccountedLocked(r, est);
  if (enabled()) InsertActiveLocked(r);
}

void SessionStore::CompactFinalizedLocked(SessionRecord* r) {
  if (r->final_result != nullptr || r->session == nullptr) return;
  r->final_result =
      std::make_unique<SessionFinalResult>(r->session->ExtractFinalResult());
  r->session.reset();
  const size_t est = FinalBytesEstimate(*r->final_result);
  std::lock_guard<std::mutex> sl(mu_);
  EraseActiveLocked(r);
  SetAccountedLocked(r, est);
  if (enabled()) finals_.push_back(r);
}

void SessionStore::EnsureResidentLocked(SessionRecord* r) {
  if (!r->spilled) return;
  const std::vector<uint8_t> bytes =
      ReadExtent(r->spill_offset, r->spill_length);
  WireReader reader(bytes);
  const SnapshotKind kind = ReadSnapshotHeader(&reader);
  bool live = false;
  size_t est = 0;
  if (kind == SnapshotKind::kLive) {
    const GroupSession::State state = DecodeLiveSession(&reader);
    std::unique_ptr<GroupSession> session =
        factory_(r->id, r->group, r->tuning);
    session->ImportState(state);
    if (r->pending_retire_at != kNoRetire) {
      session->RequestRetire(r->pending_retire_at);
      r->pending_retire_at = kNoRetire;
    }
    r->session = std::move(session);
    est = r->session->StateBytesEstimate();
    live = true;
  } else {
    r->final_result =
        std::make_unique<SessionFinalResult>(DecodeFinalSession(&reader));
    est = FinalBytesEstimate(*r->final_result);
  }
  r->spilled = false;
  std::lock_guard<std::mutex> sl(mu_);
  FreeExtentLocked(r->spill_offset, r->spill_capacity);
  ++stats_.rehydrated_sessions;
  SetAccountedLocked(r, est);
  if (live) {
    InsertActiveLocked(r);
  } else {
    finals_.push_back(r);
  }
}

void SessionStore::WithResult(
    SessionRecord* r,
    const std::function<void(const SessionFinalResult&)>& fn) {
  std::lock_guard<std::mutex> rl(r->mu);
  if (r->final_result != nullptr) {
    fn(*r->final_result);
    return;
  }
  if (r->session != nullptr) {
    const GroupSession& s = *r->session;
    SessionFinalResult tmp;
    tmp.metrics = s.metrics();
    tmp.has_result = s.has_result();
    tmp.po = s.current_po();
    tmp.mailbox_peak = s.mailbox_peak();
    tmp.stall_count = s.stall_count();
    tmp.advance_seconds = s.advance_seconds();
    fn(tmp);
    return;
  }
  MPN_ASSERT(r->spilled);
  const std::vector<uint8_t> bytes =
      ReadExtent(r->spill_offset, r->spill_length);
  WireReader reader(bytes);
  const SnapshotKind kind = ReadSnapshotHeader(&reader);
  if (kind == SnapshotKind::kFinal) {
    const SessionFinalResult tmp = DecodeFinalSession(&reader);
    fn(tmp);
    return;
  }
  GroupSession::State state = DecodeLiveSession(&reader);
  SessionFinalResult tmp;
  tmp.metrics = state.metrics;
  tmp.has_result = state.has_result;
  tmp.po = state.current_po;
  tmp.mailbox_peak = state.mailbox_peak;
  tmp.stall_count = state.stall_count;
  // Processed prefix only — the tail of a live session's trace is still
  // zero, and the mid-run readers (drain, digest) never consume it.
  tmp.advance_seconds = std::move(state.advance_at);
  fn(tmp);
}

void SessionStore::Rebalance() {
  if (!enabled()) return;
  while (true) {
    SessionRecord* victim = nullptr;
    {
      std::lock_guard<std::mutex> sl(mu_);
      if (stats_.resident_bytes <= budget_.bytes_cap) return;
      if (!finals_.empty()) {
        victim = finals_.front();
        finals_.pop_front();
      } else if (!active_.empty()) {
        auto it = std::prev(active_.end());
        victim = it->second;
        victim->store_indexed = false;
        active_.erase(it);
      } else {
        // Everything resident is mid-event: the cap is best-effort until
        // those sessions' events re-account them.
        return;
      }
    }
    // The store mutex is released: lock the victim's record mutex fresh
    // (never the other way around) and re-check eligibility — the
    // scheduler may have re-armed it in between.
    std::lock_guard<std::mutex> rl(victim->mu);
    SpillIfEligibleLocked(victim);
  }
}

void SessionStore::SpillIfEligibleLocked(SessionRecord* r) {
  if (r->spilled) return;
  WireBuffer buf;
  const bool final = r->final_result != nullptr;
  size_t next_t = 0;
  if (final) {
    EncodeFinalSession(*r->final_result, &buf);
  } else if (r->session != nullptr && !r->event_running && !r->job_running &&
             !r->result_ready && !r->finalized && !r->session->done() &&
             r->session->MailboxEmpty()) {
    // event_queued is fine: RunEvent rehydrates before touching the
    // session. Under the flags above the mailbox is provably empty and no
    // recomputation is in flight, so ExportState is a clean boundary.
    const GroupSession::State state = r->session->ExportState();
    next_t = state.next_t;
    EncodeLiveSession(state, &buf);
  } else {
    // Popped but no longer eligible; it re-registers via AccountLocked
    // after its next event.
    return;
  }
  size_t offset = 0;
  size_t capacity = 0;
  {
    std::lock_guard<std::mutex> sl(mu_);
    EnsureFileLocked();
    offset = AllocExtentLocked(buf.size(), &capacity);
  }
  // The extent is exclusively ours: positioned write needs no lock. The
  // in-memory state goes only once the bytes are written, so a spill that
  // throws leaves the record resident and intact.
  try {
    WriteExtent(offset, buf.data());
  } catch (...) {
    std::lock_guard<std::mutex> sl(mu_);
    FreeExtentLocked(offset, capacity);
    throw;
  }
  if (final) {
    r->final_result.reset();
  } else {
    r->cached_next_t = next_t;
    r->session.reset();
  }
  r->spilled = true;
  r->spill_offset = offset;
  r->spill_length = buf.size();
  r->spill_capacity = capacity;
  std::lock_guard<std::mutex> sl(mu_);
  ++stats_.spilled_sessions;
  stats_.spilled_bytes += buf.size();
  SetAccountedLocked(r, 0);
}

MemoryStats SessionStore::stats() const {
  std::lock_guard<std::mutex> sl(mu_);
  return stats_;
}

void SessionStore::EnsureFileLocked() {
  if (fd_ >= 0) return;
  std::string dir = budget_.spill_dir;
  if (dir.empty()) {
    const char* tmp = getenv("TMPDIR");
    dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  }
  std::string templ = dir + "/mpn-spill-XXXXXX";
  std::vector<char> path(templ.begin(), templ.end());
  path.push_back('\0');
  const int fd = mkstemp(path.data());
  if (fd < 0) {
    throw std::runtime_error("session store: cannot create spill file in " +
                             dir + ": " + strerror(errno));
  }
  // Anonymous from birth: the extents die with the process, crash or not.
  unlink(path.data());
  fd_ = fd;
}

size_t SessionStore::AllocExtentLocked(size_t length, size_t* capacity) {
  size_t cap = kMinExtentBytes;
  while (cap < length) cap <<= 1;
  *capacity = cap;
  auto it = free_lists_.find(cap);
  if (it != free_lists_.end() && !it->second.empty()) {
    const size_t offset = it->second.back();
    it->second.pop_back();
    return offset;
  }
  const size_t offset = file_end_;
  file_end_ += cap;
  return offset;
}

void SessionStore::FreeExtentLocked(size_t offset, size_t capacity) {
  free_lists_[capacity].push_back(offset);
}

void SessionStore::WriteExtent(size_t offset,
                               const std::vector<uint8_t>& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        pwrite(fd_, bytes.data() + done, bytes.size() - done,
               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("session store: spill write: ") +
                               strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
}

std::vector<uint8_t> SessionStore::ReadExtent(size_t offset,
                                              size_t length) const {
  std::vector<uint8_t> bytes(length);
  size_t done = 0;
  while (done < length) {
    const ssize_t n = pread(fd_, bytes.data() + done, length - done,
                            static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("session store: spill read: ") +
                               strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error("session store: short spill read");
    }
    done += static_cast<size_t>(n);
  }
  return bytes;
}

}  // namespace mpn
