#include "engine/group_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/macros.h"

namespace mpn {

void ValidateAdmission(const std::vector<const Trajectory*>& group,
                       const SessionTuning& tuning) {
  if (group.empty()) {
    throw std::invalid_argument("AdmitSession: empty group");
  }
  if (group.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument(
        "AdmitSession: group larger than UINT32_MAX members");
  }
  for (const Trajectory* t : group) {
    if (t == nullptr || t->positions.empty()) {
      throw std::invalid_argument("AdmitSession: null or empty trajectory");
    }
  }
  const double f = tuning.recompute_cost_factor;
  if (!(std::isfinite(f) && f >= 1.0)) {
    throw std::invalid_argument(
        "AdmitSession: recompute_cost_factor must be finite and >= 1");
  }
}

void AddToSlot(SlotTotals* totals, size_t t, const Slot& share) {
  if (totals == nullptr) return;
  if (totals->size() <= t) totals->resize(t + 1);
  Slot& slot = (*totals)[t];
  slot.messages += share.messages;
  slot.recomputes += share.recomputes;
  slot.seconds += share.seconds;
}

void AddSlots(const SlotTotals& from, SlotTotals* into) {
  for (size_t t = 0; t < from.size(); ++t) AddToSlot(into, t, from[t]);
}

GroupSession::GroupSession(uint32_t id, const std::vector<Point>* pois,
                           const PackedRTree* tree,
                           const std::vector<const Trajectory*>& group,
                           const SimOptions& options,
                           const SessionTuning& tuning, const Timer* run_timer)
    : id_(id),
      tuning_(tuning),
      run_timer_(run_timer),
      server_(pois, tree, options.server) {
  MPN_ASSERT(!group.empty());
  MPN_ASSERT(tuning_.recompute_cost_factor >= 1.0);
  clients_.reserve(group.size());
  for (const Trajectory* t : group) clients_.emplace_back(t);
  horizon_ = group.front()->size();
  for (const Trajectory* t : group) horizon_ = std::min(horizon_, t->size());
  retire_at_ = tuning_.retire_at;
  advance_at_.assign(horizon_, 0.0);
}

void GroupSession::AdvanceClients(size_t t, const Timer& tick) {
  for (MpnClient& c : clients_) c.Advance(t);
  ++metrics_.timestamps;
  advance_at_[t] =
      run_timer_ != nullptr ? tick.StartedAfter(*run_timer_) : 0.0;
}

void GroupSession::CaptureSnapshot(size_t t, Snapshot* snap) const {
  snap->t = t;
  snap->locations.clear();
  snap->hints.clear();
  snap->locations.reserve(clients_.size());
  snap->hints.reserve(clients_.size());
  for (const MpnClient& c : clients_) {
    snap->locations.push_back(c.location());
    snap->hints.push_back(c.Hint());
  }
}

size_t GroupSession::RecordViolation() {
  const size_t m = clients_.size();
  ++metrics_.updates;

  // Step 1: the triggering user reports location + motion hint.
  metrics_.comm.Record(MessageType::kLocationUpdate,
                       kValuesPerPoint + kValuesPerMotionHint, packet_model_);
  // Step 2: probe the other users; each replies with location + hint.
  for (size_t i = 0; i + 1 < m; ++i) {
    metrics_.comm.Record(MessageType::kProbe, 0, packet_model_);
    metrics_.comm.Record(MessageType::kProbeReply,
                         kValuesPerPoint + kValuesPerMotionHint,
                         packet_model_);
  }
  return 1 + 2 * (m - 1);
}

bool GroupSession::AdvanceAndCheck(Snapshot* snap, SlotTotals* slots) {
  MPN_ASSERT(MailboxEmpty());
  // Re-checked (not asserted): a concurrent RetireSession may truncate the
  // horizon between the scheduler's readiness check and this call.
  if (AdvancesExhausted()) return false;
  const Timer timer;  // also the tick's advance stamp
  const size_t t = next_t_++;
  AdvanceClients(t, timer);
  bool violated = !has_result_;
  if (!violated) {
    for (const MpnClient& c : clients_) {
      if (!c.InsideRegion()) {
        violated = true;
        break;
      }
    }
  }
  size_t messages = 0;
  if (violated) {
    messages = RecordViolation();
    CaptureSnapshot(t, snap);
  }
  AddToSlot(slots, t, {messages, violated ? 1u : 0u, timer.ElapsedSeconds()});
  return violated;
}

void GroupSession::BufferAdvance(SlotTotals* slots) {
  // Re-checked (not asserted): a concurrent RetireSession may have
  // exhausted the horizon since the event was scheduled.
  if (!CanBuffer()) return;
  const Timer timer;  // also the tick's advance stamp
  const size_t t = next_t_++;
  AdvanceClients(t, timer);
  if (mailbox_head_ > 0 && mailbox_.size() == mailbox_.capacity()) {
    // A replay violated with updates still queued and the flight refills
    // the mailbox: drop the replayed prefix instead of growing the vector.
    mailbox_.erase(mailbox_.begin(), mailbox_.begin() + mailbox_head_);
    mailbox_head_ = 0;
  }
  mailbox_.emplace_back();
  CaptureSnapshot(t, &mailbox_.back());
  mailbox_peak_ = std::max(mailbox_peak_, MailboxSize());
  if (MailboxSize() >= tuning_.mailbox_capacity) flight_saturated_ = true;
  AddToSlot(slots, t, {0, 0, timer.ElapsedSeconds()});
}

GroupSession::RecomputeOutcome GroupSession::Recompute(const Snapshot& snap,
                                                       SlotTotals* slots) {
  Timer timer;
  RecomputeOutcome outcome;
  outcome.t = snap.t;
  const double before = server_.compute_seconds();
  outcome.result = server_.Recompute(snap.locations, snap.hints);
  outcome.compute_seconds = server_.compute_seconds() - before;

  // Straggler injection: pad the recomputation to cost_factor times its
  // real duration. Pure wall-clock — results and digest are unaffected.
  if (tuning_.recompute_cost_factor > 1.0) {
    const double target =
        timer.ElapsedSeconds() * tuning_.recompute_cost_factor;
    while (timer.ElapsedSeconds() < target) {
    }
  }
  AddToSlot(slots, snap.t, {0, 0, timer.ElapsedSeconds()});
  return outcome;
}

void GroupSession::InstallResult(RecomputeOutcome outcome, SlotTotals* slots) {
  Timer timer;
  // A capacity-0 mailbox cannot buffer at all: every recomputation with
  // timestamps still ahead stalled the clock (deterministically). For
  // capacity >= 1 the stall was flagged by the BufferAdvance that filled
  // the mailbox while this result was in flight.
  if (flight_saturated_ ||
      (tuning_.mailbox_capacity == 0 && !AdvancesExhausted())) {
    ++stall_count_;
  }
  flight_saturated_ = false;
  const size_t m = clients_.size();
  MsrResult& result = outcome.result;
  if (!has_result_ || result.po_id != current_po_) {
    if (has_result_) ++metrics_.result_changes;
    current_po_ = result.po_id;
    has_result_ = true;
  }
  metrics_.server_seconds += outcome.compute_seconds;

  // Step 3: ship po + safe region to every user; tile regions go through
  // the lossless codec so clients hold exactly the wire representation.
  for (size_t i = 0; i < m; ++i) {
    SafeRegion& region = result.regions[i];
    const size_t values = kValuesPerPoint + RegionValueCount(region, true);
    metrics_.comm.Record(MessageType::kResult, values, packet_model_);
    if (region.is_circle()) {
      clients_[i].SetRegion(std::move(region));
    } else {
      const EncodedTileRegion enc = EncodeTileRegion(region.tiles());
      clients_[i].SetRegion(SafeRegion::MakeTiles(DecodeTileRegion(enc)));
    }
  }
  AddToSlot(slots, outcome.t, {m, 0, timer.ElapsedSeconds()});
}

GroupSession::Replay GroupSession::ReplayOne(Snapshot* snap,
                                             SlotTotals* slots) {
  if (MailboxEmpty()) return Replay::kEmpty;
  Timer timer;
  Snapshot entry = std::move(mailbox_[mailbox_head_++]);
  if (MailboxEmpty()) {
    mailbox_.clear();
    mailbox_head_ = 0;
  }
  // Retirement landed below an already-buffered timestamp (asap mode):
  // drop the update unchecked — the session is past its horizon.
  if (entry.t >= effective_horizon()) return Replay::kClean;

  bool violated = false;
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i].region().Contains(entry.locations[i])) {
      violated = true;
      break;
    }
  }
  if (violated) {
    AddToSlot(slots, entry.t, {RecordViolation(), 1, timer.ElapsedSeconds()});
    *snap = std::move(entry);
    return Replay::kViolation;
  }
  AddToSlot(slots, entry.t, {0, 0, timer.ElapsedSeconds()});
  return Replay::kClean;
}

GroupSession::State GroupSession::ExportState() const {
  // Spill boundary: between events, mailbox drained, no recompute in
  // flight (the scheduler's flags guarantee the latter). Under those
  // conditions flight_saturated_ is provably false, so it need not travel.
  MPN_ASSERT(MailboxEmpty());
  State state;
  state.next_t = next_t_;
  state.retire_at = retire_at_;
  state.has_result = has_result_;
  state.current_po = current_po_;
  state.mailbox_peak = mailbox_peak_;
  state.stall_count = stall_count_;
  state.metrics = metrics_;
  state.server = server_.ExportState();
  state.clients.reserve(clients_.size());
  for (const MpnClient& c : clients_) state.clients.push_back(c.ExportState());
  // Entries at t >= next_t_ are still at their ctor-assigned zero, so only
  // the processed prefix travels; ImportState re-zero-fills the tail.
  state.advance_at.assign(advance_at_.begin(), advance_at_.begin() + next_t_);
  return state;
}

void GroupSession::ImportState(const State& state) {
  MPN_ASSERT(MailboxEmpty());
  MPN_ASSERT(state.clients.size() == clients_.size());
  MPN_ASSERT(state.next_t <= horizon_);
  next_t_ = state.next_t;
  retire_at_ = state.retire_at;
  has_result_ = state.has_result;
  current_po_ = state.current_po;
  mailbox_peak_ = state.mailbox_peak;
  stall_count_ = state.stall_count;
  metrics_ = state.metrics;
  server_.ImportState(state.server);
  for (size_t i = 0; i < clients_.size(); ++i) {
    clients_[i].ImportState(state.clients[i]);
  }
  flight_saturated_ = false;
  advance_at_.assign(horizon_, 0.0);
  std::copy(state.advance_at.begin(), state.advance_at.end(),
            advance_at_.begin());
}

size_t GroupSession::StateBytesEstimate() const {
  // Fixed part covers the session object, server counters and metrics; the
  // variable part is the per-timestamp term plus each client's region. The
  // session keeps 8 B per timestamp (the advance trace) but is charged 32 B:
  // over-charging a long session is the safe side for a cap, and it keeps
  // every spill decision where it was until the advance trace goes and
  // this term is re-derived.
  size_t bytes = 256 + horizon_ * 32;
  for (const MpnClient& c : clients_) bytes += c.StateBytesEstimate();
  return bytes;
}

}  // namespace mpn
