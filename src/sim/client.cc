#include "sim/client.h"

#include <algorithm>

#include "util/macros.h"

namespace mpn {

MpnClient::MpnClient(const Trajectory* trajectory) : trajectory_(trajectory) {
  MPN_ASSERT(trajectory_ != nullptr && trajectory_->size() > 0);
  location_ = trajectory_->at(0);
}

void MpnClient::Advance(size_t t) {
  MPN_ASSERT(t < trajectory_->size());
  const Point next = trajectory_->at(t);
  const Vec2 step = next - location_;
  if (step.Norm2() > 0.0) {
    heading_ = step.Angle();
    moved_ = true;
    if (window_count_ < kHeadingWindow) {
      window_[window_count_++] = heading_;
    } else {
      // Full: the newest heading overwrites the oldest.
      window_[window_head_] = heading_;
      window_head_ = static_cast<uint8_t>((window_head_ + 1) % kHeadingWindow);
    }
  }
  location_ = next;
}

MpnClient::State MpnClient::ExportState() const {
  State state;
  state.location = location_;
  state.moved = moved_;
  state.heading = heading_;
  state.recent_headings.reserve(window_count_);
  for (size_t i = 0; i < window_count_; ++i) {
    state.recent_headings.push_back(
        window_[(window_head_ + i) % kHeadingWindow]);
  }
  state.has_region = has_region_;
  state.region = region_;
  return state;
}

void MpnClient::ImportState(const State& state) {
  MPN_ASSERT(state.recent_headings.size() <= kHeadingWindow);
  location_ = state.location;
  moved_ = state.moved;
  heading_ = state.heading;
  std::copy(state.recent_headings.begin(), state.recent_headings.end(),
            window_.begin());
  window_head_ = 0;
  window_count_ = static_cast<uint8_t>(state.recent_headings.size());
  has_region_ = state.has_region;
  region_ = state.region;
}

size_t MpnClient::StateBytesEstimate() const {
  size_t bytes = 128 + window_count_ * sizeof(double);
  if (has_region_ && !region_.is_circle()) {
    bytes += region_.tiles().size() * 80;
  }
  return bytes;
}

MotionHint MpnClient::Hint() const {
  MotionHint hint;
  if (!moved_) return hint;
  hint.has_heading = true;
  hint.heading = heading_;
  // A max over the occupied slots: the ring's order does not matter.
  double dev = 0.0;
  for (size_t i = 0; i < window_count_; ++i) {
    dev = std::max(dev, AngleDiff(window_[i], heading_));
  }
  hint.theta = std::clamp(dev, kThetaMin, kThetaMax);
  return hint;
}

}  // namespace mpn
