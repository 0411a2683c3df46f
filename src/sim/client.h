// Client-side state of the Fig. 3 protocol.
//
// A client replays its trajectory, checks containment in its current safe
// region every timestamp, and maintains the motion statistics (heading and
// learned angular deviation theta) that the server's directed ordering
// consumes (Section 5.2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mpn/safe_region.h"
#include "mpn/tile_msr.h"
#include "traj/trajectory.h"

namespace mpn {

/// One moving user.
class MpnClient {
 public:
  /// Recent headings used to learn theta.
  static constexpr size_t kHeadingWindow = 8;
  /// Clamp bounds for the learned deviation (radians).
  static constexpr double kThetaMin = 0.26179938779914941;  // 15 degrees
  static constexpr double kThetaMax = 3.14159265358979312;  // 180 degrees

  /// The trajectory must outlive the client.
  explicit MpnClient(const Trajectory* trajectory);

  /// Moves to timestamp `t` and updates motion statistics.
  void Advance(size_t t);

  /// Current location.
  const Point& location() const { return location_; }

  /// True when the client holds a region and is inside it.
  bool InsideRegion() const {
    return has_region_ && region_.Contains(location_);
  }

  /// True after the first SetRegion call.
  bool has_region() const { return has_region_; }

  /// Installs a freshly received safe region.
  void SetRegion(SafeRegion region) {
    region_ = std::move(region);
    has_region_ = true;
  }

  const SafeRegion& region() const { return region_; }

  /// Motion hint shipped with location reports: current heading and the
  /// maximum deviation observed over the recent window, clamped to
  /// [kThetaMin, kThetaMax]. has_heading is false until the client has
  /// moved.
  MotionHint Hint() const;

  /// Plain-data snapshot of the client's evolving state (everything except
  /// the trajectory pointer, which the owner re-supplies on rehydration).
  /// Wire encoding lives in engine/session_codec.h so the sim layer stays
  /// free of IPC dependencies.
  struct State {
    Point location{0, 0};
    bool moved = false;
    double heading = 0.0;
    /// The heading window, oldest first; at most kHeadingWindow entries.
    std::vector<double> recent_headings;
    bool has_region = false;
    SafeRegion region;
  };

  /// Captures the current state, bit-exactly restorable via ImportState.
  State ExportState() const;

  /// Restores a captured state into a freshly constructed client (same
  /// trajectory). `state.recent_headings` must hold at most kHeadingWindow
  /// entries (asserted; the session codec rejects longer windows).
  void ImportState(const State& state);

  /// Deterministic resident-byte estimate: a pure function of the logical
  /// state (never of container capacities), so the engine's memory
  /// accounting is identical across runs and machines. The budget charges
  /// these bytes, not heap bytes: a circle-region client is charged 128 B
  /// plus 8 per heading, while the client itself, heading ring included,
  /// sits in its session's client vector and owns no heap block.
  size_t StateBytesEstimate() const;

 private:
  const Trajectory* trajectory_;
  Point location_;
  SafeRegion region_;
  bool has_region_ = false;
  bool moved_ = false;
  /// Heading window as a ring: the window_count_ newest headings, oldest
  /// at window_head_. The head moves only once the ring is full, so a
  /// partial window fills slots [0, window_count_).
  uint8_t window_head_ = 0;
  uint8_t window_count_ = 0;
  double heading_ = 0.0;
  std::array<double, kHeadingWindow> window_{};
};

}  // namespace mpn
