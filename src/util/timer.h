// Wall-clock timing helpers for the experiment harness.
#pragma once

#include <chrono>

namespace mpn {

/// Monotonic stopwatch measuring elapsed wall-clock time.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  /// Seconds from `origin`'s start to this timer's start: a timestamp in
  /// origin's frame that costs no clock read.
  double StartedAfter(const Timer& origin) const {
    return std::chrono::duration<double>(start_ - origin.start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mpn
