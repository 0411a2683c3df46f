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

/// Accumulates total time across many timed sections.
class TimeAccumulator {
 public:
  /// RAII scope that adds its lifetime to the accumulator.
  class Scope {
   public:
    explicit Scope(TimeAccumulator* acc) : acc_(acc) {}
    ~Scope() { acc_->total_seconds_ += timer_.ElapsedSeconds(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TimeAccumulator* acc_;
    Timer timer_;
  };

  /// Total accumulated seconds.
  double TotalSeconds() const { return total_seconds_; }

  /// Adds raw seconds (for merging measurements).
  void AddSeconds(double s) { total_seconds_ += s; }

  /// Clears the accumulated total.
  void Reset() { total_seconds_ = 0.0; }

 private:
  double total_seconds_ = 0.0;
};

}  // namespace mpn
