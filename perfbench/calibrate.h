// A fixed reference kernel that tells how fast the host runs right now.
//
// The benchmark shares a KVM host whose speed changes by up to 2.5x over
// minutes (other guests load the same cores, caches and memory): the same
// work took 10,000 to 25,000 ticks/s in runs a few minutes apart, in CPU
// time as much as in wall time. Every timing the benchmark reports is
// therefore divided by the host's speed at the time, measured by this
// kernel right around the timed work and in the same process. The kernel
// is self-contained code of the benchmark (it calls nothing of the library
// under test), so a change to the library moves the timings and never the
// kernel.
//
// What it runs resembles the server's work: grid-bucketed nearest-pair
// searches over a fixed point set (floating point, branches, L2-sized
// data), a per-query candidate vector (allocation churn) sorted by
// distance, and a bit of hashing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  /// Builds the kernel's fixed data (untimed).
  Calibrator();

  /// Runs the kernel `reps` times; returns the seconds of each run.
  std::vector<double> Sample(int reps);

  /// Seconds one kernel run takes on the reference host: a 4-vCPU KVM
  /// Xeon (Sapphire Rapids) at its fast phase. A timing divided by
  /// (measured kernel seconds / this) reads as on that host.
  static constexpr double kReferenceSeconds = 0.0040;

 private:
  uint64_t Run() const;

  std::vector<double> xs_, ys_;
  std::vector<uint32_t> cell_begin_;
  std::atomic<uint64_t> sink_{0};  // keeps the runs from being optimised out
};

/// The process's kernel, built on first use (before a fork, its data is
/// shared with the children).
Calibrator& ReferenceKernel();

/// Runs the kernel `reps` times on each of `threads` threads at once and
/// returns, per repetition, the slowest thread's seconds: work spread over
/// that many threads waits for the slowest of them as well.
std::vector<double> SampleParallel(size_t threads, int reps);

/// Calibrator::kReferenceSeconds over the median of `kernel_seconds`: the
/// factor that reads a timing taken alongside them as on the reference
/// host.
double HostScale(std::vector<double> kernel_seconds);

}  // namespace perfbench
