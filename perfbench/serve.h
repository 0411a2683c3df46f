// Serving rounds, the notification-latency probe and the result checker.
//
// Each round runs in a forked child process that starts from the parent's
// generated inputs: the child's rusage then covers exactly its own cold
// starts and batch (and, for the cluster, the workers it reaps), and its
// peak RSS, less what it inherited at fork, is its own. The child reports
// back over a pipe; the parent keeps only numbers and result fields.
//
// Around its cold starts, its batch and its probe the child also runs the
// fixed reference kernel (calibrate.h); the round's timings are reported
// as measured and scaled by the host's speed at the time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/memory_budget.h"
#include "index/packed_rtree.h"
#include "workload.h"

namespace perfbench {

/// One session's deterministic result fields, or why it has none.
struct Outcome {
  uint32_t group = 0;
  uint32_t po = 0;
  uint8_t has_result = 0;
  uint8_t lost = 0;  ///< the session threw or its shard was lost
  uint64_t updates = 0;
  uint64_t packets = 0;
};

/// True when both carry a result and the result fields agree.
bool SameResult(const Outcome& a, const Outcome& b);

/// Scalar totals of one round (trivially copyable: it crosses the pipe).
struct RoundTotals {
  double wall_s = 0.0;             ///< Start() to the final drain
  double cpu_s = 0.0;              ///< serving processes, user + sys
  double coordinator_cpu_s = 0.0;  ///< cluster: the coordinator's share
  double server_s = 0.0;           ///< TotalMetrics().server_seconds
  double slot_s = 0.0;             ///< sum of timeline_slots().seconds
  /// Reference kernel seconds over the kernel's median seconds in this
  /// round: below 1 when the host ran slower than the reference host.
  /// Multiplying a timing of the round by it reads it as on that host.
  double host_scale = 1.0;
  /// Peak RSS of the round's processes (the larger of the child's and its
  /// workers'), less the child's RSS at fork.
  double peak_rss_kb = 0.0;
  uint64_t ticks = 0;
  uint64_t updates = 0;
  uint64_t packets = 0;
  uint64_t events = 0;  ///< scheduler events (in-process engines only)
  mpn::MsrStats msr;
  mpn::MemoryStats mem;
  double mailbox_stalls_mean = 0.0;
  double mailbox_peak_mean = 0.0;
  uint64_t retries = 0;
  uint64_t restarts = 0;
  uint64_t checksum_failures = 0;
  uint64_t heartbeat_misses = 0;
  uint64_t probe_final_excluded = 0;
  uint64_t probe_registrations = 0;
};

struct RoundResult {
  RoundTotals totals;
  std::vector<double> setup_s;  ///< one per cold start
  std::vector<double> kernel_s;  ///< the reference kernel's runs
  std::vector<Outcome> outcomes;  ///< the round's groups, in group order
  std::vector<double> probe_gaps_s;
  /// Per probed group: its outcome, and every recompute the probe found
  /// (timed gaps, the registration, final-timestamp violations).
  std::vector<Outcome> probe_outcomes;
  std::vector<uint64_t> probe_notifications;
  std::string error;  ///< empty when the round completed
};

struct RoundOptions {
  bool probe = true;
  /// Serve a cluster workload's waves on one in-process Engine with
  /// workers x threads threads instead (the IPC-overhead baseline).
  bool in_process = false;
};

/// Runs round `r` of `w` in a forked child and returns what it reported.
/// A child that dies leaves `error` set and every session marked lost.
RoundResult RunRound(const Workload& w, size_t r, const RoundOptions& opt);

/// Serves `groups` one at a time on one in-process Engine with the
/// workload's options and a zero-capacity mailbox, appending each
/// violation's notification gap (its advance to the session's next
/// advance) to `result`. Each group is served `w.probe_reps` times and a
/// violation's gap is the smallest of its serves'; serves that disagree
/// leave the group's probe outcome without a result. Two kinds of
/// recompute are counted but not timed: the registration at t = 0, which
/// answers no region exit (no region exists yet; for Tile-D it also runs
/// without a heading, at ~20x the cost of a violation), and violations at
/// the final timestamp, which have no next advance.
void ProbeGroups(const Workload& w, const mpn::PackedRTree& tree,
                 const std::vector<uint32_t>& groups, RoundResult* result);

/// The aggregate distance tolerance the library's own correctness checks
/// use: `agg` is optimal when agg <= best + 1e-7 * (1 + best).
bool OptimalAt(const Workload& w, uint32_t po,
               const std::vector<mpn::Point>& locations);

/// Locations of group g's members at its last served timestamp.
std::vector<mpn::Point> LastServedLocations(const Workload& w, size_t g);

/// Marks failed sessions: lost or resultless sessions, probe results that
/// differ from the batch's, and checked sessions whose final meeting point
/// is not optimal under brute force. Returns one flag per group of
/// `outcomes` (indexed like it) and appends a line per failure kind to
/// `notes`.
std::vector<uint8_t> CheckOutcomes(const Workload& w,
                                   const std::vector<Outcome>& outcomes,
                                   const std::vector<Outcome>& probed,
                                   std::vector<std::string>* notes);

/// CPU seconds (user + sys) of RUSAGE_SELF / RUSAGE_CHILDREN.
double CpuSeconds(int who);

}  // namespace perfbench
