// Seeded workload generation for the serving benchmark.
//
// A workload is everything one benchmark run serves: the POI set, a
// trajectory pool, the groups (member indices into the pool), per-group
// retirement points, the engine options, and the seeded samples the probe,
// the traced run and the brute-force checker use. Only these generated
// inputs reach the program under test; nothing depends on wall time.
//
// A run serves its groups in `rounds` closed batches of `per_round`
// distinct groups each. Every round is one cold start plus one batch, so a
// run's figures pool many independent groups: with one batch, a seed's
// handful of groups would swing update frequency and per-update cost by
// 20-50 % from seed to seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "traj/trajectory.h"

namespace perfbench {

inline constexpr size_t kNoRetire = std::numeric_limits<size_t>::max();

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::vector<mpn::Point> pois;
  std::vector<mpn::Trajectory> pool;
  /// Group g's members, as indices into `pool`.
  std::vector<std::vector<uint32_t>> groups;
  /// Group g's SessionTuning::retire_at (kNoRetire = full horizon).
  std::vector<size_t> retire_at;
  /// Engine options of the main run (threads, method, budget).
  mpn::EngineOptions options;
  /// Forked worker processes (0 = the in-process Engine).
  size_t workers = 0;
  /// Admission waves of each batch; Wait() drains between waves.
  size_t waves = 1;
  /// Closed batches per run, and groups per batch (round r serves groups
  /// [r * per_round, (r + 1) * per_round)).
  size_t rounds = 1;
  size_t per_round = 0;
  /// Cold starts per round (the last one serves); more than one where a
  /// cold start takes only milliseconds.
  size_t setup_reps = 1;
  /// Groups the latency probe serves one at a time, and the traced run
  /// drives phase by phase.
  std::vector<uint32_t> probe_sample;
  /// Times the probe serves each sampled group; a notification's latency
  /// is its fastest serve's gap. Every serve makes the same notifications
  /// with the same work, but a timer interrupt or host preemption can
  /// double a 15 us Circle gap: with one serve, on a 4-vCPU KVM Xeon, the
  /// Circle workloads' p99 moved by 20 % between runs of the same inputs,
  /// the gaps of two runs being uncorrelated (r = 0.005). Two serves cost
  /// `max_tiled` half its probed groups, and with 40 instead of 80 its
  /// p50, which sits on the steep flank of a broad gap distribution,
  /// spread 23-30 % across seeds instead of 12-15 %; its millisecond gaps
  /// are served once.
  size_t probe_reps = 1;
  /// Groups whose final meeting point is checked against brute force.
  std::vector<uint32_t> check_sample;

  /// Groups [begin, end) of round r's wave k (waves split a round evenly).
  std::pair<size_t, size_t> Wave(size_t r, size_t k) const;
  std::vector<const mpn::Trajectory*> Members(size_t g) const;
  mpn::SessionTuning Tuning(size_t g) const;
  /// Timestamps group g is served for (horizon after retirement).
  size_t ServedTicks(size_t g) const;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`, with as many rounds as fit in
/// `seconds` on a 4-vCPU Xeon (at least two). `spill_dir` is the pinned
/// spill directory of budgeted workloads. Throws std::invalid_argument for
/// an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                      const std::string& spill_dir);

/// FNV-1a hash over every generated input (POI and trajectory coordinates
/// as bit patterns, group membership, retirements, samples).
uint64_t Fingerprint(const Workload& w);

}  // namespace perfbench
