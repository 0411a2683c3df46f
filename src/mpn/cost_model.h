// Analytical cost model (the paper's Section-8 future work: "develop a
// cost model for estimating the update frequency, the communication cost,
// and the running time of our methods").
//
// The model targets the circle method, whose geometry is closed-form: a
// user escapes her circle of radius rmax after traveling ~rmax, i.e. after
// ~rmax / v timestamps under near-straight movement. Sampling group
// configurations from the workload yields the distribution of rmax
// (half the gap between the best and second-best aggregate distances);
// the expected update frequency is then
//
//   freq ~= E[ 1 / max(1, rmax / v) ]
//
// (the max() accounts for the one-timestamp floor: a region smaller than
// one step forces an update every tick). Communication cost follows
// deterministically from the protocol arithmetic: an update costs
// 1 + 2(m-1) packets of probing plus m result packets.
#pragma once

#include <cstddef>
#include <vector>

#include "index/gnn.h"
#include "net/message.h"

namespace mpn {

/// Closed-form estimates for the circle method.
struct CircleCostEstimate {
  double update_frequency = 0.0;   ///< expected updates per timestamp
  double packets_per_update = 0.0; ///< protocol packets per update
  double packets_per_timestamp = 0.0;
  double mean_rmax = 0.0;          ///< sampled mean safe radius
};

/// Estimates circle-method costs from `configs` — sampled instantaneous
/// group configurations (user location vectors drawn from the workload) —
/// and the per-timestamp user speed `v`.
CircleCostEstimate EstimateCircleCost(
    const PackedRTree* tree, const std::vector<std::vector<Point>>& configs,
    Objective obj, double speed, const PacketModel& model = PacketModel());

/// Protocol packets per update for a group of size m when every safe region
/// ships `region_values` values (Fig. 3 arithmetic; exact, not estimated).
double PacketsPerUpdate(size_t m, size_t region_values,
                        const PacketModel& model = PacketModel());

}  // namespace mpn
