#include "mpn/cost_model.h"

#include <algorithm>

#include "mpn/circle_msr.h"
#include "util/macros.h"

namespace mpn {

double PacketsPerUpdate(size_t m, size_t region_values,
                        const PacketModel& model) {
  MPN_ASSERT(m >= 1);
  // Step 1: one location update; step 2: (m-1) probes + (m-1) replies;
  // step 3: m results of (po + region) values.
  double packets = static_cast<double>(model.PacketsForValues(
      kValuesPerPoint + kValuesPerMotionHint));
  packets += static_cast<double>((m - 1) * (model.PacketsForValues(0) +
                                            model.PacketsForValues(
                                                kValuesPerPoint +
                                                kValuesPerMotionHint)));
  packets += static_cast<double>(
      m * model.PacketsForValues(kValuesPerPoint + region_values));
  return packets;
}

CircleCostEstimate EstimateCircleCost(
    const PackedRTree* tree, const std::vector<std::vector<Point>>& configs,
    Objective obj, double speed, const PacketModel& model) {
  MPN_ASSERT(!configs.empty());
  MPN_ASSERT(speed > 0.0);
  CircleCostEstimate out;
  double freq_sum = 0.0, rmax_sum = 0.0;
  size_t m = configs.front().size();
  for (const auto& users : configs) {
    MPN_ASSERT(users.size() == m);
    const auto top2 = FindGnn(tree, users, obj, 2);
    const double rmax =
        top2.size() < 2
            ? 1e15
            : MaxCircleRadius(top2[0].agg, top2[1].agg, m, obj);
    rmax_sum += std::min(rmax, 1e15);
    // Escape after ~rmax/speed timestamps, floored at one tick.
    const double escape_ticks = std::max(1.0, rmax / speed);
    freq_sum += 1.0 / escape_ticks;
  }
  out.update_frequency = freq_sum / static_cast<double>(configs.size());
  out.mean_rmax = rmax_sum / static_cast<double>(configs.size());
  out.packets_per_update = PacketsPerUpdate(m, kValuesPerCircle, model);
  out.packets_per_timestamp = out.update_frequency * out.packets_per_update;
  return out;
}

}  // namespace mpn
