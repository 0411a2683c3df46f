// Continuous-query simulation of one user group (Fig. 3 protocol).
//
// At every timestamp all clients advance along their trajectories. When a
// client leaves its safe region, it reports its location to the server
// (step 1); the server probes the remaining clients (step 2), recomputes
// the meeting point and per-user safe regions, and ships them back
// (step 3). Tile regions travel through the lossless codec so the client's
// view is exactly what the wire carries. The metrics are the three the
// paper reports: update frequency, communication cost (packets) and server
// running time, plus per-algorithm counters.
//
// Since the engine layer landed (src/engine), the per-timestamp state
// machine lives in engine/group_session.h; Simulator and RunGroups are thin
// fronts that drive a single-threaded Engine so the historical single-group
// API (and every test built on it) keeps working unchanged.
#pragma once

#include <vector>

#include "net/message.h"
#include "sim/client.h"
#include "sim/server.h"
#include "traj/trajectory.h"

namespace mpn {

/// Aggregated results of one simulation run.
struct SimMetrics {
  size_t timestamps = 0;       ///< ticks simulated
  size_t updates = 0;          ///< safe-region violations (step-1 triggers)
  size_t result_changes = 0;   ///< times the optimal meeting point changed
  CommAccounting comm;         ///< protocol traffic
  double server_seconds = 0.0; ///< total safe-region computation time
  MsrStats msr;                ///< accumulated algorithm counters

  /// Updates per timestamp (the paper's "update frequency").
  double UpdateFrequency() const {
    return timestamps == 0
               ? 0.0
               : static_cast<double>(updates) / static_cast<double>(timestamps);
  }

  /// Average safe-region computation time per update, in milliseconds.
  double AvgComputeMsPerUpdate() const {
    return updates == 0 ? 0.0 : server_seconds * 1e3 /
                                    static_cast<double>(updates);
  }

  /// Merges another run (for averaging across groups).
  void Merge(const SimMetrics& other);
};

/// Simulation options.
struct SimOptions {
  ServerConfig server;
  /// Verify after every recomputation that the reported meeting point is
  /// the true optimum for the current locations (integration-test mode;
  /// O(n*m) per update).
  bool check_correctness = false;
};

/// Runs the protocol for one group over its trajectories (a thin Engine
/// with one session and one thread).
class Simulator {
 public:
  /// All referenced data must outlive the simulator. All trajectories must
  /// be at least as long as the simulated horizon.
  Simulator(const std::vector<Point>* pois, const PackedRTree* tree,
            std::vector<const Trajectory*> group, const SimOptions& options);

  /// Runs to completion and returns the metrics.
  SimMetrics Run();

 private:
  const std::vector<Point>* pois_;
  const PackedRTree* tree_;
  std::vector<const Trajectory*> group_;
  SimOptions options_;
};

/// Convenience: runs every group and returns the group-averaged metrics
/// (the paper reports averages over 10 groups).
SimMetrics RunGroups(const std::vector<Point>& pois, const PackedRTree* tree,
                     const std::vector<std::vector<const Trajectory*>>& groups,
                     const SimOptions& options);

}  // namespace mpn
