// What one run of the Fig. 3 protocol reports, and how it is configured.
//
// At every timestamp all clients advance along their trajectories. When a
// client leaves its safe region, it reports its location to the server
// (step 1); the server probes the remaining clients (step 2), recomputes
// the meeting point and per-user safe regions, and ships them back
// (step 3). The per-timestamp state machine lives in
// engine/group_session.h and runs as a session on an Engine (or inside a
// ClusterEngine's workers); this file holds the two plain types every such
// run shares: the options a session is built with, and the metrics it
// reports — the paper's update frequency, communication cost (packets) and
// server running time, plus per-algorithm counters.
#pragma once

#include <cstddef>

#include "net/message.h"
#include "sim/server.h"

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
  void Merge(const SimMetrics& other) {
    timestamps += other.timestamps;
    updates += other.updates;
    result_changes += other.result_changes;
    comm.Merge(other.comm);
    server_seconds += other.server_seconds;
    msr.Merge(other.msr);
  }
};

/// Simulation options.
struct SimOptions {
  ServerConfig server;
  /// Verify after every recomputation that the reported meeting point is
  /// the true optimum for the current locations (integration-test mode;
  /// O(n*m) per update).
  bool check_correctness = false;
};

}  // namespace mpn
