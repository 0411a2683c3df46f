// Meeting Point Notification in road-network space (Section 8 extension).
//
// Users and POIs live on network edges; distances are shortest-path
// lengths. The optimal meeting point minimizes the MAX or SUM of network
// distances; safe regions are *metric balls* of radius
//   rmax = (d2 - d1) / 2        (MAX)
//   rmax = (d2 - d1) / (2 m)    (SUM)
// materialized as road-segment interval sets. Soundness follows from the
// Theorem-1/5 proofs, which only use the triangle inequality and therefore
// hold in any metric space.
//
// Also ships a network trajectory generator (random-waypoint shortest-path
// movement tracked as edge positions) and a small continuous-notification
// simulator mirroring sim/simulator.h, so the extension can be evaluated
// with the same update-frequency methodology as the planar system.
#pragma once

#include <cstdint>
#include <vector>

#include "index/gnn.h"  // Objective
#include "netmpn/network_space.h"
#include "util/rng.h"

namespace mpn {

/// Result of one network safe-region computation.
struct NetworkMpnResult {
  uint32_t po_index = 0;   ///< index into the POI vector
  double po_agg = 0.0;     ///< aggregate network distance of the optimum
  double second_agg = 0.0; ///< aggregate of the runner-up
  double rmax = 0.0;       ///< metric-ball radius
  std::vector<NetworkBall> regions;  ///< one ball per user
};

/// Network-space MPN engine.
class NetworkMpn {
 public:
  /// The space must outlive the engine; POIs are fixed at construction.
  /// When the space has a CH index attached, the POI edge endpoints are
  /// precomputed into a CH target set once, and every group query becomes
  /// one many-to-many batch instead of one Dijkstra per user.
  NetworkMpn(const NetworkSpace* space, std::vector<EdgePosition> pois);

  const std::vector<EdgePosition>& pois() const { return pois_; }

  /// Aggregate network distance of POI `j` to the users, given per-user
  /// node-distance tables (the Dijkstra correctness oracle).
  double AggNetworkDist(size_t poi_index,
                        const std::vector<std::vector<double>>& node_dists,
                        const std::vector<EdgePosition>& users,
                        Objective obj) const;

  /// users x pois network-distance matrix: one CH batch per user when the
  /// space has an index, else one Dijkstra per user. Bit-identical values
  /// either way.
  std::vector<std::vector<double>> UserPoiDistances(
      const std::vector<EdgePosition>& users) const;

  /// One ranked POI of a group->POI aggregate query.
  struct PoiRank {
    uint32_t poi_index;
    double agg;
  };

  /// The k POIs with the smallest aggregate network distance (ascending,
  /// ties by index) — the network GNN query, CH-accelerated when an index
  /// is attached.
  std::vector<PoiRank> NearestPOIs(const std::vector<EdgePosition>& users,
                                   Objective obj, size_t k) const;

  /// Computes the optimal meeting point and metric-ball safe regions
  /// (exact; scans the POIs via UserPoiDistances).
  NetworkMpnResult Compute(const std::vector<EdgePosition>& users,
                           Objective obj) const;

 private:
  /// (Re)builds the cached POI target set when the space's index changed.
  /// Lazy and not thread-safe on first use; call once up front (any query
  /// does) before sharing the engine across threads.
  void EnsurePoiTargets() const;

  const NetworkSpace* space_;
  std::vector<EdgePosition> pois_;
  mutable const CHIndex* target_index_ = nullptr;
  mutable CHIndex::TargetSet poi_targets_;
  // Per POI: indices of its edge endpoints (a, b) in the target set.
  mutable std::vector<std::pair<uint32_t, uint32_t>> poi_slots_;
};

/// A trajectory over the network: one edge position per timestamp.
struct NetworkTrajectory {
  std::vector<EdgePosition> positions;
  size_t size() const { return positions.size(); }
};

/// Random-waypoint movement along shortest paths (the Brinkhoff model in
/// network coordinates).
NetworkTrajectory GenerateNetworkTrajectory(const NetworkSpace& space,
                                            const RoadNetwork& network,
                                            double speed, size_t timestamps,
                                            Rng* rng);

/// Samples a uniform-ish random edge position.
EdgePosition RandomEdgePosition(const NetworkSpace& space, Rng* rng);

/// Metrics of a network MPN simulation run.
struct NetworkSimMetrics {
  size_t timestamps = 0;
  size_t updates = 0;
  size_t result_changes = 0;
  size_t region_values = 0;  ///< total safe-region values shipped

  double UpdateFrequency() const {
    return timestamps == 0
               ? 0.0
               : static_cast<double>(updates) / static_cast<double>(timestamps);
  }
};

/// Runs the continuous-notification protocol over network trajectories with
/// metric-ball safe regions.
NetworkSimMetrics SimulateNetworkMpn(
    const NetworkMpn& engine,
    const std::vector<const NetworkTrajectory*>& group, Objective obj);

}  // namespace mpn
