#include "netmpn/network_mpn.h"

#include <algorithm>

#include "util/macros.h"

namespace mpn {

NetworkMpn::NetworkMpn(const NetworkSpace* space,
                       std::vector<EdgePosition> pois)
    : space_(space), pois_(std::move(pois)) {
  MPN_ASSERT(space_ != nullptr);
  MPN_ASSERT(!pois_.empty());
  for (const EdgePosition& p : pois_) MPN_ASSERT(space_->IsValid(p));
  EnsurePoiTargets();
}

void NetworkMpn::EnsurePoiTargets() const {
  const CHIndex* index = space_->index();
  if (index == target_index_) return;
  poi_slots_.clear();
  poi_targets_ = CHIndex::TargetSet();
  if (index != nullptr) {
    // Deduplicated POI edge endpoints; the backward searches and buckets
    // are computed once here and reused by every group query.
    std::vector<uint32_t> targets;
    std::vector<uint32_t> slot_of(space_->NodeCount(), 0xFFFFFFFFu);
    auto slot = [&](uint32_t node) -> uint32_t {
      if (slot_of[node] == 0xFFFFFFFFu) {
        slot_of[node] = static_cast<uint32_t>(targets.size());
        targets.push_back(node);
      }
      return slot_of[node];
    };
    poi_slots_.reserve(pois_.size());
    for (const EdgePosition& p : pois_) {
      const NetworkSpace::Edge& e = space_->edge(p.edge_id);
      poi_slots_.push_back({slot(e.a), slot(e.b)});
    }
    poi_targets_ = index->MakeTargetSet(targets);
  }
  // Published last, so a rebuild in flight can never satisfy another
  // caller's cache check while the slot/bucket data is still half-built.
  target_index_ = index;
}

std::vector<std::vector<double>> NetworkMpn::UserPoiDistances(
    const std::vector<EdgePosition>& users) const {
  std::vector<std::vector<double>> matrix(users.size());
  EnsurePoiTargets();
  if (target_index_ != nullptr) {
    // One CH many-to-many batch per user against the precomputed POI
    // endpoint buckets.
    std::vector<double> node_d;
    for (size_t i = 0; i < users.size(); ++i) {
      space_->DistancesToTargets(users[i], poi_targets_, &node_d);
      std::vector<double>& row = matrix[i];
      row.resize(pois_.size());
      for (size_t j = 0; j < pois_.size(); ++j) {
        const EdgePosition& p = pois_[j];
        const NetworkSpace::Edge& e = space_->edge(p.edge_id);
        double d = std::min(node_d[poi_slots_[j].first] + p.offset,
                            node_d[poi_slots_[j].second] +
                                (e.length - p.offset));
        if (p.edge_id == users[i].edge_id) {
          d = std::min(d, std::abs(p.offset - users[i].offset));
        }
        row[j] = d;
      }
    }
  } else {
    for (size_t i = 0; i < users.size(); ++i) {
      const std::vector<double> nd = space_->NodeDistancesFrom(users[i]);
      std::vector<double>& row = matrix[i];
      row.resize(pois_.size());
      for (size_t j = 0; j < pois_.size(); ++j) {
        row[j] = space_->DistanceVia(nd, users[i], pois_[j]);
      }
    }
  }
  return matrix;
}

namespace {

/// Aggregate of POI j's column of the users x pois distance matrix,
/// accumulated in user order — the same fold AggNetworkDist performs, so
/// the matrix paths stay bit-identical to the oracle.
double AggFromMatrix(const std::vector<std::vector<double>>& matrix,
                     size_t poi_index, Objective obj) {
  double agg = 0.0;
  for (size_t i = 0; i < matrix.size(); ++i) {
    const double d = matrix[i][poi_index];
    agg = obj == Objective::kMax ? std::max(agg, d) : agg + d;
  }
  return agg;
}

}  // namespace

std::vector<NetworkMpn::PoiRank> NetworkMpn::NearestPOIs(
    const std::vector<EdgePosition>& users, Objective obj, size_t k) const {
  MPN_ASSERT(!users.empty());
  const std::vector<std::vector<double>> matrix = UserPoiDistances(users);
  std::vector<PoiRank> ranks;
  ranks.reserve(pois_.size());
  for (size_t j = 0; j < pois_.size(); ++j) {
    ranks.push_back({static_cast<uint32_t>(j), AggFromMatrix(matrix, j, obj)});
  }
  std::sort(ranks.begin(), ranks.end(),
            [](const PoiRank& x, const PoiRank& y) {
              if (x.agg != y.agg) return x.agg < y.agg;
              return x.poi_index < y.poi_index;
            });
  if (ranks.size() > k) ranks.resize(k);
  return ranks;
}

double NetworkMpn::AggNetworkDist(
    size_t poi_index, const std::vector<std::vector<double>>& node_dists,
    const std::vector<EdgePosition>& users, Objective obj) const {
  const EdgePosition& p = pois_[poi_index];
  double agg = 0.0;
  for (size_t i = 0; i < users.size(); ++i) {
    const double d = space_->DistanceVia(node_dists[i], users[i], p);
    agg = obj == Objective::kMax ? std::max(agg, d) : agg + d;
  }
  return agg;
}

NetworkMpnResult NetworkMpn::Compute(const std::vector<EdgePosition>& users,
                                     Objective obj) const {
  MPN_ASSERT(!users.empty());
  // CH batch when the space has an index, per-user Dijkstra otherwise;
  // the matrix (and so the result) is bit-identical either way.
  const std::vector<std::vector<double>> matrix = UserPoiDistances(users);
  NetworkMpnResult out;
  double best = 0.0, second = 0.0;
  size_t best_idx = 0;
  bool have_best = false, have_second = false;
  for (size_t j = 0; j < pois_.size(); ++j) {
    const double agg = AggFromMatrix(matrix, j, obj);
    if (!have_best || agg < best) {
      second = best;
      have_second = have_best;
      best = agg;
      best_idx = j;
      have_best = true;
    } else if (!have_second || agg < second) {
      second = agg;
      have_second = true;
    }
  }
  out.po_index = static_cast<uint32_t>(best_idx);
  out.po_agg = best;
  out.second_agg = have_second ? second : best;
  if (!have_second) {
    // Single POI: the result can never change; an "infinite" ball would be
    // the whole network.
    out.rmax = 1e15;
  } else {
    const double gap = std::max(0.0, second - best);
    out.rmax = obj == Objective::kMax
                   ? gap / 2.0
                   : gap / (2.0 * static_cast<double>(users.size()));
  }
  out.regions.reserve(users.size());
  for (const EdgePosition& u : users) {
    out.regions.push_back(space_->Ball(u, out.rmax));
  }
  return out;
}

EdgePosition RandomEdgePosition(const NetworkSpace& space, Rng* rng) {
  const uint32_t id = static_cast<uint32_t>(
      rng->UniformInt(0, static_cast<int64_t>(space.EdgeCount()) - 1));
  return {id, rng->Uniform(0.0, space.edge(id).length)};
}

NetworkTrajectory GenerateNetworkTrajectory(const NetworkSpace& space,
                                            const RoadNetwork& network,
                                            double speed, size_t timestamps,
                                            Rng* rng) {
  NetworkTrajectory out;
  out.positions.reserve(timestamps);
  uint32_t node = static_cast<uint32_t>(
      rng->UniformInt(0, static_cast<int64_t>(network.NodeCount()) - 1));
  std::vector<uint32_t> path;
  size_t path_pos = 0;

  // Current leg: moving from `leg_from` to `leg_to` along their edge.
  uint32_t leg_from = node, leg_to = node;
  double leg_len = 0.0, leg_done = 0.0;

  auto pick_route = [&]() {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const uint32_t dst = static_cast<uint32_t>(
          rng->UniformInt(0, static_cast<int64_t>(network.NodeCount()) - 1));
      if (dst == node) continue;
      path = network.ShortestPath(node, dst);
      if (path.size() >= 2) {
        path_pos = 1;
        return true;
      }
    }
    return false;
  };

  auto next_leg = [&]() -> bool {
    if (path_pos >= path.size()) return false;
    leg_from = node;
    leg_to = path[path_pos++];
    leg_len = 0.0;
    for (const auto& [v, w] : network.Neighbors(leg_from)) {
      if (v == leg_to) {
        leg_len = w;
        break;
      }
    }
    leg_done = 0.0;
    node = leg_to;
    return true;
  };

  auto current_pos = [&]() -> EdgePosition {
    if (leg_from == leg_to) {  // parked at a node: use any incident edge
      for (uint32_t id = 0; id < space.EdgeCount(); ++id) {
        const auto& e = space.edge(id);
        if (e.a == leg_from) return {id, 0.0};
        if (e.b == leg_from) return {id, e.length};
      }
      return {0, 0.0};
    }
    const uint32_t id = space.EdgeBetween(leg_from, leg_to);
    const auto& e = space.edge(id);
    // Offsets are measured from the canonical endpoint `a`.
    return leg_from == e.a ? EdgePosition{id, leg_done}
                           : EdgePosition{id, e.length - leg_done};
  };

  pick_route();
  next_leg();
  for (size_t t = 0; t < timestamps; ++t) {
    out.positions.push_back(current_pos());
    double budget = speed;
    while (budget > 0.0 && leg_from != leg_to) {
      const double remaining = leg_len - leg_done;
      if (remaining <= budget) {
        budget -= remaining;
        if (!next_leg()) {
          if (!pick_route() || !next_leg()) {
            leg_from = leg_to;  // park
            break;
          }
        }
      } else {
        leg_done += budget;
        budget = 0.0;
      }
    }
    if (leg_from == leg_to && !path.empty() && path_pos >= path.size()) {
      // Arrived: pick a fresh destination for the next tick.
      if (pick_route()) next_leg();
    }
  }
  return out;
}

NetworkSimMetrics SimulateNetworkMpn(
    const NetworkMpn& engine,
    const std::vector<const NetworkTrajectory*>& group, Objective obj) {
  MPN_ASSERT(!group.empty());
  NetworkSimMetrics metrics;
  size_t horizon = group.front()->size();
  for (const NetworkTrajectory* t : group) {
    horizon = std::min(horizon, t->size());
  }
  std::vector<NetworkBall> regions;
  bool has_result = false;
  uint32_t current_po = 0;
  for (size_t t = 0; t < horizon; ++t) {
    ++metrics.timestamps;
    std::vector<EdgePosition> locations;
    locations.reserve(group.size());
    for (const NetworkTrajectory* traj : group) {
      locations.push_back(traj->positions[t]);
    }
    bool violated = !has_result;
    if (has_result) {
      for (size_t i = 0; i < locations.size(); ++i) {
        if (!regions[i].Contains(locations[i])) {
          violated = true;
          break;
        }
      }
    }
    if (violated) {
      ++metrics.updates;
      NetworkMpnResult result = engine.Compute(locations, obj);
      if (has_result && result.po_index != current_po) {
        ++metrics.result_changes;
      }
      current_po = result.po_index;
      has_result = true;
      regions = std::move(result.regions);
      for (const NetworkBall& b : regions) {
        metrics.region_values += b.ValueCount();
      }
    }
  }
  return metrics;
}

}  // namespace mpn
