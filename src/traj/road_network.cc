#include "traj/road_network.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/macros.h"

namespace mpn {

uint32_t RoadNetwork::AddNode(const Point& p) {
  nodes_.push_back(p);
  adj_.emplace_back();
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void RoadNetwork::AddEdge(uint32_t a, uint32_t b) {
  MPN_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b);
  const double w = Dist(nodes_[a], nodes_[b]);
  adj_[a].push_back({b, w});
  adj_[b].push_back({a, w});
  ++edge_count_;
}

std::vector<uint32_t> RoadNetwork::ShortestPath(uint32_t src,
                                                uint32_t dst) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  std::vector<int64_t> prev(nodes_.size(), -1);
  using QE = std::pair<double, uint32_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
  dist[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (const auto& [v, w] : adj_[u]) {
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        pq.push({nd, v});
      }
    }
  }
  std::vector<uint32_t> path;
  if (dist[dst] == kInf) return path;
  for (int64_t v = dst; v >= 0; v = prev[v]) {
    path.push_back(static_cast<uint32_t>(v));
    if (static_cast<uint32_t>(v) == src) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double RoadNetwork::ShortestPathDistance(uint32_t src, uint32_t dst) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  using QE = std::pair<double, uint32_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
  dist[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == dst) return d;
    for (const auto& [v, w] : adj_[u]) {
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist[dst];
}

CHIndex RoadNetwork::BuildCHIndex() const {
  std::vector<CHIndex::InputEdge> edges;
  edges.reserve(edge_count_);
  for (uint32_t a = 0; a < nodes_.size(); ++a) {
    for (const auto& [b, w] : adj_[a]) {
      if (a < b) edges.push_back({a, b, w});
    }
  }
  return CHIndex::Build(nodes_.size(), edges);
}

bool RoadNetwork::IsConnected() const {
  if (nodes_.empty()) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::queue<uint32_t> q;
  q.push(0);
  seen[0] = true;
  size_t count = 1;
  while (!q.empty()) {
    const uint32_t u = q.front();
    q.pop();
    for (const auto& [v, w] : adj_[u]) {
      (void)w;
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        q.push(v);
      }
    }
  }
  return count == nodes_.size();
}

Rect RoadNetwork::Bounds() const {
  Rect b = Rect::Empty();
  for (const Point& p : nodes_) b.ExpandToInclude(p);
  return b;
}

RoadNetwork RoadNetwork::RandomGrid(const Rect& world, int rows, int cols,
                                    double jitter_frac, double diagonal_prob,
                                    double drop_prob, Rng* rng) {
  MPN_ASSERT(rows >= 2 && cols >= 2);
  RoadNetwork net;
  const double dx = world.Width() / (cols - 1);
  const double dy = world.Height() / (rows - 1);
  auto id_of = [cols](int r, int c) {
    return static_cast<uint32_t>(r * cols + c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double jx = rng->Uniform(-jitter_frac, jitter_frac) * dx;
      const double jy = rng->Uniform(-jitter_frac, jitter_frac) * dy;
      net.AddNode({world.lo.x + c * dx + jx, world.lo.y + r * dy + jy});
    }
  }
  // Horizontal and vertical edges; randomly dropped ones are collected and
  // re-added at the end if the graph fell apart.
  std::vector<std::pair<uint32_t, uint32_t>> dropped;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        if (rng->Bernoulli(drop_prob)) {
          dropped.push_back({id_of(r, c), id_of(r, c + 1)});
        } else {
          net.AddEdge(id_of(r, c), id_of(r, c + 1));
        }
      }
      if (r + 1 < rows) {
        if (rng->Bernoulli(drop_prob)) {
          dropped.push_back({id_of(r, c), id_of(r + 1, c)});
        } else {
          net.AddEdge(id_of(r, c), id_of(r + 1, c));
        }
      }
      if (r + 1 < rows && c + 1 < cols && rng->Bernoulli(diagonal_prob)) {
        net.AddEdge(id_of(r, c), id_of(r + 1, c + 1));
      }
    }
  }
  // Connectivity guarantee: restore dropped edges until connected.
  rng->Shuffle(&dropped);
  while (!net.IsConnected() && !dropped.empty()) {
    const auto [a, b] = dropped.back();
    dropped.pop_back();
    net.AddEdge(a, b);
  }
  MPN_ASSERT(net.IsConnected());
  return net;
}

}  // namespace mpn
