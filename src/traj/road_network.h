// Road network substrate for the Brinkhoff-style trajectory generator.
//
// The paper's "Oldenburg" workload comes from Brinkhoff's network-based
// generator (GeoInformatica 2002): objects travel along shortest paths of a
// road network between random endpoints. We reproduce the model class with
// a synthetic network: a jittered grid with random diagonal shortcuts and
// random edge removals under a connectivity guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/rect.h"
#include "geom/vec2.h"
#include "index/ch.h"
#include "util/rng.h"

namespace mpn {

/// Undirected weighted graph embedded in the plane.
class RoadNetwork {
 public:
  /// One endpoint of the graph.
  struct NodeRef {
    uint32_t id;
  };

  /// Adds a node; returns its id.
  uint32_t AddNode(const Point& p);

  /// Adds an undirected edge; weight = Euclidean length.
  void AddEdge(uint32_t a, uint32_t b);

  size_t NodeCount() const { return nodes_.size(); }
  size_t EdgeCount() const { return edge_count_; }
  const Point& NodePos(uint32_t id) const { return nodes_[id]; }

  /// Neighbor list of node `id` as (neighbor, edge length) pairs.
  const std::vector<std::pair<uint32_t, double>>& Neighbors(
      uint32_t id) const {
    return adj_[id];
  }

  /// Dijkstra shortest path from `src` to `dst` as a node sequence
  /// (inclusive). Empty when unreachable.
  std::vector<uint32_t> ShortestPath(uint32_t src, uint32_t dst) const;

  /// Dijkstra shortest-path distance (the canonical left-fold of edge
  /// weights along the path); +infinity when unreachable. This is the
  /// correctness oracle the CH index must match bit-for-bit.
  double ShortestPathDistance(uint32_t src, uint32_t dst) const;

  /// Builds a Contraction Hierarchies index over this network. Preprocess
  /// once per scenario, then answer point-to-point / many-to-many queries
  /// orders of magnitude faster than per-query Dijkstra (see index/ch.h).
  CHIndex BuildCHIndex() const;

  /// True when the graph is connected (BFS reachability).
  bool IsConnected() const;

  /// Bounding box of all nodes.
  Rect Bounds() const;

  /// Generates a random connected network inside `world`:
  /// a rows x cols grid with positional jitter, random extra diagonals and
  /// random edge drops that keep the graph connected.
  static RoadNetwork RandomGrid(const Rect& world, int rows, int cols,
                                double jitter_frac, double diagonal_prob,
                                double drop_prob, Rng* rng);

 private:
  std::vector<Point> nodes_;
  std::vector<std::vector<std::pair<uint32_t, double>>> adj_;
  size_t edge_count_ = 0;
};

}  // namespace mpn
