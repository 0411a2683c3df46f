// Aggregate (group) nearest-neighbor search over the R-tree.
//
// Implements the MAX-GNN and SUM-GNN queries of Papadias et al. (ICDE 2004),
// which the paper uses as FindMaxGNN / FindSumGNN in Algorithm 1 and in the
// buffering optimization (Section 5.4 needs the best b+1 group nearest
// neighbors). FindGnn is a best-first traversal whose priority key for an
// index node is the aggregate of per-user MINDIST lower bounds, bounded by
// the k-th result: it never keeps an entry that could only pop after the
// k-th result (docs/ARCHITECTURE.md §1), so it reads exactly the nodes an
// unbounded best-first search reads before its k-th pop. It scores a
// popped node's children, or a leaf's points, as one run of the tree's SoA
// lanes, and queues nodes only; points wait in a sorted k-best array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/packed_rtree.h"

namespace mpn {

/// Aggregate objective for the meeting point (Definitions 2 and 8).
enum class Objective {
  kMax,  ///< minimize max_i ||p, u_i|| (MPN / MAX-GNN)
  kSum,  ///< minimize sum_i ||p, u_i|| (Sum-MPN / SUM-GNN)
};

/// Human-readable objective name.
const char* ObjectiveName(Objective obj);

/// Aggregate distance ||p, U||_agg of point p to the user set.
double AggDist(const Point& p, const std::vector<Point>& users, Objective obj);

/// Lower bound of the aggregate distance for any point inside `mbr`.
double AggMinDist(const Rect& mbr, const std::vector<Point>& users,
                  Objective obj);

/// Upper bound of the aggregate distance for any point inside `mbr`:
/// AggDist(p) <= AggMaxDist(mbr) holds exactly in floating point for every
/// p in mbr (each per-axis term of Rect::MaxDist dominates |p - u| under
/// correct rounding, and max, + and sqrt are monotone).
double AggMaxDist(const Rect& mbr, const std::vector<Point>& users,
                  Objective obj);

/// A result point with its aggregate distance.
struct GnnItem {
  uint32_t id = 0;
  Point p;
  double agg = 0.0;
};

/// Top-k aggregate nearest neighbors: the k smallest (agg, id) pairs, best
/// first. Returns fewer than k when the dataset is smaller. Reads exactly
/// the nodes whose key is at most the k-th result's (all nodes when the
/// dataset is smaller than k), so the node-access counter is a function of
/// the tree, the users and k. Allocates only the result vector; the node
/// queue and the k-best array live in per-thread storage.
std::vector<GnnItem> FindGnn(const PackedRTree* tree,
                             const std::vector<Point>& users, Objective obj,
                             size_t k);

/// Brute-force reference (O(n*m)); used for validation and tiny inputs.
std::vector<GnnItem> FindGnnBruteForce(const std::vector<Point>& pois,
                                       const std::vector<Point>& users,
                                       Objective obj, size_t k);

}  // namespace mpn
