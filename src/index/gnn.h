// Aggregate (group) nearest-neighbor search over the R-tree.
//
// Implements the MAX-GNN and SUM-GNN queries of Papadias et al. (ICDE 2004),
// which the paper uses as FindMaxGNN / FindSumGNN in Algorithm 1 and in the
// buffering optimization (Section 5.4 needs the best b+1 group nearest
// neighbors). The search is an incremental best-first traversal whose
// priority key for an index node is the aggregate of per-user MINDIST lower
// bounds, so results stream out in exact aggregate-distance order.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
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

/// Incremental best-first GNN cursor: Next() yields POIs in non-decreasing
/// aggregate distance order, ties broken by id (deterministic).
class GnnCursor {
 public:
  /// A result point with its aggregate distance.
  struct Item {
    uint32_t id = 0;
    Point p;
    double agg = 0.0;
  };

  /// The indexed tree must outlive the cursor. `users` is copied.
  GnnCursor(const PackedRTree* tree, std::vector<Point> users, Objective obj);

  /// Next best POI, or nullopt when exhausted.
  std::optional<Item> Next();

 private:
  struct Entry {
    double key;
    bool is_point;
    int32_t node;
    uint32_t id;
    Point p;
    bool operator>(const Entry& o) const {
      if (key != o.key) return key > o.key;
      if (is_point != o.is_point) return is_point && !o.is_point;
      return id > o.id;
    }
  };

  const PackedRTree* tree_;
  std::vector<Point> users_;
  Objective obj_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
};

/// Top-k aggregate nearest neighbors, best first. Returns fewer than k when
/// the dataset is smaller.
std::vector<GnnCursor::Item> FindGnn(const PackedRTree* tree,
                                     const std::vector<Point>& users,
                                     Objective obj, size_t k);

/// Brute-force reference (O(n*m)); used for validation and tiny inputs.
std::vector<GnnCursor::Item> FindGnnBruteForce(
    const std::vector<Point>& pois, const std::vector<Point>& users,
    Objective obj, size_t k);

}  // namespace mpn
