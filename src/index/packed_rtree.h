// Static STR bulk-loaded R-tree over points, in a packed flat layout.
//
// This is the index the paper assumes over the static POI set P (Section
// 3.1). It serves two query shapes: the pruned Traverse behind the
// Theorem-3/6 candidate retrieval (mpn/candidates.cc) and the run access
// behind the bounded best-first group-nearest-neighbor search
// (index/gnn.h).
//
// Shape. Build is sort-tile-recursive at every level:
//  * Leaves: the points are sorted by (x, y, id), cut into ceil(sqrt(L))
//    vertical slices of equal point count (L = ceil(n / kFanout)), each
//    slice is sorted by (y, x, id) and cut into leaves of kFanout points;
//    a slice's last leaf may be short.
//  * Upper levels: the level below is re-tiled the same way by node-MBR
//    centre — sort by (cx, cy), slice, sort each slice by (cy, cx), cut
//    runs of kFanout — until one node is left. These two sorts have no id
//    tie-break, so nodes with equal centres keep whatever order std::sort
//    leaves them in; the reference builder in the tests relies on that.
// Tiling every level keeps sibling MBRs compact; grouping runs of
// consecutive nodes instead costs the pruned traversals 1.4-1.65x the node
// accesses (docs/ARCHITECTURE.md §1b).
//
// Layout. Nodes are ids into parallel arrays, level by level: leaves
// occupy ids [0, leaf_count), each upper level follows the one below it,
// and the root is the last node. A node is a leaf iff its id < leaf_count.
// Each level is laid out in its parents' order, so a node's entries —
// child nodes or point slots — are the contiguous run [first, first +
// count), and points are stored in leaf order. The arrays are SoA: node
// MBRs as lo_x/lo_y/hi_x/hi_y plus first/count, points as x/y plus ids.
// A popped node's children or a leaf's points are then one run of
// contiguous lanes per coordinate, which the GNN search scores in one
// vectorized loop per user (index/gnn.cc). No per-node allocation, no
// parent pointers.
//
// The shape and the child order are a pure function of the input points,
// so every Traverse and every GNN search visits the same nodes in the same
// order on every run; the node-access counters the benches report are
// exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "geom/lanes.h"
#include "geom/rect.h"
#include "geom/vec2.h"
#include "util/macros.h"

namespace mpn {

namespace internal {
/// Node-access counter, kept thread-local so that concurrent read-only
/// queries over a shared tree (the engine runs per-group recompute jobs on
/// a thread pool) neither race nor bleed into each other's accounting: a
/// before/after delta taken on one thread counts exactly the accesses of
/// the work that ran between the two reads on that thread. The counter is
/// shared by all trees a thread touches; delta-based accounting (the only
/// consumer, see mpn/tile_msr.cc) is unaffected as long as one computation
/// queries one tree, which holds everywhere in this codebase.
inline thread_local uint64_t tls_rtree_node_accesses = 0;

/// Leases a cleared DFS stack from a per-thread pool. Traversals used to
/// construct a std::vector per call, and the candidate loop issues one
/// pruned traversal per tile per recompute — per-call construction was
/// steady-state allocator churn in the hottest loop. The pool is a deque
/// so a nested traversal (a predicate that itself queries an index) gets a
/// distinct stack without invalidating outstanding references; the stacks
/// keep their capacity across queries.
class TraversalStackLease {
 public:
  TraversalStackLease() : stack_(Acquire()) { stack_.clear(); }
  ~TraversalStackLease() { --Pool().depth; }
  TraversalStackLease(const TraversalStackLease&) = delete;
  TraversalStackLease& operator=(const TraversalStackLease&) = delete;

  std::vector<int32_t>& operator*() const { return stack_; }

 private:
  struct StackPool {
    std::deque<std::vector<int32_t>> stacks;
    size_t depth = 0;
  };
  static StackPool& Pool() {
    static thread_local StackPool pool;
    return pool;
  }
  static std::vector<int32_t>& Acquire() {
    StackPool& pool = Pool();
    if (pool.depth == pool.stacks.size()) pool.stacks.emplace_back();
    return pool.stacks[pool.depth++];
  }

  std::vector<int32_t>& stack_;
};
}  // namespace internal

/// Immutable packed R-tree over points; payloads are the 32-bit input
/// indices. Copyable and cheaply movable (flat vectors).
class PackedRTree {
 public:
  /// Points per leaf and children per internal node (at most).
  static constexpr size_t kFanout = 32;

  /// Empty tree (size() == 0, root() < 0).
  PackedRTree() = default;

  /// STR bulk load (see the file comment); ids are 0..points.size()-1.
  static PackedRTree Build(const std::vector<Point>& points);

  /// Number of points stored.
  size_t size() const { return ids_.size(); }

  /// True when no points are stored.
  bool empty() const { return ids_.empty(); }

  /// Guided depth-first traversal. Descends into a child iff
  /// `mbr_pred(child_mbr)` is true; calls `point_fn(point, id)` for every
  /// entry of a reached leaf. Children are pushed in order and popped last
  /// first. Used to implement the paper's pruned candidate retrieval.
  template <typename MbrPred, typename PointFn>
  void Traverse(MbrPred&& mbr_pred, PointFn&& point_fn) const {
    if (root_ < 0) return;
    internal::TraversalStackLease lease;
    std::vector<int32_t>& stack = *lease;
    stack.push_back(root_);
    while (!stack.empty()) {
      const int32_t idx = stack.back();
      stack.pop_back();
      ++internal::tls_rtree_node_accesses;
      const int32_t end = first_[idx] + count_[idx];
      if (idx < leaf_count_) {
        for (int32_t i = first_[idx]; i < end; ++i) {
          point_fn(PointAt(i), ids_[i]);
        }
      } else {
        for (int32_t i = first_[idx]; i < end; ++i) {
          if (mbr_pred(MbrAt(i))) stack.push_back(i);
        }
      }
    }
  }

  // Run access for best-first searches (index/gnn.h). Node handles are
  // int32 ids; -1 means "no node". Point slots are positions in the
  // leaf-order payload, [0, size()). Reading a run counts one node access,
  // as Traverse counts each node it visits.

  /// Root node handle; -1 when empty.
  int32_t root() const { return root_; }

  /// True when the handle refers to a leaf.
  bool IsLeafNode(int32_t node) const { return node < leaf_count_; }

  /// An internal node's children: lane i is child node `first + i`, with
  /// MBR lane i of `mbrs` and `count[i]` entries (a leaf child's entry
  /// count is its number of points).
  struct ChildRun {
    int32_t first = 0;
    RectLanes mbrs;
    const int32_t* count = nullptr;
  };

  /// A leaf's points: lane i is point slot `first + i`, at (x[i], y[i]),
  /// with id ids[i].
  struct PointRun {
    int32_t first = 0;
    size_t n = 0;
    const double* x = nullptr;
    const double* y = nullptr;
    const uint32_t* ids = nullptr;
  };

  /// The children of internal node `node`; one node access.
  ChildRun Children(int32_t node) const {
    ++internal::tls_rtree_node_accesses;
    MPN_DCHECK(!IsLeafNode(node));
    const int32_t f = first_[node];
    return {f,
            {&lo_x_[f], &lo_y_[f], &hi_x_[f], &hi_y_[f],
             static_cast<size_t>(count_[node])},
            &count_[f]};
  }

  /// The points of leaf `node`; one node access.
  PointRun LeafPoints(int32_t node) const {
    ++internal::tls_rtree_node_accesses;
    MPN_DCHECK(IsLeafNode(node));
    const int32_t f = first_[node];
    return {f, static_cast<size_t>(count_[node]), &x_[f], &y_[f], &ids_[f]};
  }

  /// The point stored in `slot`. Not a node access: the search reading it
  /// has already counted the slot's leaf.
  Point PointAt(int32_t slot) const { return {x_[slot], y_[slot]}; }

  /// Cumulative count of node visits across all queries issued by the
  /// calling thread (profiling aid for the buffering experiments,
  /// Fig. 16/19). Thread-local; see internal::tls_rtree_node_accesses.
  uint64_t node_accesses() const { return internal::tls_rtree_node_accesses; }

  /// Resets the calling thread's node-access counter.
  void ResetNodeAccesses() const { internal::tls_rtree_node_accesses = 0; }

  /// Validates the layout: children are contiguous and precede their
  /// parent, every node but the root has exactly one parent, MBRs are
  /// exact, every leaf has the same depth, every id appears once, and each
  /// node holds 1..kFanout entries. Aborts on violation; used by tests.
  void CheckInvariants() const;

 private:
  Rect MbrAt(int32_t node) const {
    return Rect({lo_x_[node], lo_y_[node]}, {hi_x_[node], hi_y_[node]});
  }

  int32_t root_ = -1;
  int32_t leaf_count_ = 0;
  // Nodes by id: the MBR, and the entries [first, first + count) — child
  // ids (internal) or point slots (leaf).
  std::vector<double> lo_x_, lo_y_, hi_x_, hi_y_;
  std::vector<int32_t> first_, count_;
  // Point payload in leaf order, by slot.
  std::vector<double> x_, y_;
  std::vector<uint32_t> ids_;
};

}  // namespace mpn
