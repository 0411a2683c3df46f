// Test-only reference for the packed R-tree's shape: a pointer-based
// R-tree with per-node heap vectors, STR bulk-loaded level by level as
// below, with PackedRTree's traversal and node-access primitives (minus
// the child entry counts and point slots PackedRTree's callbacks add).
// PackedRTree::Build must reproduce this tree — height, nodes per level,
// child order — so that every traversal visits the same nodes in the same
// order (packed_rtree_test.cc); the benches' node-access counters and the
// result digests are pinned to this shape.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "geom/rect.h"
#include "geom/vec2.h"
#include "index/packed_rtree.h"
#include "util/macros.h"

namespace mpn {
namespace reference {

class RTree {
 public:
  /// STR bulk load; ids are 0..points.size()-1.
  static RTree BulkLoad(const std::vector<Point>& points) {
    RTree tree;
    const size_t n = points.size();
    if (n == 0) return tree;
    const size_t cap = PackedRTree::kFanout;

    // Sort ids by x, slice, sort slices by y, pack leaves (STR).
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (points[a].x != points[b].x) return points[a].x < points[b].x;
      if (points[a].y != points[b].y) return points[a].y < points[b].y;
      return a < b;
    });
    const size_t leaf_count = (n + cap - 1) / cap;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(leaf_count))));
    const size_t slice_size = (n + slices - 1) / slices;
    std::vector<int32_t> level;  // node handles of the current level
    for (size_t s = 0; s < slices; ++s) {
      const size_t begin = s * slice_size;
      if (begin >= n) break;
      const size_t end = std::min(begin + slice_size, n);
      std::sort(order.begin() + begin, order.begin() + end,
                [&](uint32_t a, uint32_t b) {
                  if (points[a].y != points[b].y) {
                    return points[a].y < points[b].y;
                  }
                  if (points[a].x != points[b].x) {
                    return points[a].x < points[b].x;
                  }
                  return a < b;
                });
      for (size_t i = begin; i < end; i += cap) {
        const int32_t h = static_cast<int32_t>(tree.nodes_.size());
        tree.nodes_.push_back(Node{});
        Node& leaf = tree.nodes_.back();
        for (size_t j = i; j < std::min(i + cap, end); ++j) {
          leaf.points.push_back(points[order[j]]);
          leaf.ids.push_back(order[j]);
        }
        level.push_back(h);
      }
    }

    // Build internal levels by packing node MBR centers with the same STR.
    while (level.size() > 1) {
      std::vector<Point> centers;
      centers.reserve(level.size());
      for (int32_t h : level) centers.push_back(tree.NodeMbr(h).Center());
      std::vector<uint32_t> idx(level.size());
      std::iota(idx.begin(), idx.end(), 0);
      std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
        if (centers[a].x != centers[b].x) return centers[a].x < centers[b].x;
        return centers[a].y < centers[b].y;
      });
      const size_t m = level.size();
      const size_t parent_count = (m + cap - 1) / cap;
      const size_t pslices = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(parent_count))));
      const size_t pslice_size = (m + pslices - 1) / pslices;
      std::vector<int32_t> next_level;
      for (size_t s = 0; s < pslices; ++s) {
        const size_t begin = s * pslice_size;
        if (begin >= m) break;
        const size_t end = std::min(begin + pslice_size, m);
        std::sort(idx.begin() + begin, idx.begin() + end,
                  [&](uint32_t a, uint32_t b) {
                    if (centers[a].y != centers[b].y) {
                      return centers[a].y < centers[b].y;
                    }
                    return centers[a].x < centers[b].x;
                  });
        for (size_t i = begin; i < end; i += cap) {
          const int32_t h = static_cast<int32_t>(tree.nodes_.size());
          tree.nodes_.push_back(Node{});
          tree.nodes_[h].is_leaf = false;
          for (size_t j = i; j < std::min(i + cap, end); ++j) {
            const int32_t child = level[idx[j]];
            tree.nodes_[h].children.push_back(child);
            tree.nodes_[h].child_mbrs.push_back(tree.NodeMbr(child));
          }
          next_level.push_back(h);
        }
      }
      level = std::move(next_level);
    }
    tree.root_ = level.empty() ? -1 : level.front();
    return tree;
  }

  /// Same contract as PackedRTree::Traverse.
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
      const Node& node = nodes_[idx];
      if (node.is_leaf) {
        for (size_t i = 0; i < node.points.size(); ++i) {
          point_fn(node.points[i], node.ids[i]);
        }
      } else {
        for (size_t i = 0; i < node.children.size(); ++i) {
          if (mbr_pred(node.child_mbrs[i])) stack.push_back(node.children[i]);
        }
      }
    }
  }

  int32_t root() const { return root_; }

  bool IsLeafNode(int32_t node) const { return nodes_[node].is_leaf; }

  template <typename Fn>
  void ForEachChild(int32_t node, Fn&& fn) const {
    ++internal::tls_rtree_node_accesses;
    const Node& n = nodes_[node];
    MPN_ASSERT(!n.is_leaf);
    for (size_t i = 0; i < n.children.size(); ++i) {
      fn(n.children[i], n.child_mbrs[i]);
    }
  }

  template <typename Fn>
  void ForEachLeafEntry(int32_t node, Fn&& fn) const {
    ++internal::tls_rtree_node_accesses;
    const Node& n = nodes_[node];
    MPN_ASSERT(n.is_leaf);
    for (size_t i = 0; i < n.points.size(); ++i) fn(n.points[i], n.ids[i]);
  }

 private:
  struct Node {
    bool is_leaf = true;
    // Leaf payload.
    std::vector<Point> points;
    std::vector<uint32_t> ids;
    // Internal payload.
    std::vector<int32_t> children;
    std::vector<Rect> child_mbrs;
  };

  Rect NodeMbr(int32_t idx) const {
    const Node& node = nodes_[idx];
    Rect mbr = Rect::Empty();
    if (node.is_leaf) {
      for (const Point& p : node.points) mbr.ExpandToInclude(p);
    } else {
      for (const Rect& r : node.child_mbrs) mbr.ExpandToInclude(r);
    }
    return mbr;
  }

  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace reference
}  // namespace mpn
