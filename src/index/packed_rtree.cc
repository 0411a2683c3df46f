#include "index/packed_rtree.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mpn {

namespace {

constexpr size_t kFanout = PackedRTree::kFanout;

// Sort record of an STR level: `key` caches the coordinate the current
// sort orders by, `id` is the point id (leaves) or the node's index in the
// level below. Comparisons fall back to the other coordinate (and, for
// leaves, the id) only on equal keys, so they see exactly what comparing
// bare indices would and std::sort moves the records as it would move
// indices, while most comparisons stay on contiguous data.
struct Entry {
  double key;
  uint32_t id;
};

// One tiled level in creation order: node k covers ids[runs[k], runs[k +
// 1]) — point ids for leaves, node indices of the level below above — and
// has MBR mbrs[k].
struct Level {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> runs;
  std::vector<Rect> mbrs;

  size_t node_count() const { return runs.size() - 1; }
};

// The STR step shared by every level, over n entries whose positions are
// at(id): sort by (x, y), cut into ceil(sqrt(ceil(n / kFanout))) slices of
// ceil(n / slices) entries, sort each slice by (y, x) and cut it into nodes
// of up to kFanout entries. `ids_break_ties` appends the id to both sort
// keys. `expand(&mbr, id)` grows a node's MBR by one entry.
template <typename At, typename Expand>
Level Tile(size_t n, At at, bool ids_break_ties, Expand expand) {
  std::vector<Entry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i] = {at(static_cast<uint32_t>(i)).x, static_cast<uint32_t>(i)};
  }
  std::sort(entries.begin(), entries.end(),
            [&](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              const double ay = at(a.id).y, by = at(b.id).y;
              if (ay != by || !ids_break_ties) return ay < by;
              return a.id < b.id;
            });
  const size_t groups = (n + kFanout - 1) / kFanout;
  const size_t slices =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(groups))));
  const size_t slice_size = (n + slices - 1) / slices;
  Level level;
  level.runs.reserve(groups + slices + 1);
  level.mbrs.reserve(groups + slices);
  for (size_t begin = 0; begin < n; begin += slice_size) {
    const size_t end = std::min(begin + slice_size, n);
    for (size_t i = begin; i < end; ++i) {
      entries[i].key = at(entries[i].id).y;
    }
    std::sort(entries.begin() + begin, entries.begin() + end,
              [&](const Entry& a, const Entry& b) {
                if (a.key != b.key) return a.key < b.key;
                const double ax = at(a.id).x, bx = at(b.id).x;
                if (ax != bx || !ids_break_ties) return ax < bx;
                return a.id < b.id;
              });
    for (size_t i = begin; i < end; i += kFanout) {
      Rect mbr = Rect::Empty();
      for (size_t j = i; j < std::min(i + kFanout, end); ++j) {
        expand(&mbr, entries[j].id);
      }
      level.runs.push_back(static_cast<uint32_t>(i));
      level.mbrs.push_back(mbr);
    }
  }
  level.runs.push_back(static_cast<uint32_t>(n));
  level.ids.resize(n);
  for (size_t i = 0; i < n; ++i) level.ids[i] = entries[i].id;
  return level;
}

// Leaf level: points tiled with full (other axis, id) tie-breaks, so the
// order is unique.
Level TileLeaves(const std::vector<Point>& points) {
  return Tile(
      points.size(), [&](uint32_t id) -> const Point& { return points[id]; },
      /*ids_break_ties=*/true,
      [&](Rect* mbr, uint32_t id) { mbr->ExpandToInclude(points[id]); });
}

// Upper level over the nodes of `below`, tiled by MBR centre. No id
// tie-break (see the header comment).
Level TileParents(const Level& below) {
  std::vector<Point> centres(below.node_count());
  for (size_t i = 0; i < centres.size(); ++i) {
    centres[i] = below.mbrs[i].Center();
  }
  return Tile(
      centres.size(), [&](uint32_t id) -> const Point& { return centres[id]; },
      /*ids_break_ties=*/false,
      [&](Rect* mbr, uint32_t id) { mbr->ExpandToInclude(below.mbrs[id]); });
}

}  // namespace

PackedRTree PackedRTree::Build(const std::vector<Point>& points) {
  PackedRTree t;
  if (points.empty()) return t;

  // Bottom-up: tile each level over the one below until one node is left.
  std::vector<Level> levels;
  levels.push_back(TileLeaves(points));
  // The payload takes the block the leaf sort just released before the
  // upper levels' small temporaries can split it; allocated after them,
  // repeated builds fragment the heap and raise the peak resident set.
  t.x_.resize(points.size());
  t.y_.resize(points.size());
  t.ids_.resize(points.size());
  while (levels.back().node_count() > 1) {
    levels.push_back(TileParents(levels.back()));
  }

  // Top-down: lay each level out in its parents' order, so every node's
  // children (or points) form one contiguous run. `order` lists the
  // current level's nodes by creation index in layout order.
  std::vector<size_t> offset(levels.size() + 1, 0);
  for (size_t l = 0; l < levels.size(); ++l) {
    offset[l + 1] = offset[l] + levels[l].node_count();
  }
  const size_t node_count = offset.back();
  for (std::vector<double>* a : {&t.lo_x_, &t.lo_y_, &t.hi_x_, &t.hi_y_}) {
    a->resize(node_count);
  }
  t.first_.resize(node_count);
  t.count_.resize(node_count);
  t.leaf_count_ = static_cast<int32_t>(offset[1]);
  std::vector<uint32_t> order = {0};
  std::vector<uint32_t> next;
  for (size_t l = levels.size(); l-- > 0;) {
    const Level& level = levels[l];
    const size_t child_base = l == 0 ? 0 : offset[l - 1];
    size_t placed = 0;  // entries laid out so far on the level below
    next.clear();
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const uint32_t k = order[pos];
      const size_t node = offset[l] + pos;
      const Rect& mbr = level.mbrs[k];
      t.lo_x_[node] = mbr.lo.x;
      t.lo_y_[node] = mbr.lo.y;
      t.hi_x_[node] = mbr.hi.x;
      t.hi_y_[node] = mbr.hi.y;
      t.first_[node] = static_cast<int32_t>(child_base + placed);
      t.count_[node] = static_cast<int32_t>(level.runs[k + 1] - level.runs[k]);
      for (uint32_t j = level.runs[k]; j < level.runs[k + 1]; ++j, ++placed) {
        const uint32_t id = level.ids[j];
        if (l == 0) {
          t.x_[placed] = points[id].x;
          t.y_[placed] = points[id].y;
          t.ids_[placed] = id;
        } else {
          next.push_back(id);
        }
      }
    }
    order.swap(next);
  }
  t.root_ = static_cast<int32_t>(node_count) - 1;
  return t;
}

void PackedRTree::CheckInvariants() const {
  const size_t n = ids_.size();
  MPN_ASSERT(x_.size() == n && y_.size() == n);
  const size_t nodes = first_.size();
  MPN_ASSERT(count_.size() == nodes && lo_x_.size() == nodes &&
             lo_y_.size() == nodes && hi_x_.size() == nodes &&
             hi_y_.size() == nodes);
  if (root_ < 0) {
    MPN_ASSERT(n == 0 && nodes == 0 && leaf_count_ == 0);
    return;
  }
  const int32_t node_count = static_cast<int32_t>(nodes);
  MPN_ASSERT(root_ == node_count - 1);
  MPN_ASSERT(leaf_count_ >= 1 && leaf_count_ <= node_count);

  // Entry runs tile their targets in id order: the leaves' slot runs cover
  // [0, n) and the internal nodes' child runs cover [0, root) exactly once,
  // so every slot has one leaf and every non-root node one parent.
  int32_t next_slot = 0;
  int32_t next_child = 0;
  for (int32_t idx = 0; idx < node_count; ++idx) {
    const int32_t first = first_[idx];
    const int32_t count = count_[idx];
    MPN_ASSERT(count >= 1 && static_cast<size_t>(count) <= kFanout);
    Rect mbr = Rect::Empty();
    if (IsLeafNode(idx)) {
      MPN_ASSERT(first == next_slot);
      next_slot += count;
      MPN_ASSERT(static_cast<size_t>(next_slot) <= n);
      for (int32_t i = first; i < first + count; ++i) {
        mbr.ExpandToInclude(PointAt(i));
      }
    } else {
      // Children are contiguous and precede their parent.
      MPN_ASSERT(first == next_child);
      next_child += count;
      MPN_ASSERT(next_child <= idx);
      for (int32_t c = first; c < first + count; ++c) {
        mbr.ExpandToInclude(MbrAt(c));
      }
    }
    // Stored MBRs are exact, not merely containing.
    const Rect stored = MbrAt(idx);
    MPN_ASSERT(mbr.lo.x == stored.lo.x && mbr.lo.y == stored.lo.y &&
               mbr.hi.x == stored.hi.x && mbr.hi.y == stored.hi.y);
  }
  MPN_ASSERT(static_cast<size_t>(next_slot) == n);
  MPN_ASSERT(next_child == root_);

  // Every leaf has the same depth. Parents have larger ids than their
  // children, so a descending sweep sees each parent first.
  std::vector<int> depth(nodes, 0);
  int leaf_depth = -1;
  for (int32_t idx = root_; idx >= 0; --idx) {
    if (IsLeafNode(idx)) {
      MPN_ASSERT(leaf_depth < 0 || depth[idx] == leaf_depth);
      leaf_depth = depth[idx];
      continue;
    }
    for (int32_t c = first_[idx]; c < first_[idx] + count_[idx]; ++c) {
      depth[c] = depth[idx] + 1;
    }
  }

  // Every input id appears exactly once.
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t id : ids_) {
    MPN_ASSERT(id < n && seen[id] == 0);
    seen[id] = 1;
  }
}

}  // namespace mpn
