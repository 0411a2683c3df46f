#include "index/gnn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/macros.h"

namespace mpn {

const char* ObjectiveName(Objective obj) {
  return obj == Objective::kMax ? "MAX" : "SUM";
}

// MAX aggregates take one square root: correctly rounded sqrt is monotone,
// so sqrt(max_j d_j^2) equals max_j sqrt(d_j^2) bit for bit (the same
// argument as geom/lanes.h). SUM keeps one root per user.

double AggDist(const Point& p, const std::vector<Point>& users,
               Objective obj) {
  MPN_DCHECK(!users.empty());
  double d = 0.0;
  if (obj == Objective::kMax) {
    for (const Point& u : users) d = std::max(d, Dist2(p, u));
    return std::sqrt(d);
  }
  for (const Point& u : users) d += Dist(p, u);
  return d;
}

double AggMinDist(const Rect& mbr, const std::vector<Point>& users,
                  Objective obj) {
  MPN_DCHECK(!users.empty());
  double d = 0.0;
  if (obj == Objective::kMax) {
    for (const Point& u : users) d = std::max(d, mbr.MinDist2(u));
    return std::sqrt(d);
  }
  for (const Point& u : users) d += mbr.MinDist(u);
  return d;
}

double AggMaxDist(const Rect& mbr, const std::vector<Point>& users,
                  Objective obj) {
  MPN_DCHECK(!users.empty());
  double d = 0.0;
  if (obj == Objective::kMax) {
    for (const Point& u : users) d = std::max(d, mbr.MaxDist2(u));
    return std::sqrt(d);
  }
  for (const Point& u : users) d += mbr.MaxDist(u);
  return d;
}

namespace {

// A queued node or point, 16 bytes. `ref` is a node id, or a point's slot
// in the tree with kPointRef set; `id` is the point's id, and the node id
// for nodes (which only makes the order total).
struct Entry {
  double key;
  uint32_t ref;
  uint32_t id;
};
constexpr uint32_t kPointRef = 0x80000000u;

// True when `a` pops after `b`: by key, nodes before points at equal keys,
// then by id. As a std heap comparator it keeps the next pop on top.
struct PopsAfter {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.key != b.key) return a.key > b.key;
    if ((a.ref ^ b.ref) & kPointRef) return (a.ref & kPointRef) != 0;
    return a.id > b.id;
  }
};

// True when point `a` pops before point `b`: by key, then by id.
struct RanksBefore {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
};

}  // namespace

// Best-first search, bounded by `upper` >= K*, the k-th result's key.
// Keys never shrink from parent to child (a child's MBR lies inside its
// parent's, and MINDIST, max, + and sqrt are monotone), so an unbounded
// best-first search pops exactly the nodes with key <= K* before its k-th
// point: nodes pop before points at equal keys. Every entry skipped here
// has key > upper, or is a point ranked after k queued points, so it would
// pop only after the k-th result; the pops up to there, and with them the
// results and the node accesses, are the unbounded search's.
std::vector<GnnItem> FindGnn(const PackedRTree* tree,
                             const std::vector<Point>& users, Objective obj,
                             size_t k) {
  MPN_ASSERT(tree != nullptr);
  MPN_ASSERT(!users.empty());
  std::vector<GnnItem> out;
  if (k == 0 || tree->root() < 0) return out;
  out.reserve(std::min(k, tree->size()));

  // Per-thread storage that keeps its capacity across queries. The search
  // calls no user code, so it cannot re-enter.
  static thread_local std::vector<Entry> heap;
  // The best queued points: cut back to the k best, whose worst is `kth`,
  // when it first holds k and then each time it holds 2k. Between cuts
  // `kth` is stale but still ranks at or after the k-th queued point; an
  // exact k-best heap cost more per point than it saved at large k.
  static thread_local std::vector<Entry> best;
  heap.clear();
  best.clear();
  Entry kth{};  // valid once best.size() >= k
  double upper = std::numeric_limits<double>::infinity();
  const auto push = [](const Entry& e) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), PopsAfter());
  };
  // Queues a leaf's point unless it would pop after the k-th result.
  const auto queue_point = [&](const Point& p, uint32_t id, int32_t slot) {
    const double key = AggDist(p, users, obj);
    if (key > upper) return;
    const Entry pt{key, static_cast<uint32_t>(slot) | kPointRef, id};
    if (best.size() >= k && !RanksBefore()(pt, kth)) return;
    best.push_back(pt);
    if (best.size() == k || best.size() == 2 * k) {
      std::nth_element(best.begin(), best.begin() + (k - 1), best.end(),
                       RanksBefore());
      best.resize(k);
      kth = best.back();
      upper = std::min(upper, kth.key);
    }
    push(pt);
  };
  // Scores an internal node's child. A leaf child with at least k points
  // bounds K* by its AggMaxDist, which can prune its siblings, so the
  // children are queued only once all of them are scored.
  Entry children[PackedRTree::kFanout] = {};
  size_t scored = 0;
  const auto score_child = [&](int32_t child, const Rect& mbr, int32_t count) {
    const double key = AggMinDist(mbr, users, obj);
    if (key > upper) return;
    const uint32_t ref = static_cast<uint32_t>(child);
    children[scored++] = {key, ref, ref};
    if (key < upper && tree->IsLeafNode(child) &&
        static_cast<size_t>(count) >= k) {
      upper = std::min(upper, AggMaxDist(mbr, users, obj));
    }
  };

  const uint32_t root = static_cast<uint32_t>(tree->root());
  push({0.0, root, root});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), PopsAfter());
    const Entry e = heap.back();
    heap.pop_back();
    if (e.ref & kPointRef) {
      const int32_t slot = static_cast<int32_t>(e.ref & ~kPointRef);
      out.push_back({e.id, tree->PointAt(slot), e.key});
      if (out.size() == k) break;
      continue;
    }
    const int32_t node = static_cast<int32_t>(e.ref);
    if (tree->IsLeafNode(node)) {
      tree->ForEachLeafEntry(node, queue_point);
      continue;
    }
    scored = 0;
    tree->ForEachChild(node, score_child);
    for (size_t i = 0; i < scored; ++i) {
      if (children[i].key <= upper) push(children[i]);
    }
  }
  return out;
}

std::vector<GnnItem> FindGnnBruteForce(const std::vector<Point>& pois,
                                       const std::vector<Point>& users,
                                       Objective obj, size_t k) {
  std::vector<GnnItem> all;
  all.reserve(pois.size());
  for (size_t i = 0; i < pois.size(); ++i) {
    all.push_back({static_cast<uint32_t>(i), pois[i],
                   AggDist(pois[i], users, obj)});
  }
  std::sort(all.begin(), all.end(), [](const GnnItem& a, const GnnItem& b) {
    if (a.agg != b.agg) return a.agg < b.agg;
    return a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace mpn
