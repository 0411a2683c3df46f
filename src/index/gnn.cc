#include "index/gnn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/lanes.h"
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

constexpr double kInf = std::numeric_limits<double>::infinity();

// A point in the k-best array: its key, id and slot in the tree.
struct Held {
  double key;
  uint32_t id;
  int32_t slot;
};

// A queued node and its key.
struct Queued {
  double key;
  int32_t node;
};

// True when point `a` pops before point `b`: by key, then by id.
inline bool RanksBefore(const Held& a, const Held& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.id < b.id;
}

// The run kernel. Folds lanes [0, n) over the users into out[i]: for MAX
// the max of the per-user squared distances d2(i, u) from 0.0, a squared
// key; for SUM the sum of their roots in user order, the key. These are
// the operations, in the order, of AggDist / AggMinDist / AggMaxDist, so
// each lane is bit-identical to them under the pinned -fno-math-errno
// -ffp-contract=off. The lane loop is innermost and branch-free, so the
// compiler vectorizes it.
template <typename D2>
inline void FoldUsers(const std::vector<Point>& users, Objective obj,
                      size_t n, D2 d2, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = 0.0;
  if (obj == Objective::kMax) {
    for (const Point& u : users) {
      for (size_t i = 0; i < n; ++i) out[i] = std::max(out[i], d2(i, u));
    }
  } else {
    for (const Point& u : users) {
      for (size_t i = 0; i < n; ++i) out[i] += std::sqrt(d2(i, u));
    }
  }
}

}  // namespace

// Best-first search, bounded by `upper` >= K*, the k-th result's key.
// Keys never shrink from parent to child (a child's MBR lies inside its
// parent's, and MINDIST, max, + and sqrt are monotone), so an unbounded
// best-first search, popping entries by (key, nodes before points, id),
// pops exactly the nodes with key <= K* before its k-th point. This search
// makes the same pops up to there, so it returns the same points after the
// same node accesses:
//  * The queue holds nodes only. A leaf's points go to `held`, sorted by
//    (key, id) and cut to the k best. The unbounded search's heap holds
//    the queued nodes, the held points and the entries dropped here, and
//    every entry it has not created yet lies under a queued or a dropped
//    node, keyed at least as high. So its next pop, short of the dropped
//    entries, is the smallest (key, id) queued node or the first unemitted
//    held point, the node unless the point's key is strictly smaller: the
//    rule here. Any structure popping in that order gives the same pops;
//    an unsorted array with a min scan costs least at these sizes.
//  * `upper` is lowered to the k-th held key once k points are held (k
//    points rank at or before it, so it stays >= K*), and to the
//    AggMaxDist of any leaf child holding at least k points, every one of
//    which has AggDist <= AggMaxDist exactly (gnn.h).
//  * An entry keyed above `upper`, or a point ranked after k held ones,
//    could pop only after the k-th result. Such entries are neither queued
//    nor held, and queued nodes a lowered `upper` rules out are swept out.
// A MAX run is filtered in the squared domain against SqrtLeqBound(upper),
// which drops no lane whose key is <= upper (geom/lanes.h); only the kept
// lanes take their root, and then the exact `key > upper` test.
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
  static thread_local std::vector<Queued> queue;
  static thread_local std::vector<Held> held;
  queue.assign(1, {0.0, tree->root()});
  held.clear();
  size_t emitted = 0;  // held[0, emitted) are in `out`
  double upper = kInf;
  double swept = kInf;  // `upper` when the queue was last swept
  const bool is_max = obj == Objective::kMax;

  constexpr size_t kRun = PackedRTree::kFanout;
  double vals[kRun];     // one run's keys, squared for MAX
  uint32_t lanes[kRun];  // the lanes the filter keeps, in run order ...
  double keys[kRun];     // ... and their keys
  Held run[kRun];
  // Keeps the lanes whose key may be <= upper, without a branch, and takes
  // the kept lanes' roots in one vectorized loop.
  const auto filter = [&](size_t n) {
    const double t = is_max ? SqrtLeqBound(upper) : upper;
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      lanes[kept] = static_cast<uint32_t>(i);
      keys[kept] = vals[i];
      kept += vals[i] <= t;
    }
    if (is_max) {
      for (size_t j = 0; j < kept; ++j) keys[j] = std::sqrt(keys[j]);
    }
    return kept;
  };

  for (;;) {
    if (upper < swept) {
      // Sweep out the queued nodes `upper` has since ruled out; keeps the
      // scans short.
      size_t w = 0;
      for (const Queued& q : queue) {
        queue[w] = q;
        w += q.key <= upper;
      }
      queue.resize(w);
      swept = upper;
    }
    size_t next = 0;  // the smallest (key, id) queued node
    for (size_t i = 1; i < queue.size(); ++i) {
      if (queue[i].key < queue[next].key ||
          (queue[i].key == queue[next].key &&
           queue[i].node < queue[next].node)) {
        next = i;
      }
    }
    while (emitted < held.size() &&
           (queue.empty() || held[emitted].key < queue[next].key)) {
      const Held& h = held[emitted++];
      out.push_back({h.id, tree->PointAt(h.slot), h.key});
      if (out.size() == k) return out;
    }
    if (queue.empty()) return out;  // fewer than k points in the tree
    const int32_t node = queue[next].node;
    queue[next] = queue.back();
    queue.pop_back();

    if (tree->IsLeafNode(node)) {
      const PackedRTree::PointRun r = tree->LeafPoints(node);
      FoldUsers(users, obj, r.n,
                [&](size_t i, const Point& u) {
                  const double dx = r.x[i] - u.x, dy = r.y[i] - u.y;
                  return dx * dx + dy * dy;
                },
                vals);
      // The run's k best, by insertion: only they can enter `held`.
      const size_t cap = std::min(k, kRun);
      size_t m = 0;
      for (size_t j = 0, kept = filter(r.n); j < kept; ++j) {
        if (keys[j] > upper) continue;
        const uint32_t i = lanes[j];
        const Held h{keys[j], r.ids[i], r.first + static_cast<int32_t>(i)};
        if (m == cap && !RanksBefore(h, run[cap - 1])) continue;
        size_t at = m < cap ? m++ : cap - 1;
        for (; at > 0 && RanksBefore(h, run[at - 1]); --at) {
          run[at] = run[at - 1];
        }
        run[at] = h;
      }
      // Merge the run into `held` from the back, keeping the k best. Every
      // run point ranks after the emitted ones, which therefore stay put.
      size_t a = held.size();
      const size_t keep = std::min(k, a + m);
      held.resize(keep);
      for (size_t w = a + m; m > 0;) {
        --w;
        const Held h = a > 0 && RanksBefore(run[m - 1], held[a - 1])
                           ? held[--a]
                           : run[--m];
        if (w < keep) held[w] = h;
      }
      if (held.size() == k) upper = std::min(upper, held.back().key);
      continue;
    }

    const PackedRTree::ChildRun r = tree->Children(node);
    const size_t n = r.mbrs.n;
    if (tree->IsLeafNode(r.first) && k <= kRun) {
      // Leaf children with at least k points bound K*. MAX takes the root
      // of the smallest squared bound, the smallest root (sqrt is
      // monotone).
      FoldUsers(users, obj, n,
                [&](size_t i, const Point& u) {
                  return LaneMaxDist2(r.mbrs, i, u.x, u.y);
                },
                vals);
      double bound = kInf;
      for (size_t i = 0; i < n; ++i) {
        bound = std::min(bound,
                         static_cast<size_t>(r.count[i]) >= k ? vals[i] : kInf);
      }
      upper = std::min(upper, is_max ? std::sqrt(bound) : bound);
    }
    FoldUsers(users, obj, n,
              [&](size_t i, const Point& u) {
                return LaneMinDist2(r.mbrs, i, u.x, u.y);
              },
              vals);
    for (size_t j = 0, kept = filter(n); j < kept; ++j) {
      if (keys[j] > upper) continue;
      queue.push_back({keys[j], r.first + static_cast<int32_t>(lanes[j])});
    }
  }
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
