// Packed R-tree tests. The algorithm suite checks the empty tree, the
// layout invariants around the fanout, and range and circle retrieval
// against brute force. The topology suite checks that PackedRTree::Build
// builds the same tree as the reference STR tree (reference_rtree.h). Both
// trees must have the same height and the same nodes per level, every
// pruned Traverse must return the same ids in the same order after the
// same number of node accesses, and FindGnn must return what the unbounded
// best-first search it replaced returns on the reference tree, after the
// same node accesses; both must also match brute force, on random inputs
// and on the GNN boundary inputs of gnn_boundary_inputs.h. This is what
// keeps the reproduced node-access counters (fig16/fig19) and every result
// digest fixed. Query semantics across sizes are covered in rtree_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <queue>
#include <string>
#include <vector>

#include "gnn_boundary_inputs.h"
#include "index/gnn.h"
#include "index/packed_rtree.h"
#include "reference_rtree.h"
#include "util/rng.h"

namespace mpn {
namespace {

std::vector<Point> RandomPoints(size_t n, uint64_t seed,
                                double extent = 1000.0) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
  }
  return pts;
}

/// Points clustered around 12 centres, rounded to the integer grid and
/// partly duplicated, so many points share an x, a y or both.
std::vector<Point> ClusteredPointsWithDuplicates(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> centres;
  for (int c = 0; c < 12; ++c) {
    centres.push_back({rng.Uniform(100, 900), rng.Uniform(100, 900)});
  }
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point& c = centres[static_cast<size_t>(rng.UniformInt(0, 11))];
    const double dx = rng.Uniform(-1, 1) * rng.Uniform(0, 60);
    const double dy = rng.Uniform(-1, 1) * rng.Uniform(0, 60);
    pts.push_back({std::round(c.x + dx), std::round(c.y + dy)});
    if (rng.Bernoulli(0.2) && i + 1 < n) {
      pts.push_back(pts.back());  // exact duplicate
      ++i;
    }
  }
  return pts;
}

/// A few locations, each repeated many times: whole leaves collapse onto
/// one point, so many node centres tie exactly and the order the upper
/// levels' sorts leave equal keys in decides the shape.
std::vector<Point> StackedPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> sites;
  for (int s = 0; s < 8; ++s) {
    sites.push_back({std::round(rng.Uniform(0, 1000)),
                     std::round(rng.Uniform(0, 1000))});
  }
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(sites[static_cast<size_t>(rng.UniformInt(0, 7))]);
  }
  return pts;
}

/// Ids of the points whose pruned Traverse passes `inside`, in emit order.
template <typename MbrPred, typename PointPred>
std::vector<uint32_t> Retrieve(const PackedRTree& tree, MbrPred&& descend,
                               PointPred&& inside) {
  std::vector<uint32_t> out;
  tree.Traverse(descend, [&](const Point& p, uint32_t id) {
    if (inside(p)) out.push_back(id);
  });
  return out;
}

std::vector<uint32_t> Sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Appends the children of internal node `node` to `out`.
void AppendChildren(const PackedRTree& tree, int32_t node,
                    std::vector<int32_t>* out) {
  const PackedRTree::ChildRun run = tree.Children(node);
  for (size_t i = 0; i < run.mbrs.n; ++i) {
    out->push_back(run.first + static_cast<int32_t>(i));
  }
}

void AppendChildren(const reference::RTree& tree, int32_t node,
                    std::vector<int32_t>* out) {
  tree.ForEachChild(node,
                    [&](int32_t child, const Rect&) { out->push_back(child); });
}

/// Nodes per level, root level first (size() is the height).
template <typename Tree>
std::vector<size_t> LevelSizes(const Tree& tree) {
  std::vector<size_t> sizes;
  if (tree.root() < 0) return sizes;
  std::vector<int32_t> level = {tree.root()};
  while (!level.empty()) {
    sizes.push_back(level.size());
    std::vector<int32_t> next;
    for (int32_t node : level) {
      if (!tree.IsLeafNode(node)) AppendChildren(tree, node, &next);
    }
    level = std::move(next);
  }
  return sizes;
}

/// Everything one Traverse call observed, in call order.
struct TraverseLog {
  std::vector<Rect> mbrs;      // arguments of the pruning predicate
  std::vector<uint32_t> ids;   // point_fn calls
  std::vector<uint32_t> kept;  // ids passing the per-point test, sorted
  uint64_t node_accesses = 0;
};

bool SameRects(const std::vector<Rect>& a, const std::vector<Rect>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lo != b[i].lo || a[i].hi != b[i].hi) return false;
  }
  return true;
}

/// A seeded predicate pair of the Theorem-3 (MAX: per-user distance
/// bounds) or Theorem-6 (SUM: one aggregate bound) kind.
struct PrunedQuery {
  Objective obj = Objective::kMax;
  std::vector<Point> users;
  std::vector<double> bounds;  // m bounds (MAX) or one (SUM)

  bool Descend(const Rect& mbr) const {
    if (obj == Objective::kSum) {
      return AggMinDist(mbr, users, Objective::kSum) <= bounds[0];
    }
    for (size_t j = 0; j < users.size(); ++j) {
      if (mbr.MinDist(users[j]) > bounds[j]) return false;
    }
    return true;
  }

  bool Passes(const Point& p) const {
    if (obj == Objective::kSum) {
      return AggDist(p, users, Objective::kSum) <= bounds[0];
    }
    for (size_t j = 0; j < users.size(); ++j) {
      if (Dist(p, users[j]) > bounds[j]) return false;
    }
    return true;
  }
};

/// The square [lo, lo + extent]^2 an input's points lie in; queries draw
/// their users around it.
struct Frame {
  double lo = 0.0;
  double extent = 1000.0;

  /// A coordinate drawn from the frame widened by `margin` * extent.
  double Draw(Rng* rng, double margin) const {
    return rng->Uniform(lo - margin * extent, lo + (1 + margin) * extent);
  }
};

PrunedQuery MakePrunedQuery(Rng* rng, const std::vector<Point>& pts,
                            Objective obj, const Frame& frame) {
  PrunedQuery q;
  q.obj = obj;
  const size_t m = static_cast<size_t>(rng->UniformInt(1, 4));
  for (size_t j = 0; j < m; ++j) {
    q.users.push_back({frame.Draw(rng, 0.0), frame.Draw(rng, 0.0)});
  }
  // Bounds around a random POI standing in for the optimum po, widened by
  // a random region size as ||po,R||_top + r_up_j (MAX) or
  // ||po,U||_sum + 2 * sum_j r_up_j (SUM) would.
  const Point& po = pts[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pts.size()) - 1))];
  const double slack = rng->Uniform(0, 0.12 * frame.extent);
  if (obj == Objective::kSum) {
    q.bounds.push_back(AggDist(po, q.users, Objective::kSum) +
                       2.0 * static_cast<double>(m) * slack);
  } else {
    const double top = AggDist(po, q.users, Objective::kMax);
    for (size_t j = 0; j < m; ++j) {
      q.bounds.push_back(top + slack * rng->Uniform(0.5, 1.5));
    }
  }
  return q;
}

template <typename Tree>
TraverseLog RunTraverse(const Tree& tree, const PrunedQuery& q) {
  TraverseLog log;
  const uint64_t before = internal::tls_rtree_node_accesses;
  tree.Traverse(
      [&](const Rect& mbr) {
        log.mbrs.push_back(mbr);
        return q.Descend(mbr);
      },
      [&](const Point& p, uint32_t id) {
        log.ids.push_back(id);
        if (q.Passes(p)) log.kept.push_back(id);
      });
  log.node_accesses = internal::tls_rtree_node_accesses - before;
  std::sort(log.kept.begin(), log.kept.end());
  return log;
}

/// The aggregate distances as the unbounded search computed them: one
/// square root per user, for MAX as well.
double PerUserAggDist(const Point& p, const std::vector<Point>& users,
                      Objective obj) {
  double d = 0.0;
  for (const Point& u : users) {
    const double du = Dist(p, u);
    d = obj == Objective::kMax ? std::max(d, du) : d + du;
  }
  return d;
}

double PerUserAggMinDist(const Rect& mbr, const std::vector<Point>& users,
                         Objective obj) {
  double d = 0.0;
  for (const Point& u : users) {
    const double du = mbr.MinDist(u);
    d = obj == Objective::kMax ? std::max(d, du) : d + du;
  }
  return d;
}

/// The unbounded best-first GNN search FindGnn replaced, over the
/// reference tree: every child and every leaf entry is queued, and the
/// heap pops by (key, nodes before points, id) until the k-th point.
std::vector<GnnItem> GnnOver(const reference::RTree& tree,
                             const std::vector<Point>& users, Objective obj,
                             size_t k) {
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
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  if (tree.root() >= 0) heap.push({0.0, false, tree.root(), 0, Point{}});
  std::vector<GnnItem> out;
  while (!heap.empty() && out.size() < k) {
    const Entry e = heap.top();
    heap.pop();
    if (e.is_point) {
      out.push_back({e.id, e.p, e.key});
    } else if (tree.IsLeafNode(e.node)) {
      tree.ForEachLeafEntry(e.node, [&](const Point& p, uint32_t id) {
        heap.push({PerUserAggDist(p, users, obj), true, -1, id, p});
      });
    } else {
      tree.ForEachChild(e.node, [&](int32_t child, const Rect& mbr) {
        const double key = PerUserAggMinDist(mbr, users, obj);
        heap.push({key, false, child, 0, Point{}});
      });
    }
  }
  return out;
}

void ExpectSameItems(const std::vector<GnnItem>& a,
                     const std::vector<GnnItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
    EXPECT_EQ(a[i].agg, b[i].agg) << "rank " << i;
    EXPECT_EQ(a[i].p, b[i].p) << "rank " << i;
  }
}

// The packing algorithm. PackedRTree::Build has one, STR; the suite keeps
// its parameter so the instance names (`Algos/.../str`) and their printed
// parameters stay stable.
enum class PackAlgorithm { kStr };

class PackedRTreeAlgoTest : public testing::TestWithParam<PackAlgorithm> {};

TEST_P(PackedRTreeAlgoTest, EmptyTree) {
  const PackedRTree tree = PackedRTree::Build({});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_LT(tree.root(), 0);
  EXPECT_TRUE(LevelSizes(tree).empty());
  // A traversal of the empty tree calls neither callback and reads no node.
  const uint64_t before = internal::tls_rtree_node_accesses;
  size_t calls = 0;
  tree.Traverse(
      [&](const Rect&) {
        ++calls;
        return true;
      },
      [&](const Point&, uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(internal::tls_rtree_node_accesses, before);
  EXPECT_TRUE(FindGnn(&tree, {{5, 5}}, Objective::kSum, 3).empty());
  tree.CheckInvariants();
}

TEST_P(PackedRTreeAlgoTest, InvariantsAcrossSizesAndFanouts) {
  // The fanout is the constant kFanout; the sizes straddle it, so single,
  // full, short and split leaves all occur.
  constexpr size_t kFanout = PackedRTree::kFanout;
  for (size_t n : {1u, 2u, 31u, 32u, 33u, 100u, 1000u}) {
    const std::vector<Point> pts = RandomPoints(n, 0xBEEF00 + n);
    const PackedRTree tree = PackedRTree::Build(pts);
    EXPECT_EQ(tree.size(), n);
    tree.CheckInvariants();
    // One root; each level holds at most kFanout times the nodes of the
    // level above it, and the leaves hold at least ceil(n / kFanout).
    const std::vector<size_t> levels = LevelSizes(tree);
    ASSERT_FALSE(levels.empty()) << "n=" << n;
    EXPECT_EQ(levels.front(), 1u) << "n=" << n;
    for (size_t i = 1; i < levels.size(); ++i) {
      EXPECT_LE(levels[i], levels[i - 1] * kFanout) << "n=" << n;
      EXPECT_GT(levels[i], levels[i - 1]) << "n=" << n;
    }
    EXPECT_GE(levels.back(), (n + kFanout - 1) / kFanout) << "n=" << n;
    EXPECT_EQ(levels.size() == 1, n <= kFanout) << "n=" << n;
    // An accept-all traversal emits every id exactly once.
    const std::vector<uint32_t> all = Sorted(Retrieve(
        tree, [](const Rect&) { return true; },
        [](const Point&) { return true; }));
    ASSERT_EQ(all.size(), n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(all[i], i);
  }
}

TEST_P(PackedRTreeAlgoTest, QueriesMatchBruteForce) {
  const size_t n = 500;
  const std::vector<Point> pts = RandomPoints(n, 0xFACE01);
  const PackedRTree tree = PackedRTree::Build(pts);
  Rng rng(0xFACE02);
  for (int q = 0; q < 200; ++q) {
    const Point a{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double w = rng.Uniform(0, 300), h = rng.Uniform(0, 300);
    const Rect r({a.x, a.y}, {a.x + w, a.y + h});
    std::vector<uint32_t> brute;
    for (size_t i = 0; i < n; ++i) {
      if (r.Contains(pts[i])) brute.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_EQ(Sorted(Retrieve(
                  tree, [&](const Rect& mbr) { return mbr.Intersects(r); },
                  [&](const Point& p) { return r.Contains(p); })),
              brute);

    const double radius = rng.Uniform(0, 250);
    const double r2 = radius * radius;
    brute.clear();
    for (size_t i = 0; i < n; ++i) {
      if (Dist2(a, pts[i]) <= r2) brute.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_EQ(Sorted(Retrieve(
                  tree, [&](const Rect& mbr) { return mbr.MinDist2(a) <= r2; },
                  [&](const Point& p) { return Dist2(a, p) <= r2; })),
              brute);
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, PackedRTreeAlgoTest,
                         testing::Values(PackAlgorithm::kStr),
                         [](const testing::TestParamInfo<PackAlgorithm>&) {
                           return std::string("str");
                         });

/// A topology-suite input: its points, the frame queries draw users
/// around, and user groups placed on its GNN boundaries, if any.
struct TreeInput {
  std::vector<Point> points;
  Frame frame;
  std::vector<std::vector<Point>> boundary_users;
};

TreeInput MakeInput(const std::string& name) {
  if (name == "n1") return {RandomPoints(1, 0x701), {}, {}};
  if (name == "n17") return {RandomPoints(17, 0x702), {}, {}};
  if (name == "n1000") return {RandomPoints(1000, 0x703), {}, {}};
  if (name == "n40000") return {RandomPoints(40000, 0x704), {}, {}};
  if (name == "stacked") return {StackedPoints(5000, 0x706), {}, {}};
  if (name == "ulp_ring") {
    // Keys tying on the ring for users at its centre (gnn_boundary_inputs.h).
    const double r = gnn_inputs::kRingRadius;
    TreeInput in{gnn_inputs::UlpRingPoints(0x707), {-2 * r, 4 * r}, {}};
    for (size_t m : {1, 2, 6}) {
      in.boundary_users.push_back(gnn_inputs::RingUsers(m));
    }
    return in;
  }
  if (name == "tiny") {
    // Squared keys, and a bound's square, underflow.
    return {gnn_inputs::ScaledPoints(3000, 1e-160, 0x708), {0, 1e-160}, {}};
  }
  if (name == "huge") {
    // Squared keys, and a bound's square, overflow.
    return {gnn_inputs::ScaledPoints(3000, 1.2e154, 0x709), {0, 1.2e154},
            {}};
  }
  return {ClusteredPointsWithDuplicates(6000, 0x705), {}, {}};
}

/// MPN_GNN_SEED offsets the GNN case's seeds (0 when unset), so a run can
/// draw fresh queries; the same value reproduces them.
uint64_t GnnSeedOffset() {
  const char* env = std::getenv("MPN_GNN_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

class PackedRTreeTopologyTest : public testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    input_ = MakeInput(GetParam());
    points_ = input_.points;
    packed_ = PackedRTree::Build(points_);
    reference_ = reference::RTree::BulkLoad(points_);
  }

  /// FindGnn against the unbounded search on the reference tree (same
  /// items, same node accesses) and against `ranked`, the brute-force
  /// ranking of every point for these users.
  void ExpectGnnMatches(const std::vector<Point>& users, Objective obj,
                        size_t k, const std::vector<GnnItem>& ranked) {
    SCOPED_TRACE(testing::Message() << ObjectiveName(obj) << " m="
                                    << users.size() << " k=" << k);
    uint64_t before = internal::tls_rtree_node_accesses;
    const auto served = FindGnn(&packed_, users, obj, k);
    const uint64_t served_nodes = internal::tls_rtree_node_accesses - before;

    before = internal::tls_rtree_node_accesses;
    const auto reference = GnnOver(reference_, users, obj, k);
    const uint64_t reference_nodes =
        internal::tls_rtree_node_accesses - before;

    // The bounded search returns what the unbounded one does, after the
    // same node accesses ...
    ExpectSameItems(served, reference);
    EXPECT_EQ(served_nodes, reference_nodes);
    // ... and that is the k smallest (agg, id) of the whole input.
    ExpectSameItems(served, {ranked.begin(),
                             ranked.begin() + std::min(k, ranked.size())});
  }

  TreeInput input_;
  std::vector<Point> points_;
  PackedRTree packed_;
  reference::RTree reference_;
};

TEST_P(PackedRTreeTopologyTest, SameHeightAndNodesPerLevel) {
  packed_.CheckInvariants();
  const std::vector<size_t> packed = LevelSizes(packed_);
  EXPECT_EQ(packed, LevelSizes(reference_));
  if (GetParam() == "n40000") {
    EXPECT_EQ(packed.size(), 4u);  // 40,000 points need four levels
  }
}

TEST_P(PackedRTreeTopologyTest, PrunedTraverseMatchesReferenceAndBruteForce) {
  const std::vector<Point>& pts = points_;
  Rng rng(0x7A5E + pts.size());
  for (int round = 0; round < 40; ++round) {
    const Objective obj = round % 2 == 0 ? Objective::kMax : Objective::kSum;
    const PrunedQuery q = MakePrunedQuery(&rng, pts, obj, input_.frame);
    const TraverseLog got = RunTraverse(packed_, q);
    const TraverseLog want = RunTraverse(reference_, q);
    // Same nodes in the same order: the predicate sees the same MBRs and
    // the leaves emit the same ids, after the same number of accesses.
    EXPECT_TRUE(SameRects(got.mbrs, want.mbrs)) << "round " << round;
    EXPECT_EQ(got.ids, want.ids) << "round " << round;
    EXPECT_EQ(got.node_accesses, want.node_accesses) << "round " << round;

    std::vector<uint32_t> brute;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (q.Passes(pts[i])) brute.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_EQ(got.kept, brute) << "round " << round;
  }
}

TEST_P(PackedRTreeTopologyTest, GnnMatchesReference) {
  const size_t n = points_.size();
  const uint64_t offset = GnnSeedOffset();
  SCOPED_TRACE(testing::Message() << "MPN_GNN_SEED=" << offset);
  Rng rng(0x6C0 + n + offset);
  for (size_t m = 1; m <= 6; ++m) {
    for (Objective obj : {Objective::kMax, Objective::kSum}) {
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<Point> users;
        for (size_t j = 0; j < m; ++j) {
          users.push_back(
              {input_.frame.Draw(&rng, 0.1), input_.frame.Draw(&rng, 0.1)});
        }
        // A drawn depth up to 20; one run and two around the fanout; the
        // Tile-D-b buffer depths b + 1 of fig16/fig19, past which only the
        // k-best bound prunes; and, once per group size, the whole input
        // and one more.
        const size_t drawn = static_cast<size_t>(rng.UniformInt(1, 20));
        constexpr size_t kFanout = PackedRTree::kFanout;
        std::vector<size_t> depths = {drawn,       1,  2,  kFanout,
                                      kFanout + 1, 6,  11, 26,
                                      51,          101, 201};
        if (trial == 0) depths.insert(depths.end(), {n, n + 1});
        const auto ranked = FindGnnBruteForce(points_, users, obj, n);
        for (size_t k : depths) ExpectGnnMatches(users, obj, k, ranked);
      }
    }
  }
  // Groups on the input's boundaries, at every depth.
  for (const std::vector<Point>& users : input_.boundary_users) {
    for (Objective obj : {Objective::kMax, Objective::kSum}) {
      const auto ranked = FindGnnBruteForce(points_, users, obj, n);
      for (size_t k = 1; k <= n + 1; ++k) {
        ExpectGnnMatches(users, obj, k, ranked);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Inputs, PackedRTreeTopologyTest,
                         testing::Values("n1", "n17", "n1000", "n40000",
                                         "clustered_dups", "stacked",
                                         "ulp_ring", "tiny", "huge"),
                         [](const testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace mpn
