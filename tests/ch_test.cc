// Contraction Hierarchies property tests: CH distances must be
// bit-identical to the Dijkstra left-fold oracle on randomized graphs
// (grid / random-planar / directed / disconnected), path unpacking must
// round-trip through original edges, and preprocessing must be
// deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "index/ch.h"
#include "traj/generators.h"
#include "traj/road_network.h"
#include "util/rng.h"

namespace mpn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using AdjList = std::vector<std::vector<std::pair<uint32_t, double>>>;

AdjList MakeAdj(size_t n, const std::vector<CHIndex::InputEdge>& edges,
                bool directed) {
  AdjList adj(n);
  for (const auto& e : edges) {
    adj[e.from].push_back({e.to, e.weight});
    if (!directed) adj[e.to].push_back({e.from, e.weight});
  }
  return adj;
}

/// The oracle: a textbook multi-seed Dijkstra whose dist values are exact
/// left-folds of edge weights along the relaxation paths.
std::vector<double> DijkstraOracle(const AdjList& adj,
                                   const std::vector<CHIndex::Seed>& seeds) {
  std::vector<double> dist(adj.size(), kInf);
  using QE = std::pair<double, uint32_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
  for (const auto& s : seeds) {
    if (s.dist < dist[s.node]) {
      dist[s.node] = s.dist;
      pq.push({s.dist, s.node});
    }
  }
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, w] : adj[u]) {
      const double nd = d + w;
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist;
}

std::vector<CHIndex::InputEdge> NetworkEdges(const RoadNetwork& net) {
  std::vector<CHIndex::InputEdge> edges;
  for (uint32_t a = 0; a < net.NodeCount(); ++a) {
    for (const auto& [b, w] : net.Neighbors(a)) {
      if (a < b) edges.push_back({a, b, w});
    }
  }
  return edges;
}

TEST(CHIndexTest, GridDistancesBitIdenticalToDijkstra) {
  const Rect world({0, 0}, {10000, 10000});
  for (uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    const RoadNetwork net =
        RoadNetwork::RandomGrid(world, 12, 12, 0.25, 0.12, 0.15, &rng);
    const CHIndex ch = net.BuildCHIndex();
    EXPECT_EQ(ch.NodeCount(), net.NodeCount());
    Rng qrng(seed * 97);
    for (int trial = 0; trial < 60; ++trial) {
      const auto s = static_cast<uint32_t>(
          qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
      const auto t = static_cast<uint32_t>(
          qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
      EXPECT_EQ(ch.Distance(s, t), net.ShortestPathDistance(s, t))
          << "seed " << seed << " pair " << s << "->" << t;
    }
  }
}

TEST(CHIndexTest, RandomPlanarDistancesBitIdenticalToDijkstra) {
  SyntheticNetworkOptions opt;
  opt.topology = SyntheticNetworkOptions::Topology::kRandomPlanar;
  opt.nodes = 600;
  opt.world = Rect({0, 0}, {50000, 50000});
  Rng rng(31);
  const RoadNetwork net = MakeSyntheticNetwork(opt, &rng);
  ASSERT_GE(net.NodeCount(), 600u);
  const CHIndex ch = net.BuildCHIndex();
  Rng qrng(313);
  for (int trial = 0; trial < 80; ++trial) {
    const auto s = static_cast<uint32_t>(
        qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
    const auto t = static_cast<uint32_t>(
        qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
    EXPECT_EQ(ch.Distance(s, t), net.ShortestPathDistance(s, t));
  }
}

TEST(CHIndexTest, DirectedGraphDistancesBitIdenticalToDijkstra) {
  for (uint64_t seed : {41u, 42u}) {
    Rng rng(seed);
    const size_t n = 200;
    std::vector<CHIndex::InputEdge> edges;
    for (uint32_t u = 0; u < n; ++u) {
      const int degree = 2 + static_cast<int>(rng.UniformInt(0, 2));
      for (int k = 0; k < degree; ++k) {
        const auto v = static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
        if (v == u) continue;
        edges.push_back({u, v, rng.Uniform(1.0, 10.0)});
      }
    }
    CHIndex::Options options;
    options.directed = true;
    const CHIndex ch = CHIndex::Build(n, edges, options);
    const AdjList adj = MakeAdj(n, edges, /*directed=*/true);
    Rng qrng(seed * 31);
    for (int trial = 0; trial < 60; ++trial) {
      const auto s = static_cast<uint32_t>(
          qrng.UniformInt(0, static_cast<int64_t>(n) - 1));
      const std::vector<double> oracle = DijkstraOracle(adj, {{s, 0.0}});
      const auto t = static_cast<uint32_t>(
          qrng.UniformInt(0, static_cast<int64_t>(n) - 1));
      EXPECT_EQ(ch.Distance(s, t), oracle[t]) << s << "->" << t;
    }
  }
}

TEST(CHIndexTest, DisconnectedComponentsReturnInfinityAcross) {
  // Two grids with disjoint node ranges and no bridge.
  const Rect world({0, 0}, {1000, 1000});
  Rng rng(51);
  const RoadNetwork a =
      RoadNetwork::RandomGrid(world, 5, 5, 0.2, 0.1, 0.0, &rng);
  const RoadNetwork b =
      RoadNetwork::RandomGrid(world, 4, 4, 0.2, 0.1, 0.0, &rng);
  std::vector<CHIndex::InputEdge> edges = NetworkEdges(a);
  const auto offset = static_cast<uint32_t>(a.NodeCount());
  for (const auto& e : NetworkEdges(b)) {
    edges.push_back({e.from + offset, e.to + offset, e.weight});
  }
  const size_t n = a.NodeCount() + b.NodeCount();
  const CHIndex ch = CHIndex::Build(n, edges);
  EXPECT_EQ(ch.Distance(0, offset), kInf);
  EXPECT_EQ(ch.Distance(offset + 1, 3), kInf);
  EXPECT_TRUE(ch.Path(0, offset).empty());
  // Within components the oracle still holds.
  EXPECT_EQ(ch.Distance(0, 7), a.ShortestPathDistance(0, 7));
  EXPECT_EQ(ch.Distance(offset, offset + 5), b.ShortestPathDistance(0, 5));
}

TEST(CHIndexTest, PathUnpackingRoundTrips) {
  const Rect world({0, 0}, {10000, 10000});
  Rng rng(61);
  const RoadNetwork net =
      RoadNetwork::RandomGrid(world, 10, 10, 0.25, 0.15, 0.2, &rng);
  const CHIndex ch = net.BuildCHIndex();
  Rng qrng(616);
  for (int trial = 0; trial < 40; ++trial) {
    const auto s = static_cast<uint32_t>(
        qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
    const auto t = static_cast<uint32_t>(
        qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
    const std::vector<uint32_t> path = ch.Path(s, t);
    if (s == t) {
      ASSERT_EQ(path.size(), 1u);
      EXPECT_EQ(path[0], s);
      continue;
    }
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    // Every hop is an original edge; the left-fold of hop weights is the
    // reported distance, bit for bit.
    double fold = 0.0;
    for (size_t i = 1; i < path.size(); ++i) {
      double w = -1.0;
      for (const auto& [v, wt] : net.Neighbors(path[i - 1])) {
        if (v == path[i]) {
          w = wt;
          break;
        }
      }
      ASSERT_GE(w, 0.0) << "hop " << path[i - 1] << "->" << path[i]
                        << " is not an original edge";
      fold += w;
    }
    EXPECT_EQ(fold, ch.Distance(s, t));
    EXPECT_EQ(fold, net.ShortestPathDistance(s, t));
  }
}

TEST(CHIndexTest, SeededManyToManyMatchesSeededDijkstra) {
  const Rect world({0, 0}, {10000, 10000});
  for (uint64_t seed : {71u, 72u}) {
    Rng rng(seed);
    const RoadNetwork net =
        RoadNetwork::RandomGrid(world, 11, 11, 0.25, 0.1, 0.12, &rng);
    const CHIndex ch = net.BuildCHIndex();
    const AdjList adj = MakeAdj(net.NodeCount(), NetworkEdges(net), false);
    Rng qrng(seed * 13);
    // Targets with duplicates, as POI edge endpoints produce.
    std::vector<uint32_t> targets;
    for (int i = 0; i < 50; ++i) {
      targets.push_back(static_cast<uint32_t>(
          qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1)));
    }
    targets.push_back(targets[0]);
    targets.push_back(targets[7]);
    const CHIndex::TargetSet ts = ch.MakeTargetSet(targets);
    ASSERT_EQ(ts.TargetCount(), targets.size());
    for (int trial = 0; trial < 12; ++trial) {
      // Two seeds with offsets, the shape of an edge position.
      const auto a = static_cast<uint32_t>(
          qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
      const auto b = static_cast<uint32_t>(
          qrng.UniformInt(0, static_cast<int64_t>(net.NodeCount()) - 1));
      if (a == b) continue;
      const std::vector<CHIndex::Seed> seeds = {{a, qrng.Uniform(0.0, 90.0)},
                                                {b, qrng.Uniform(0.0, 90.0)}};
      const std::vector<double> oracle = DijkstraOracle(adj, seeds);
      std::vector<double> got;
      ch.SeededDistances(seeds, ts, &got);
      ASSERT_EQ(got.size(), targets.size());
      for (size_t j = 0; j < targets.size(); ++j) {
        EXPECT_EQ(got[j], oracle[targets[j]]) << "target " << j;
      }
    }
  }
}

TEST(CHIndexTest, TinyGraphs) {
  // Single node, no edges.
  const CHIndex one = CHIndex::Build(1, {});
  EXPECT_EQ(one.Distance(0, 0), 0.0);
  EXPECT_EQ(one.Path(0, 0), std::vector<uint32_t>{0});
  // Two nodes, one edge.
  const CHIndex two = CHIndex::Build(2, {{0, 1, 2.5}});
  EXPECT_EQ(two.Distance(0, 1), 2.5);
  EXPECT_EQ(two.Distance(1, 0), 2.5);
  EXPECT_EQ(two.ShortcutCount(), 0u);
  // A line a-b-c: contracting the middle node must keep distances exact.
  const CHIndex line = CHIndex::Build(3, {{0, 1, 1.25}, {1, 2, 2.75}});
  EXPECT_EQ(line.Distance(0, 2), 1.25 + 2.75);
  EXPECT_EQ(line.Path(0, 2), (std::vector<uint32_t>{0, 1, 2}));
}

TEST(CHIndexTest, RanksAreAPermutation) {
  const Rect world({0, 0}, {5000, 5000});
  Rng rng(91);
  const RoadNetwork net =
      RoadNetwork::RandomGrid(world, 8, 8, 0.2, 0.1, 0.1, &rng);
  const CHIndex ch = net.BuildCHIndex();
  std::vector<bool> seen(ch.NodeCount(), false);
  for (uint32_t v = 0; v < ch.NodeCount(); ++v) {
    const uint32_t r = ch.Rank(v);
    ASSERT_LT(r, ch.NodeCount());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
  // Preprocessing is deterministic: a second build of the same network
  // (fresh witness scratch, same thread) yields the same hierarchy.
  const CHIndex again = net.BuildCHIndex();
  ASSERT_EQ(again.NodeCount(), ch.NodeCount());
  EXPECT_EQ(again.ShortcutCount(), ch.ShortcutCount());
  for (uint32_t v = 0; v < ch.NodeCount(); ++v) {
    EXPECT_EQ(again.Rank(v), ch.Rank(v)) << "node " << v;
  }
  Rng qrng(918);
  for (int trial = 0; trial < 40; ++trial) {
    const auto s = static_cast<uint32_t>(
        qrng.UniformInt(0, static_cast<int64_t>(ch.NodeCount()) - 1));
    const auto t = static_cast<uint32_t>(
        qrng.UniformInt(0, static_cast<int64_t>(ch.NodeCount()) - 1));
    EXPECT_EQ(again.Distance(s, t), ch.Distance(s, t));
  }
}

TEST(SyntheticNetworkTest, GridAndPlanarAreConnectedAndSized) {
  Rng rng(101);
  SyntheticNetworkOptions grid;
  grid.topology = SyntheticNetworkOptions::Topology::kGrid;
  grid.nodes = 900;
  const RoadNetwork g = MakeSyntheticNetwork(grid, &rng);
  EXPECT_EQ(g.NodeCount(), 900u);  // 30 x 30
  EXPECT_TRUE(g.IsConnected());

  SyntheticNetworkOptions planar;
  planar.topology = SyntheticNetworkOptions::Topology::kRandomPlanar;
  planar.nodes = 1200;
  const RoadNetwork p = MakeSyntheticNetwork(planar, &rng);
  EXPECT_EQ(p.NodeCount(), 1200u);
  EXPECT_TRUE(p.IsConnected());
  // Road-like sparsity: average degree stays small.
  EXPECT_LT(p.EdgeCount(), 6 * p.NodeCount());
}

TEST(SyntheticNetworkTest, DeterministicForFixedSeed) {
  SyntheticNetworkOptions opt;
  opt.topology = SyntheticNetworkOptions::Topology::kRandomPlanar;
  opt.nodes = 500;
  Rng r1(111), r2(111);
  const RoadNetwork a = MakeSyntheticNetwork(opt, &r1);
  const RoadNetwork b = MakeSyntheticNetwork(opt, &r2);
  ASSERT_EQ(a.NodeCount(), b.NodeCount());
  ASSERT_EQ(a.EdgeCount(), b.EdgeCount());
  for (uint32_t v = 0; v < a.NodeCount(); ++v) {
    EXPECT_EQ(a.NodePos(v).x, b.NodePos(v).x);
    EXPECT_EQ(a.NodePos(v).y, b.NodePos(v).y);
    ASSERT_EQ(a.Neighbors(v).size(), b.Neighbors(v).size());
  }
}

}  // namespace
}  // namespace mpn
