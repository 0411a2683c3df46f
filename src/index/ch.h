// Contraction Hierarchies shortest-path index (Geisberger et al., WEA 2008).
//
// The road-network MPN extension prices every safe-region and meeting-point
// decision in shortest-path distance, and a rendezvous workload re-queries
// the same static graph thousands of times. A CH index pays one
// preprocessing pass (contract nodes in importance order, inserting
// shortcuts that preserve all shortest-path distances) and then answers
// point-to-point queries with two tiny *upward* Dijkstra searches instead
// of one over the whole graph.
//
// Three query families:
//  * Distance / Path — bidirectional upward search with shortcut unpacking.
//  * MakeTargetSet + SeededDistances — bucket-based many-to-many (Knopp et
//    al., ALENEX 2007): the backward upward searches from a fixed target
//    set (e.g. all POI edge endpoints) are run once and stored; each source
//    then needs a single forward upward search plus bucket scans. This is
//    the shape of the netmpn group->POI aggregate query.
//
// Determinism contract: queries return distances that are **bit-identical**
// to a textbook Dijkstra left-fold over the original edge weights. The
// search phase only *selects* a shortest path (shortcut weights are
// pre-added sums, whose grouping may differ from the fold by ulps); the
// reported distance is then re-accumulated edge-by-edge along the unpacked
// path, in path order — exactly the additions Dijkstra performs. On graphs
// whose distinct shortest paths differ by more than floating-point noise
// (any graph with continuous random weights), the selected path is the
// Dijkstra path and the refold reproduces its distance bit-for-bit; the
// property tests in tests/ch_test.cc assert this across randomized graphs.
// Preprocessing is sequential and deterministic for a fixed input: ties in
// the contraction order resolve to the smaller node id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpn {

/// Contraction Hierarchies index over a static weighted graph.
class CHIndex {
 public:
  /// One input arc. With Options::directed == false each edge is expanded
  /// into both arcs internally.
  struct InputEdge {
    uint32_t from;
    uint32_t to;
    double weight;  ///< must be >= 0 and finite
  };

  struct Options {
    bool directed = false;
  };

  /// Seed of a forward search: a start node with an initial distance (for
  /// edge positions: an endpoint with its offset).
  struct Seed {
    uint32_t node;
    double dist;
  };

  /// Precomputed backward upward searches + node buckets for a fixed set
  /// of target nodes (duplicates allowed). Build once per POI set, reuse
  /// for every group query. Memory is O(targets x upward-search size plus
  /// the unpacked-suffix cache, see below).
  ///
  /// Refold cache: every entry stores the *unpacked original arcs* of its
  /// parent shortcut as a slice into a per-target arc pool, precomputed at
  /// build time. A query's refold then walks the entry chain copying
  /// slices instead of recursively expanding shortcuts — the expansion
  /// that used to dominate repeated SeededDistances calls against the same
  /// POI target set. The arcs (and therefore the left-fold additions) are
  /// identical to the recursive expansion, so distances stay bit-identical
  /// to the Dijkstra oracle.
  class TargetSet {
   public:
    size_t TargetCount() const { return per_target_.size(); }

   private:
    friend class CHIndex;
    static constexpr uint32_t kNoEntry = 0xFFFFFFFFu;
    /// One settled node of a backward search, with its parent chain
    /// (entry 0 is the target itself).
    struct Entry {
      uint32_t node;
      uint32_t parent;  ///< entry index toward the target, or kNoEntry
      uint32_t arc;     ///< arc (node -> parent node) used, or kNoArc
      double dist;      ///< backward search distance (selection only)
      uint32_t unpack_off;  ///< slice of the unpacked weights of `arc`
      uint32_t unpack_len;  ///< (into the target's weight pool)
    };
    struct BucketItem {
      uint32_t target;
      uint32_t entry;
      double dist;
    };
    std::vector<std::vector<Entry>> per_target_;
    /// Per-target pool of unpacked original-arc weights, in path order
    /// (entries slice into it).
    std::vector<std::vector<double>> per_target_weights_;
    // Bucket CSR keyed by settled node id (sorted, unique).
    std::vector<uint32_t> bucket_node_;
    std::vector<uint32_t> bucket_off_;
    std::vector<BucketItem> bucket_items_;
  };

  CHIndex() = default;

  /// Builds the hierarchy: lazy-update edge-difference node ordering with
  /// bounded witness searches. O(n log n)-ish for road-like graphs.
  static CHIndex Build(size_t node_count, const std::vector<InputEdge>& edges,
                       const Options& options);
  static CHIndex Build(size_t node_count, const std::vector<InputEdge>& edges);

  size_t NodeCount() const { return rank_.size(); }
  size_t ShortcutCount() const { return arcs_.size() - original_arcs_; }
  /// Contraction order of `node` (0 = contracted first / least important).
  uint32_t Rank(uint32_t node) const { return rank_[node]; }

  /// Exact shortest-path distance, +infinity when unreachable. Refolded
  /// along the unpacked path (see the determinism contract above).
  double Distance(uint32_t src, uint32_t dst) const;

  /// Seeded point-to-point: min over source/target seed pairs of
  /// fold(src.dist; path) + dst.dist — bit-identical to a Dijkstra seeded
  /// with `sources` and read at the `targets` with their offsets added
  /// (the shape of an edge-position to edge-position query). One
  /// mu-terminated bidirectional search, no per-query allocation.
  double SeededDistance(const std::vector<Seed>& sources,
                        const std::vector<Seed>& targets) const;

  /// Shortest path as an inclusive node sequence ({src} when src == dst,
  /// empty when unreachable).
  std::vector<uint32_t> Path(uint32_t src, uint32_t dst) const;

  /// Precomputes the backward searches and buckets for `targets`.
  TargetSet MakeTargetSet(const std::vector<uint32_t>& targets) const;

  /// out[j] = min over seeds of fold(seed.dist; shortest path seed.node ->
  /// target j) — bit-identical to one Dijkstra seeded with all of `seeds`
  /// (+infinity when unreachable). One forward upward search total.
  void SeededDistances(const std::vector<Seed>& seeds,
                       const TargetSet& targets,
                       std::vector<double>* out) const;

 private:
  static constexpr uint32_t kNoArc = 0xFFFFFFFFu;

  /// An arc of the hierarchy. Shortcuts carry their two constituent arcs
  /// for unpacking; original arcs have left == right == kNoArc.
  struct Arc {
    uint32_t from;
    uint32_t to;
    double weight;
    uint32_t left;
    uint32_t right;
  };

  /// CSR adjacency over upward arcs. For the forward graph, entry.node is
  /// the arc head; for the backward graph, the arc tail.
  struct Csr {
    struct Entry {
      uint32_t node;
      double weight;
      uint32_t arc;
    };
    std::vector<uint32_t> off;
    std::vector<Entry> entries;
  };

  struct SearchScratch;  // stamped Dijkstra state, thread_local in ch.cc

  void BuildCsr();
  /// Runs an upward Dijkstra over `graph` from `seeds` into `s`, recording
  /// parent arcs and settle order. `stall_graph` is the opposite upward
  /// CSR: a node whose label is dominated through a higher-ranked settled
  /// neighbor is stalled (not settled, not expanded) — such nodes can never
  /// be the meeting point of a shortest up-down path (stall-on-demand,
  /// Geisberger et al. §5.1).
  static void UpwardSearch(const Csr& graph, const Csr& stall_graph,
                           const Seed* seeds, size_t seed_count,
                           SearchScratch* s);
  /// Point-to-point context threaded through ProcessTop: the opposite
  /// search (for meeting-value candidates at relax time), the best meeting
  /// value found (mu, the termination bound and push-pruning bound), and
  /// its meeting node.
  struct P2P {
    const SearchScratch* other;
    double mu;
    uint32_t meet;
  };

  /// Pops and processes one heap entry of an upward search: stale-skip,
  /// stall check, settle + relax. Returns the settled node, or the no-node
  /// sentinel when the entry was stale or stalled. With `p2p`, every label
  /// write is evaluated as a meeting candidate and pushes at or above mu
  /// are pruned.
  static uint32_t ProcessTop(const Csr& graph, const Csr& stall_graph,
                             SearchScratch* s, P2P* p2p = nullptr);
  /// Appends the original-arc expansion of `arc` (left-to-right) to `out`.
  void AppendOriginalArcs(uint32_t arc, std::vector<uint32_t>* out) const;
  /// Appends the unpacked arcs of the forward chain root -> `node` and
  /// returns the chain root (a seed node).
  uint32_t CollectForwardArcs(const SearchScratch& fwd, uint32_t node,
                              std::vector<uint32_t>* arcs) const;
  /// Appends the unpacked arcs of the backward chain `node` -> search root
  /// and returns the chain root (a seed node).
  uint32_t CollectBackwardArcs(const SearchScratch& bwd, uint32_t node,
                               std::vector<uint32_t>* arcs) const;
  /// Continues Dijkstra's left-fold from `init` along the cached unpacked
  /// suffix of target `j`'s entry chain (entry -> target) — the same arc
  /// sequence, and therefore the same additions, as unpacking the chain's
  /// shortcuts recursively.
  static double FoldTargetSuffix(const TargetSet& targets, uint32_t j,
                                 uint32_t entry, double init);
  /// Left-fold of arc weights starting at `init` — Dijkstra's accumulation.
  double FoldArcs(double init, const std::vector<uint32_t>& arcs) const;
  /// Shared p2p search (multi-seed, internal ids): returns the meeting
  /// node (or the no-node sentinel) after filling the thread-local
  /// forward/backward scratches.
  uint32_t RunP2P(const Seed* src_seeds, size_t src_count,
                  const Seed* dst_seeds, size_t dst_count) const;
  /// Per-thread query scratches (safe concurrent const queries).
  static SearchScratch& TlsFwd();
  static SearchScratch& TlsBwd();

  std::vector<uint32_t> rank_;  ///< by original node id
  /// Queries run in an internal id space renumbered by descending rank
  /// (internal 0 = contracted last = most important): the top of the
  /// hierarchy — where every search spends most of its time — occupies a
  /// contiguous, cache-dense prefix of the dist/stamp arrays and the CSRs.
  std::vector<uint32_t> perm_;  ///< original -> internal
  std::vector<uint32_t> inv_;   ///< internal -> original
  std::vector<Arc> arcs_;       ///< endpoints in internal ids after Build
  size_t original_arcs_ = 0;
  bool directed_ = false;
  Csr up_fwd_;  ///< arcs from -> to with Rank(to) > Rank(from), keyed by from
  Csr up_bwd_;  ///< arcs from -> to with Rank(from) > Rank(to), keyed by to

  /// Stall graph of a forward (or backward) search: for undirected graphs
  /// every arc has an equal-weight mirror, so the search's own CSR doubles
  /// as its stall graph (the stall scan then re-reads rows that are already
  /// cache-hot); directed graphs need the opposite CSR.
  const Csr& FwdStallGraph() const { return directed_ ? up_bwd_ : up_fwd_; }
  const Csr& BwdStallGraph() const { return directed_ ? up_fwd_ : up_bwd_; }
};

inline CHIndex CHIndex::Build(size_t node_count,
                              const std::vector<InputEdge>& edges) {
  return Build(node_count, edges, Options());
}

}  // namespace mpn
