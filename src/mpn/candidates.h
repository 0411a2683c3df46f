// Candidate retrieval for tile verification.
//
// Divide-Verify (Algorithm 2) must test a tile against every POI that could
// displace the current optimum. Two sources are provided:
//
//  * FreshCandidateSource — answers each call with the POIs that pass the
//    Theorem-3 (MAX) or Theorem-6 (SUM) test for that call's regions and
//    tile. It walks the R-tree once per level-0 tile, for the tile widened
//    by a small margin, and serves the tile and its sub-tiles by filtering
//    that list (see the class comment for why this is exact).
//
//  * BufferedCandidateSource — retrieves the best b+1 GNNs once per safe-
//    region computation and serves verification from that buffer using the
//    distance-threshold slots of Theorem 4 / Theorem 7 (Algorithm 5). A
//    tile whose required displacement exceeds the largest threshold is
//    rejected outright (conservative).
//
// A source lives for one safe-region computation and is driven from one
// thread. Every call must see the same regions, which only grow between
// calls (tiles are appended, never removed or moved): both sources keep
// running per-user maxima over the tiles seen so far.
#pragma once

#include <cstdint>
#include <vector>

#include "index/gnn.h"
#include "mpn/safe_region.h"

namespace mpn {

/// A POI that must be checked during tile verification.
struct Candidate {
  uint32_t id = 0;
  Point p;
};

/// Shared statistics across candidate retrievals.
struct CandidateStats {
  uint64_t retrievals = 0;        ///< calls to GetCandidates
  uint64_t candidates_total = 0;  ///< candidates returned in total
  uint64_t rejected_by_buffer = 0;  ///< tiles rejected for exceeding beta_b
};

/// Per-user running maxima over regions that only grow: r_up_j =
/// ||u_j, R_j||_max (Theorems 3/4/6/7; Algorithm 5 line 1) and, when asked
/// for, ||po, R_j||_max (Theorem 3's ||po,R||_top). Fold() visits only the
/// tiles added since the previous Fold(). The result is the double a full
/// RectMaxDistReduce over the region returns: each bound is a max over
/// tiles of a correctly-rounded sqrt, max is associative, and sqrt is
/// monotone, so max(sqrt(a), sqrt(b)) == sqrt(max(a, b)) (geom/lanes.h).
/// An empty region's maxima are 0, the identity of a max over distances.
class RegionBounds {
 public:
  /// Folds the tiles each region gained since the last call. `po` may be
  /// null when po_max() is not needed; pass the same one on every call.
  void Fold(const std::vector<TileRegion>& regions,
            const std::vector<Point>& users, const Point* po);

  /// ||u_j, R_j||_max over the tiles folded so far.
  double user_max(size_t j) const { return user_max_[j]; }

  /// ||po, R_j||_max over the tiles folded so far.
  double po_max(size_t j) const { return po_max_[j]; }

 private:
  std::vector<size_t> folded_;  // tiles of R_j already folded
  std::vector<double> user_max_;
  std::vector<double> po_max_;
};

/// Interface used by Divide-Verify.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Computes the candidates that must be verified when tile `s` (geometric
  /// extent) is being allocated to `user_i`, given the current tile regions.
  /// Returns false when the tile must be rejected without verification
  /// (buffered mode: no valid distance-threshold slot). Successive calls
  /// must pass the same, only-growing regions (see the file comment).
  virtual bool GetCandidates(const std::vector<TileRegion>& regions,
                             size_t user_i, const Rect& s,
                             std::vector<Candidate>* out) = 0;

  const CandidateStats& stats() const { return stats_; }

  /// R-tree nodes touched by this source's own retrievals, accumulated as
  /// tight per-call deltas on the calling thread. ComputeTileMsr sums this
  /// with its setup-phase delta into MsrStats::rtree_node_accesses, so the
  /// per-recompute total is robust against any unrelated index traffic a
  /// pooled thread may run between setup and finish (the R-tree counter is
  /// thread-local and shared across computations).
  uint64_t node_accesses() const { return node_accesses_; }

 protected:
  CandidateStats stats_;
  uint64_t node_accesses_ = 0;
};

/// Theorem 3 / Theorem 6 pruned retrieval. Each call returns exactly the
/// POIs other than po that pass the per-point test for that call's regions
/// and tile, sorted by id: downstream early-exit scans feed their counters
/// into the engine digest, so the order is part of the result, and id
/// order keeps it independent of the index's leaf layout.
///
/// Reuse across sub-tiles. On a miss the source walks the tree once for the
/// call's tile widened by a margin W, keeps the POIs that pass the test
/// with W's (looser) bounds, and answers this and later calls by filtering
/// that list with each call's exact bounds. Every Theorem-3/6 bound is
/// monotone in the regions and the tile: r_up_j and ||po,R||_top are maxima
/// of MaxDist over tiles, MaxDist only grows as a rect grows (coordinate by
/// coordinate, under correct rounding), and the per-point tests add and
/// compare those values monotonically. So a later call's exact set is a
/// subset of W's list whenever
///   - it is for the same user,
///   - its tile lies inside W,
///   - no other user's region grew since the fill, and
///   - every tile this user gained since lies inside W,
/// and filtering the list then yields that set exactly. Those four checks
/// gate every reuse. The margin is there because sub-tiles are not nested
/// in their parent in floating point: a child's rounded edge can lie an ulp
/// outside the parent's, so filtering the parent's own exact list would
/// not be exact. The margin sets the hit rate only, never the result.
class FreshCandidateSource : public CandidateSource {
 public:
  /// `tree`, `users` must outlive the source. `po_id`/`po` identify the
  /// current optimum. With `use_pruning = false` every call is a full scan
  /// of the index (ablation baseline for the Theorem-3/6 pruning).
  FreshCandidateSource(const PackedRTree* tree,
                       const std::vector<Point>* users, Objective obj,
                       uint32_t po_id, const Point& po,
                       bool use_pruning = true);

  bool GetCandidates(const std::vector<TileRegion>& regions, size_t user_i,
                     const Rect& s, std::vector<Candidate>* out) override;

 private:
  /// Theorem-3 per-user bounds (MAX, m entries) or the one Theorem-6 bound
  /// (SUM) for tile `s` of `user_i`, from the folded region maxima.
  void ComputeBounds(size_t user_i, const Rect& s,
                     std::vector<double>* bounds) const;

  /// The per-point test of ComputeBounds' theorem.
  bool Passes(const Point& p, const std::vector<double>& bounds) const;

  /// True when the widened list may answer a call for `s` (the four
  /// checks in the class comment).
  bool WideListCovers(const std::vector<TileRegion>& regions, size_t user_i,
                      const Rect& s) const;

  /// Refills the widened list around `s` from the index.
  void FillWideList(const std::vector<TileRegion>& regions, size_t user_i,
                    const Rect& s);

  const PackedRTree* tree_;
  const std::vector<Point>* users_;
  Objective obj_;
  uint32_t po_id_;
  Point po_;
  double po_sum_ = 0.0;  // ||po,U||_sum (Theorem 6)
  bool use_pruning_;
  RegionBounds region_bounds_;
  std::vector<double> bounds_;  // the current call's exact bounds
  // The widened list: POIs passing the test for tile wide_ of wide_user_,
  // sorted by id, and each region's size when it was filled.
  bool has_wide_ = false;
  size_t wide_user_ = 0;
  Rect wide_;
  std::vector<size_t> wide_sizes_;
  std::vector<Candidate> wide_list_;
  std::vector<double> wide_bounds_;
};

/// Theorem 4 / Theorem 7 buffered retrieval (Algorithm 5).
class BufferedCandidateSource : public CandidateSource {
 public:
  /// Fetches the best b+1 GNNs from the tree (one-time index access) and
  /// precomputes the distance thresholds beta_1..beta_b. Buffer order is
  /// the GNN (agg, id) order.
  BufferedCandidateSource(const PackedRTree* tree,
                          const std::vector<Point>& users, Objective obj,
                          int b);

  bool GetCandidates(const std::vector<TileRegion>& regions, size_t user_i,
                     const Rect& s, std::vector<Candidate>* out) override;

  /// The optimum (first buffered GNN).
  const GnnItem& best() const { return buffer_.front(); }

  /// Distance threshold of slot z (1-based); +inf past the dataset end.
  double Beta(int z) const;

  /// Number of usable slots.
  int slot_count() const { return static_cast<int>(betas_.size()); }

 private:
  std::vector<Point> users_;
  Objective obj_;
  std::vector<GnnItem> buffer_;  // best b+1 GNNs (or fewer)
  std::vector<double> betas_;    // betas_[z-1] = beta_z, z = 1..b
  RegionBounds region_bounds_;
};

}  // namespace mpn
