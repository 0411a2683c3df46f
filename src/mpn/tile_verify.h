// Per-tile verification back-ends for Divide-Verify (Algorithm 2).
//
// A TileVerifier answers: "given the current (already valid) tile regions R
// and the optimum po, does allocating tile s to user_i keep po optimal
// against candidate p for every location instance?" Three back-ends:
//
//  * MaxGtVerifier  — GT-Verify (Algorithm 4 / Theorem 2): partitions each
//    other user's tiles into the four dominance groups induced by
//    do = ||po,s||_max and dp = ||p,s||_min and tests the grouped region
//    sets with Lemma 1 in a single pass per user. Conservative and sound;
//    O(sum_j |R_j|) per (tile, candidate).
//
//  * MaxItVerifier  — IT-Verify: exhaustively enumerates every tile group
//    <t_1..t_m> and applies Lemma 1 per group. Exact w.r.t. tile-group
//    granularity but exponential; reference implementation for tests and
//    the ablation benchmark.
//
//  * SumHyperbolaVerifier — Algorithm 6: minimizes the comparison function
//    F(p', po, L) = sum_i (||p',l_i|| - ||po,l_i||) per user independently
//    using the exact focal-difference minimum over each tile (hyperbola
//    analysis, Fig. 12), with per-user memo tables keyed by candidate id.
//    Memo entries are validated against the owning region's size so that
//    buffered candidate sets (which may skip a candidate while a region
//    grows) can never leave a stale, unsafely large minimum behind.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "geom/focal_diff.h"
#include "geom/lanes.h"
#include "mpn/candidates.h"
#include "mpn/safe_region.h"

namespace mpn {

/// SoA view of every user's tile rects for one candidate scan of
/// Divide-Verify; the per-candidate kernels run over its contiguous lanes
/// instead of walking vector<Rect> per user. TileSnapshot owns the storage.
///
/// Layout: the tiles of user j occupy lanes [offset[j], offset[j+1]) of
/// `rects` and of every parallel array. `max_po` caches the per-tile
/// ||po, t||_max — the candidate-independent half of GT-Verify — so it is
/// computed once per tile instead of once per (tile, candidate).
struct TileLanes {
  size_t users = 0;                ///< m
  size_t total = 0;                ///< total tiles across users
  const size_t* offset = nullptr;  ///< users + 1 prefix offsets
  RectLanes rects;                 ///< `total` rect lanes
  const double* max_po = nullptr;  ///< per-tile MaxDist(po), hoisted
  double d_o = 0.0;                ///< s.MaxDist(po) of the tile under test
};

/// The storage behind TileLanes, kept for a whole safe-region computation.
/// Regions only grow within one computation, so Sync() splices in just the
/// tiles added since the previous Sync() (copying their coordinates and
/// computing their ||po, t||_max) and the scans between two commits share
/// one snapshot. Per-user tile counts cannot tell two computations apart —
/// two groups can end with equal counts — so Invalidate() must run before
/// the snapshot serves other regions or another po. Lanes() views are valid
/// until the next Sync() or Invalidate().
class TileSnapshot {
 public:
  /// Forgets every tile; the next Sync() rebuilds from the regions.
  void Invalidate();

  /// Brings the snapshot up to date with `regions`, which must extend the
  /// regions of the previous Sync() since the last Invalidate(), for the
  /// same `po`.
  void Sync(const std::vector<TileRegion>& regions, const Point& po);

  /// The view for a scan of tile `s` (d_o = s.MaxDist(po)).
  TileLanes Lanes(const Rect& s) const;

 private:
  Point po_;
  std::vector<size_t> offset_;  // users + 1 prefix offsets; empty = invalid
  std::vector<double> lo_x_, lo_y_, hi_x_, hi_y_, max_po_;
};

/// Verification statistics (shared across back-ends).
struct VerifyStats {
  uint64_t calls = 0;            ///< VerifyTile invocations
  uint64_t accepted = 0;         ///< calls returning true
  uint64_t tile_groups = 0;      ///< tile groups enumerated (IT only)
  uint64_t focal_evals = 0;      ///< focal-diff minimizations (SUM only)
  uint64_t memo_hits = 0;        ///< memo cache hits (SUM only)
};

/// Interface used by Divide-Verify.
class TileVerifier {
 public:
  virtual ~TileVerifier() = default;

  /// True iff tile `s` for `user_i` is verified safe against candidate
  /// `cand` given the current regions (optimum is `po`).
  virtual bool VerifyTile(const std::vector<TileRegion>& regions,
                          size_t user_i, const Rect& s, const Candidate& cand,
                          const Point& po) = 0;

  /// True when the back-end has a lane (SoA) kernel: Divide-Verify then
  /// scans through a TileSnapshot and drives VerifyTileLanes instead of
  /// the AoS walk.
  virtual bool lanes_capable() const { return false; }

  /// SoA verification core: decision and counters bit-identical to
  /// VerifyTile, but reading the prebuilt snapshot and counting into
  /// `stats` (Divide-Verify folds one scan's counters in with MergeStats).
  /// The lane loop runs entirely in the squared-distance domain (no
  /// per-lane sqrt; see SqrtLtThreshold for the exactness argument), which
  /// is where the SoA kernel's throughput comes from.
  virtual bool VerifyTileLanes(const TileLanes& lanes, size_t user_i,
                               const Rect& s, const Candidate& cand,
                               VerifyStats* stats) const;

  /// Folds externally accumulated counters (one lanes scan) into the
  /// member statistics.
  void MergeStats(const VerifyStats& s) {
    stats_.calls += s.calls;
    stats_.accepted += s.accepted;
    stats_.tile_groups += s.tile_groups;
    stats_.focal_evals += s.focal_evals;
    stats_.memo_hits += s.memo_hits;
  }

  /// Called after `s` was accepted for all candidates and inserted;
  /// `new_region_size` is the region's tile count after insertion.
  virtual void OnCommitted(size_t user_i, size_t new_region_size) {
    (void)user_i;
    (void)new_region_size;
  }

  /// Called when the tile's candidate scan failed (before any split).
  virtual void OnRejected() {}

  const VerifyStats& stats() const { return stats_; }

 protected:
  VerifyStats stats_;
};

/// GT-Verify for the MAX objective (Algorithm 4, Theorem 2). Stateless
/// between calls.
class MaxGtVerifier : public TileVerifier {
 public:
  bool VerifyTile(const std::vector<TileRegion>& regions, size_t user_i,
                  const Rect& s, const Candidate& cand,
                  const Point& po) override;

  /// The AoS walk behind VerifyTile, counting into `stats` instead of the
  /// member statistics: the scalar oracle the lane kernel is checked and
  /// measured against (gt_verify_test, micro_verify_bench).
  bool VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                            size_t user_i, const Rect& s,
                            const Candidate& cand, const Point& po,
                            VerifyStats* stats) const;

  bool lanes_capable() const override { return true; }

  bool VerifyTileLanes(const TileLanes& lanes, size_t user_i, const Rect& s,
                       const Candidate& cand,
                       VerifyStats* stats) const override;
};

/// IT-Verify for the MAX objective: exhaustive tile-group enumeration.
/// Aborts if the number of groups exceeds `max_groups` (guard against
/// accidental exponential blow-ups in production paths).
class MaxItVerifier : public TileVerifier {
 public:
  explicit MaxItVerifier(uint64_t max_groups = 2'000'000)
      : max_groups_(max_groups) {}

  bool VerifyTile(const std::vector<TileRegion>& regions, size_t user_i,
                  const Rect& s, const Candidate& cand,
                  const Point& po) override;

 private:
  uint64_t max_groups_;
};

/// Sum-GT-Verify (Algorithm 6) with memoization (Section 6.3.1).
class SumHyperbolaVerifier : public TileVerifier {
 public:
  /// `po` is the session optimum; `m` the group size.
  SumHyperbolaVerifier(const Point& po, size_t m) : po_(po), memo_(m) {}

  bool VerifyTile(const std::vector<TileRegion>& regions, size_t user_i,
                  const Rect& s, const Candidate& cand,
                  const Point& po) override;

  void OnCommitted(size_t user_i, size_t new_region_size) override;
  void OnRejected() override { pending_.clear(); }

 private:
  struct MemoEntry {
    double min_f = 0.0;       // min over tiles of the focal difference
    size_t region_size = 0;   // |R_j| when the entry was (re)computed
  };

  /// Memoized min_{l in R_j} (||p',l|| - ||po,l||); recomputed when R_j has
  /// grown since the entry was filled (unless refreshed by OnCommitted).
  double UserMinFocalDiff(size_t j, const TileRegion& region,
                          const Candidate& cand);

  Point po_;
  std::vector<std::unordered_map<uint32_t, MemoEntry>> memo_;
  // Focal minima of the tile currently under scan, keyed by candidate id;
  // committed into memo_[user] only when the tile is accepted.
  std::unordered_map<uint32_t, double> pending_;
};

/// Name of the lane-fold build the SoA verifier runs: "avx2" when the CPU
/// reports AVX2 (picked once, at first use), else "sse2", the x86-64
/// baseline build.
const char* LaneIsaName();

// ---------------------------------------------------------------------------
// Exposed for tests: GT-Verify's per-user lane fold (the inner loop of
// MaxGtVerifier::VerifyTileLanes) and its two builds of one body.
// ---------------------------------------------------------------------------

/// Aggregates of one user's lanes, d_o and t_lt as in VerifyTileLanes
/// (t_lt = SqrtLtThreshold(d_p)). All five are min/max selections, so any
/// lane order or split yields the same doubles; the defaults are the fold
/// identities (0 for max over nonnegative distances, +inf for min).
struct UserLaneAgg {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  double maxmax_all = 0.0;   ///< max ||po,t||_max
  double min_mx = kInf;      ///< min ||po,t||_max
  double minmin_all2 = kInf; ///< min ||p,t||_min^2
  double maxmax_s = 0.0;     ///< max ||po,t||_max over lanes mn2 <= t_lt
  double minmin_t2 = kInf;   ///< min ||p,t||_min^2 over lanes mx < d_o
};

/// Folds lanes [begin, end) of `r` (with their ||po,t||_max in `max_po`)
/// for candidate p = (px, py); built for the baseline target.
UserLaneAgg FoldUserLanesBaseline(const RectLanes& r, const double* max_po,
                                  size_t begin, size_t end, double px,
                                  double py, double d_o, double t_lt);

#if defined(__x86_64__)
/// The same fold built for AVX2. Call only where the CPU reports AVX2.
UserLaneAgg FoldUserLanesAvx2(const RectLanes& r, const double* max_po,
                              size_t begin, size_t end, double px, double py,
                              double d_o, double t_lt);
#endif

}  // namespace mpn
