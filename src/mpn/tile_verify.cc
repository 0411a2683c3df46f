#include "mpn/tile_verify.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/macros.h"

namespace mpn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Folds one lane into the five aggregates using the branch-free select
// forms (identities: 0 for max over nonnegative distances, +inf for min).
inline void FoldLane(double mn2, double mx, double d_o, double t_lt,
                     double& maxmax_all, double& min_mx, double& minmin_all2,
                     double& maxmax_s, double& minmin_t2) {
  maxmax_all = std::max(maxmax_all, mx);
  min_mx = std::min(min_mx, mx);
  minmin_all2 = std::min(minmin_all2, mn2);
  maxmax_s = std::max(maxmax_s, mn2 <= t_lt ? mx : 0.0);
  minmin_t2 = std::min(minmin_t2, mx < d_o ? mn2 : kInf);
}

// Lanes folded side by side (a power of two): one AVX2 register of
// doubles, two SSE2 ones.
constexpr size_t kFoldWidth = 4;

// The one body of the per-user lane fold. Each of the kFoldWidth
// accumulator columns is its own min/max chain, so the main loop is
// kFoldWidth independent folds rather than one reduction, and the compiler
// vectorizes it under strict IEEE semantics (max/min/cmp/blend over packed
// doubles). Every aggregate is a min/max selection over values that are
// never NaN or -0.0, so the column split cannot change a bit. Runs shorter
// than the width skip the columns; the scalar loop finishes every run.
// always_inline: each wrapper below compiles the body for its own target.
__attribute__((always_inline)) inline UserLaneAgg FoldUserLanesBody(
    const RectLanes& r, const double* max_po, size_t begin, size_t end,
    double px, double py, double d_o, double t_lt) {
  UserLaneAgg a;
  size_t k = begin;
  if (end - k >= kFoldWidth) {
    double maxmax_all[kFoldWidth], min_mx[kFoldWidth];
    double minmin_all2[kFoldWidth], maxmax_s[kFoldWidth];
    double minmin_t2[kFoldWidth];
    for (size_t l = 0; l < kFoldWidth; ++l) {
      maxmax_all[l] = maxmax_s[l] = 0.0;
      min_mx[l] = minmin_all2[l] = minmin_t2[l] = kInf;
    }
    for (; end - k >= kFoldWidth; k += kFoldWidth) {
      for (size_t l = 0; l < kFoldWidth; ++l) {
        FoldLane(LaneMinDist2(r, k + l, px, py), max_po[k + l], d_o, t_lt,
                 maxmax_all[l], min_mx[l], minmin_all2[l], maxmax_s[l],
                 minmin_t2[l]);
      }
    }
    // Halve the columns down to column 0; folding them into the identities
    // instead costs a compare and a blend per aggregate.
    for (size_t w = kFoldWidth / 2; w > 0; w /= 2) {
      for (size_t l = 0; l < w; ++l) {
        maxmax_all[l] = std::max(maxmax_all[l], maxmax_all[l + w]);
        min_mx[l] = std::min(min_mx[l], min_mx[l + w]);
        minmin_all2[l] = std::min(minmin_all2[l], minmin_all2[l + w]);
        maxmax_s[l] = std::max(maxmax_s[l], maxmax_s[l + w]);
        minmin_t2[l] = std::min(minmin_t2[l], minmin_t2[l + w]);
      }
    }
    a = UserLaneAgg{maxmax_all[0], min_mx[0], minmin_all2[0], maxmax_s[0],
                    minmin_t2[0]};
  }
  for (; k < end; ++k) {
    FoldLane(LaneMinDist2(r, k, px, py), max_po[k], d_o, t_lt, a.maxmax_all,
             a.min_mx, a.minmin_all2, a.maxmax_s, a.minmin_t2);
  }
  return a;
}

using FoldFn = UserLaneAgg (*)(const RectLanes&, const double*, size_t,
                               size_t, double, double, double, double);

// The build the CPU runs, picked once at first use.
FoldFn PickedFold() {
  static const FoldFn fold = [] {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) return &FoldUserLanesAvx2;
#endif
    return &FoldUserLanesBaseline;
  }();
  return fold;
}

}  // namespace

// Both builds start on a 64-byte boundary, so unrelated code linked
// before them cannot move their loops across cache lines. Without it,
// deleting 1,264 bytes of engine code moved FoldUserLanesAvx2 from
// offset 0 to 16 mod 64, and max_tiled read +4.2 % and +4.7 %
// server_ms_per_update (3/10 pairs better in each of two sets) with no
// change to the code it runs.
__attribute__((aligned(64))) UserLaneAgg FoldUserLanesBaseline(
    const RectLanes& r, const double* max_po, size_t begin, size_t end,
    double px, double py, double d_o, double t_lt) {
  return FoldUserLanesBody(r, max_po, begin, end, px, py, d_o, t_lt);
}

#if defined(__x86_64__)
// A per-function target (no global -mavx2), so the binary still runs on
// baseline x86-64. AVX2 only, not FMA; with -ffp-contract=off as well,
// dx*dx + dy*dy is never fused.
__attribute__((target("avx2"), aligned(64))) UserLaneAgg FoldUserLanesAvx2(
    const RectLanes& r, const double* max_po, size_t begin, size_t end,
    double px, double py, double d_o, double t_lt) {
  return FoldUserLanesBody(r, max_po, begin, end, px, py, d_o, t_lt);
}
#endif

const char* LaneIsaName() {
  return PickedFold() == &FoldUserLanesBaseline ? "sse2" : "avx2";
}

bool TileVerifier::VerifyTileLanes(const TileLanes& lanes, size_t user_i,
                                   const Rect& s, const Candidate& cand,
                                   VerifyStats* stats) const {
  (void)lanes;
  (void)user_i;
  (void)s;
  (void)cand;
  (void)stats;
  MPN_ASSERT_MSG(false, "VerifyTileLanes on a lanes-incapable verifier");
  return false;
}

void TileSnapshot::Invalidate() { offset_.clear(); }

void TileSnapshot::Sync(const std::vector<TileRegion>& regions,
                        const Point& po) {
  const size_t m = regions.size();
  if (offset_.empty()) {
    po_ = po;
    offset_.assign(m + 1, 0);
    for (std::vector<double>* lane :
         {&lo_x_, &lo_y_, &hi_x_, &hi_y_, &max_po_}) {
      lane->clear();
    }
  }
  MPN_ASSERT_MSG(offset_.size() == m + 1 && po == po_,
                 "TileSnapshot synced to another computation");
  for (size_t j = 0; j < m; ++j) {
    const size_t have = offset_[j + 1] - offset_[j];
    const size_t want = regions[j].size();
    if (want == have) continue;
    MPN_ASSERT_MSG(want > have, "a region shrank within one computation");
    // Splice user j's new tiles in after its old ones; later users shift.
    const RectLanes src = regions[j].lanes();
    const size_t at = offset_[j + 1];
    const size_t added = want - have;
    const auto splice = [&](std::vector<double>* lane, const double* from) {
      lane->insert(lane->begin() + static_cast<ptrdiff_t>(at), from + have,
                   from + want);
    };
    splice(&lo_x_, src.lo_x);
    splice(&lo_y_, src.lo_y);
    splice(&hi_x_, src.hi_x);
    splice(&hi_y_, src.hi_y);
    max_po_.insert(max_po_.begin() + static_cast<ptrdiff_t>(at), added, 0.0);
    RectMaxDistLanes(RectLanes{lo_x_.data() + at, lo_y_.data() + at,
                               hi_x_.data() + at, hi_y_.data() + at, added},
                     po_, max_po_.data() + at);
    for (size_t k = j + 1; k <= m; ++k) offset_[k] += added;
  }
}

TileLanes TileSnapshot::Lanes(const Rect& s) const {
  MPN_DCHECK(!offset_.empty());
  TileLanes out;
  out.users = offset_.size() - 1;
  out.total = lo_x_.size();
  out.offset = offset_.data();
  out.rects = RectLanes{lo_x_.data(), lo_y_.data(), hi_x_.data(),
                        hi_y_.data(), out.total};
  out.max_po = max_po_.data();
  out.d_o = s.MaxDist(po_);
  return out;
}

// ---------------------------------------------------------------------------
// MaxGtVerifier (Algorithm 4 / Theorem 2)
// ---------------------------------------------------------------------------

bool MaxGtVerifier::VerifyTile(const std::vector<TileRegion>& regions,
                               size_t user_i, const Rect& s,
                               const Candidate& cand, const Point& po) {
  return VerifyTileThreadSafe(regions, user_i, s, cand, po, &stats_);
}

bool MaxGtVerifier::VerifyTileThreadSafe(const std::vector<TileRegion>& regions,
                                         size_t user_i, const Rect& s,
                                         const Candidate& cand, const Point& po,
                                         VerifyStats* stats) const {
  ++stats->calls;
  const Point& p = cand.p;
  const size_t m = regions.size();
  const double d_o = s.MaxDist(po);   // dominant max dist of the new tile
  const double d_p = s.MinDist(p);    // dominant min dist of the new tile

  // One pass over every other user's tiles computes, simultaneously:
  //  - whole-region aggregates (for the line-1 Lemma-1 check and case 4),
  //  - the four dominance-group aggregates of Theorem 2.
  double full_top = d_o;   // ||po, R'||_top with R'_i = {s}
  double full_bot = d_p;   // ||p, R'||_bot
  double m_star = 0.0;     // max_{j != i} ||po, R_j||_max   (case 4)
  double n_star = 0.0;     // max_{j != i} ||p,  R_j||_min   (case 4)
  bool any_dd_empty = false;   // some G_j^{down,down} empty  -> case 1 vacuous
  bool any_s_empty = false;    // some G^{dd} u G^{ud} empty  -> case 2 vacuous
  bool any_t_empty = false;    // some G^{dd} u G^{du} empty  -> case 3 vacuous
  double case2_top = d_o;      // max maxdist over mindist<dp tiles (+ d_o)
  double case3_bot = d_p;      // max over j of min mindist over maxdist<do
  bool has_other = false;

  for (size_t j = 0; j < m; ++j) {
    if (j == user_i) continue;
    has_other = true;
    const TileRegion& rj = regions[j];
    MPN_DCHECK(!rj.empty());
    bool has_dd = false, has_s = false, has_t = false;
    double maxmax_all = 0.0, minmin_all = kInf;
    double maxmax_s = 0.0, minmin_t = kInf;
    for (const Rect& t : rj.rects()) {
      const double mx = t.MaxDist(po);
      const double mn = t.MinDist(p);
      maxmax_all = std::max(maxmax_all, mx);
      minmin_all = std::min(minmin_all, mn);
      const bool below_do = mx < d_o;
      const bool below_dp = mn < d_p;
      if (below_do && below_dp) has_dd = true;
      if (below_dp) {  // G^{dd} u G^{ud}: u_i stays dominant-min
        has_s = true;
        maxmax_s = std::max(maxmax_s, mx);
      }
      if (below_do) {  // G^{dd} u G^{du}: u_i stays dominant-max
        has_t = true;
        minmin_t = std::min(minmin_t, mn);
      }
    }
    full_top = std::max(full_top, maxmax_all);
    full_bot = std::max(full_bot, minmin_all);
    m_star = std::max(m_star, maxmax_all);
    n_star = std::max(n_star, minmin_all);
    if (!has_dd) any_dd_empty = true;
    if (!has_s) any_s_empty = true;
    if (!has_t) any_t_empty = true;
    if (has_s) case2_top = std::max(case2_top, maxmax_s);
    if (has_t) case3_bot = std::max(case3_bot, minmin_t);
  }

  // Single user: only the new tile matters.
  if (!has_other) {
    const bool ok = d_o <= d_p;
    if (ok) ++stats->accepted;
    return ok;
  }

  // Line 1: Lemma 1 on the whole regions with {s} for user_i.
  if (full_top <= full_bot) {
    ++stats->accepted;
    return true;
  }

  // Case 1: u_i dominates both po and p. All other users pick from G^{dd}.
  const bool case1 = any_dd_empty || d_o <= d_p;
  // Case 2: u_i is the dominant-min user; another user dominates po.
  const bool case2 = any_s_empty || case2_top <= d_p;
  // Case 3: u_i is the dominant-max user; another user dominates p.
  const bool case3 = any_t_empty || d_o <= case3_bot;
  if (!case1 || !case2 || !case3) return false;

  // Case 4: both dominant users are others. If R_i already holds a tile s'
  // that is at least as "hard" as s (||po,s'||_max >= do and
  // ||p,s'||_min <= dp), the previously verified groups cover these; else
  // require the worst cross-combination to stay valid:
  //   M* <= max(dp, N*), since every such group has dominant max <= M* and
  //   dominant min >= max(dp, N*).
  bool has_role_tile = false;
  for (const Rect& t : regions[user_i].rects()) {
    if (t.MaxDist(po) >= d_o && t.MinDist(p) <= d_p) {
      has_role_tile = true;
      break;
    }
  }
  const bool case4 = has_role_tile || m_star <= std::max(d_p, n_star);
  if (case4) ++stats->accepted;
  return case4;
}

bool MaxGtVerifier::VerifyTileLanes(const TileLanes& lanes, size_t user_i,
                                    const Rect& s, const Candidate& cand,
                                    VerifyStats* stats) const {
  // Decision-identical to VerifyTileThreadSafe, but the lane loop runs in
  // the squared-distance domain with no per-lane sqrt or branch:
  //  - mx = ||po,t||_max is hoisted into lanes.max_po at scan build (the
  //    candidate-independent half of every GT predicate);
  //  - mn2 below is the exact square the scalar path feeds to sqrt, so
  //    mn < d_p becomes mn2 <= SqrtLtThreshold(d_p) (see lanes.h);
  //  - every aggregate is a min/max selection, which commutes with the
  //    monotone correctly-rounded sqrt, so folding squares and taking one
  //    sqrt per user yields the identical double;
  //  - the group-nonempty flags are derived from masked minima after the
  //    loop: "some lane passes a <= threshold" iff "the masked min does";
  //  - conditional updates become selects with fold identities (0 for max
  //    over nonnegative distances, +inf for min).
  ++stats->calls;
  const double d_o = lanes.d_o;          // == s.MaxDist(po)
  const double d_p = s.MinDist(cand.p);  // dominant min dist of the new tile
  const double t_lt = SqrtLtThreshold(d_p);
  const double px = cand.p.x, py = cand.p.y;

  double full_top = d_o;
  double full_bot = d_p;
  double m_star = 0.0;
  double n_star = 0.0;
  bool any_dd_empty = false;
  bool any_s_empty = false;
  bool any_t_empty = false;
  double case2_top = d_o;
  double case3_bot = d_p;
  bool has_other = false;

  const size_t m = lanes.users;
  for (size_t j = 0; j < m; ++j) {
    if (j == user_i) continue;
    has_other = true;
    const size_t begin = lanes.offset[j];
    const size_t end = lanes.offset[j + 1];
    MPN_DCHECK(begin < end);
    const UserLaneAgg agg = PickedFold()(lanes.rects, lanes.max_po, begin,
                                         end, px, py, d_o, t_lt);
    const bool has_s = agg.minmin_all2 <= t_lt;   // some mn < d_p
    const bool has_t = agg.min_mx < d_o;          // some mx < d_o
    const bool has_dd = agg.minmin_t2 <= t_lt;    // some lane in both groups
    const double minmin_all = std::sqrt(agg.minmin_all2);
    const double minmin_t = std::sqrt(agg.minmin_t2);  // +inf stays +inf
    full_top = std::max(full_top, agg.maxmax_all);
    full_bot = std::max(full_bot, minmin_all);
    m_star = std::max(m_star, agg.maxmax_all);
    n_star = std::max(n_star, minmin_all);
    any_dd_empty |= !has_dd;
    any_s_empty |= !has_s;
    any_t_empty |= !has_t;
    if (has_s) case2_top = std::max(case2_top, agg.maxmax_s);
    if (has_t) case3_bot = std::max(case3_bot, minmin_t);
  }

  if (!has_other) {
    const bool ok = d_o <= d_p;
    if (ok) ++stats->accepted;
    return ok;
  }

  if (full_top <= full_bot) {
    ++stats->accepted;
    return true;
  }

  const bool case1 = any_dd_empty || d_o <= d_p;
  const bool case2 = any_s_empty || case2_top <= d_p;
  const bool case3 = any_t_empty || d_o <= case3_bot;
  if (!case1 || !case2 || !case3) return false;

  // Case 4 reads user_i's own lanes; the squared test mirrors the scalar
  // t.MinDist(p) <= d_p via the non-strict threshold.
  bool has_role_tile = false;
  const double t_le = SqrtLeqThreshold(d_p);
  const RectLanes& r = lanes.rects;
  for (size_t k = lanes.offset[user_i]; k < lanes.offset[user_i + 1]; ++k) {
    if (lanes.max_po[k] >= d_o && LaneMinDist2(r, k, px, py) <= t_le) {
      has_role_tile = true;
      break;
    }
  }
  const bool case4 = has_role_tile || m_star <= std::max(d_p, n_star);
  if (case4) ++stats->accepted;
  return case4;
}

// ---------------------------------------------------------------------------
// MaxItVerifier (exhaustive reference)
// ---------------------------------------------------------------------------

bool MaxItVerifier::VerifyTile(const std::vector<TileRegion>& regions,
                               size_t user_i, const Rect& s,
                               const Candidate& cand, const Point& po) {
  ++stats_.calls;
  const Point& p = cand.p;
  const size_t m = regions.size();

  uint64_t combos = 1;
  for (size_t j = 0; j < m; ++j) {
    if (j == user_i) continue;
    MPN_ASSERT(!regions[j].empty());
    combos *= regions[j].size();
    MPN_ASSERT_MSG(combos <= max_groups_, "IT-Verify tile-group explosion");
  }

  // Odometer over the other users' tiles; user_i is pinned to s.
  std::vector<size_t> idx(m, 0);
  const double s_max_po = s.MaxDist(po);
  const double s_min_p = s.MinDist(p);
  for (;;) {
    ++stats_.tile_groups;
    double top = s_max_po, bot = s_min_p;
    for (size_t j = 0; j < m; ++j) {
      if (j == user_i) continue;
      const Rect& t = regions[j].rects()[idx[j]];
      top = std::max(top, t.MaxDist(po));
      bot = std::max(bot, t.MinDist(p));
    }
    if (top > bot) return false;
    // Advance the odometer.
    size_t j = 0;
    for (; j < m; ++j) {
      if (j == user_i) continue;
      if (++idx[j] < regions[j].size()) break;
      idx[j] = 0;
    }
    if (j >= m) break;
  }
  ++stats_.accepted;
  return true;
}

// ---------------------------------------------------------------------------
// SumHyperbolaVerifier (Algorithm 6 + memoization)
// ---------------------------------------------------------------------------

double SumHyperbolaVerifier::UserMinFocalDiff(size_t j,
                                              const TileRegion& region,
                                              const Candidate& cand) {
  auto& table = memo_[j];
  auto it = table.find(cand.id);
  if (it != table.end() && it->second.region_size == region.size()) {
    ++stats_.memo_hits;
    return it->second.min_f;
  }
  double f = kInf;
  for (const Rect& t : region.rects()) {
    f = std::min(f, MinFocalDiffOverRect(cand.p, po_, t));
    ++stats_.focal_evals;
  }
  table[cand.id] = MemoEntry{f, region.size()};
  return f;
}

bool SumHyperbolaVerifier::VerifyTile(const std::vector<TileRegion>& regions,
                                      size_t user_i, const Rect& s,
                                      const Candidate& cand, const Point& po) {
  (void)po;  // fixed at construction (po_); parameter kept for interface
  ++stats_.calls;
  const double f_new = MinFocalDiffOverRect(cand.p, po_, s);
  ++stats_.focal_evals;
  double total = f_new;
  for (size_t j = 0; j < regions.size(); ++j) {
    if (j == user_i) continue;
    MPN_DCHECK(!regions[j].empty());
    total += UserMinFocalDiff(j, regions[j], cand);
    if (total < -1e12) break;  // early exit on hopeless sums
  }
  if (total < 0.0) return false;
  pending_[cand.id] = f_new;
  ++stats_.accepted;
  return true;
}

void SumHyperbolaVerifier::OnCommitted(size_t user_i, size_t new_region_size) {
  auto& table = memo_[user_i];
  for (const auto& [id, f] : pending_) {
    auto it = table.find(id);
    if (it != table.end()) {
      it->second.min_f = std::min(it->second.min_f, f);
      it->second.region_size = new_region_size;
    }
  }
  // Entries not refreshed above keep their old region_size and will be
  // recomputed on the next read (correctness under buffered candidate sets).
  pending_.clear();
}

}  // namespace mpn
