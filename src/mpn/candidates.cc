#include "mpn/candidates.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/macros.h"

namespace mpn {

namespace {

// The lanes of a region's tiles from index `first` on.
RectLanes LanesFrom(const RectLanes& r, size_t first) {
  return RectLanes{r.lo_x + first, r.lo_y + first, r.hi_x + first,
                   r.hi_y + first, r.n - first};
}

// `s` grown on every side by 1e-9 of its largest coordinate or side: about
// 2^22 ulps, far more than the few by which a sub-tile's rounded edges can
// stray outside its parent's, yet too little to add more than a stray POI
// to the widened retrieval.
Rect Widen(const Rect& s) {
  const double scale =
      std::max({std::abs(s.lo.x), std::abs(s.lo.y), std::abs(s.hi.x),
                std::abs(s.hi.y), s.Width(), s.Height()});
  const double margin = 1e-9 * scale;
  return Rect({s.lo.x - margin, s.lo.y - margin},
              {s.hi.x + margin, s.hi.y + margin});
}

// Normalizes candidate order across index layouts: the traversal emits in
// layout order, but the verify loop early-exits per candidate and its
// counters go into the result digest, so the scan order must be a function
// of the candidate *set* only.
void SortCandidatesById(std::vector<Candidate>* out) {
  std::sort(out->begin(), out->end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
}

}  // namespace

void RegionBounds::Fold(const std::vector<TileRegion>& regions,
                        const std::vector<Point>& users, const Point* po) {
  const size_t m = regions.size();
  MPN_DCHECK(users.size() == m);
  if (folded_.size() != m) {
    folded_.assign(m, 0);
    user_max_.assign(m, 0.0);
    po_max_.assign(m, 0.0);
  }
  for (size_t j = 0; j < m; ++j) {
    const size_t n = regions[j].size();
    if (n == folded_[j]) continue;
    MPN_ASSERT_MSG(n > folded_[j], "a region shrank within one computation");
    const RectLanes added = LanesFrom(regions[j].lanes(), folded_[j]);
    user_max_[j] = std::max(user_max_[j], RectMaxDistReduce(added, users[j]));
    if (po != nullptr) {
      po_max_[j] = std::max(po_max_[j], RectMaxDistReduce(added, *po));
    }
    folded_[j] = n;
  }
}

FreshCandidateSource::FreshCandidateSource(const PackedRTree* tree,
                                           const std::vector<Point>* users,
                                           Objective obj, uint32_t po_id,
                                           const Point& po, bool use_pruning)
    : tree_(tree),
      users_(users),
      obj_(obj),
      po_id_(po_id),
      po_(po),
      po_sum_(AggDist(po, *users, Objective::kSum)),
      use_pruning_(use_pruning) {}

void FreshCandidateSource::ComputeBounds(size_t user_i, const Rect& s,
                                         std::vector<double>* bounds) const {
  const std::vector<Point>& users = *users_;
  const size_t m = users.size();
  // r_up_j: user j's largest displacement; tile s counts for user_i.
  const auto r_up = [&](size_t j) {
    const double r = region_bounds_.user_max(j);
    return j == user_i ? std::max(r, s.MaxDist(users[j])) : r;
  };
  if (obj_ == Objective::kMax) {
    // Theorem 3: p survives iff ||p,u_j|| <= ||po,R||_top + r_up_j for all j.
    double top = s.MaxDist(po_);
    for (size_t j = 0; j < m; ++j) {
      top = std::max(top, region_bounds_.po_max(j));
    }
    bounds->resize(m);
    for (size_t j = 0; j < m; ++j) (*bounds)[j] = top + r_up(j);
  } else {
    // Theorem 6: p survives iff ||p,U||_sum <= ||po,U||_sum + 2*sum_j r_up_j.
    double sum_r = 0.0;
    for (size_t j = 0; j < m; ++j) sum_r += r_up(j);
    bounds->assign(1, po_sum_ + 2.0 * sum_r);
  }
}

bool FreshCandidateSource::Passes(const Point& p,
                                  const std::vector<double>& bounds) const {
  const std::vector<Point>& users = *users_;
  if (obj_ == Objective::kSum) {
    return AggDist(p, users, Objective::kSum) <= bounds[0];
  }
  for (size_t j = 0; j < users.size(); ++j) {
    if (Dist(p, users[j]) > bounds[j]) return false;
  }
  return true;
}

bool FreshCandidateSource::WideListCovers(
    const std::vector<TileRegion>& regions, size_t user_i,
    const Rect& s) const {
  if (!has_wide_ || user_i != wide_user_ || !wide_.ContainsRect(s)) {
    return false;
  }
  for (size_t j = 0; j < regions.size(); ++j) {
    const size_t filled = wide_sizes_[j];
    if (j != user_i) {
      if (regions[j].size() != filled) return false;
      continue;
    }
    const std::vector<Rect>& rects = regions[j].rects();
    for (size_t k = filled; k < rects.size(); ++k) {
      if (!wide_.ContainsRect(rects[k])) return false;
    }
  }
  return true;
}

void FreshCandidateSource::FillWideList(const std::vector<TileRegion>& regions,
                                        size_t user_i, const Rect& s) {
  const std::vector<Point>& users = *users_;
  const size_t m = users.size();
  has_wide_ = true;
  wide_user_ = user_i;
  wide_ = Widen(s);
  wide_sizes_.resize(m);
  for (size_t j = 0; j < m; ++j) wide_sizes_[j] = regions[j].size();
  ComputeBounds(user_i, wide_, &wide_bounds_);
  const std::vector<double>& b = wide_bounds_;
  wide_list_.clear();
  const auto keep = [&](const Point& p, uint32_t id) {
    if (id != po_id_ && Passes(p, b)) wide_list_.push_back({id, p});
  };
  if (obj_ == Objective::kMax) {
    tree_->Traverse(
        [&](const Rect& mbr) {
          for (size_t j = 0; j < m; ++j) {
            if (mbr.MinDist(users[j]) > b[j]) return false;
          }
          return true;
        },
        keep);
  } else {
    tree_->Traverse(
        [&](const Rect& mbr) {
          return AggMinDist(mbr, users, Objective::kSum) <= b[0];
        },
        keep);
  }
  SortCandidatesById(&wide_list_);
}

bool FreshCandidateSource::GetCandidates(
    const std::vector<TileRegion>& regions, size_t user_i, const Rect& s,
    std::vector<Candidate>* out) {
  out->clear();
  ++stats_.retrievals;
  MPN_DCHECK(regions.size() == users_->size());
  // Tight per-call delta on the calling thread (see node_accesses()).
  const uint64_t accesses_before = tree_->node_accesses();

  if (!use_pruning_) {  // ablation baseline: every non-result POI
    tree_->Traverse([](const Rect&) { return true; },
                    [&](const Point& p, uint32_t id) {
                      if (id != po_id_) out->push_back({id, p});
                    });
    SortCandidatesById(out);
  } else {
    region_bounds_.Fold(regions, *users_, &po_);
    if (!WideListCovers(regions, user_i, s)) {
      FillWideList(regions, user_i, s);
    }
    ComputeBounds(user_i, s, &bounds_);
    for (const Candidate& c : wide_list_) {
      if (Passes(c.p, bounds_)) out->push_back(c);
    }
  }
  stats_.candidates_total += out->size();
  node_accesses_ += tree_->node_accesses() - accesses_before;
  return true;
}

BufferedCandidateSource::BufferedCandidateSource(
    const PackedRTree* tree, const std::vector<Point>& users, Objective obj,
    int b)
    : users_(users), obj_(obj) {
  MPN_ASSERT(b >= 1);
  buffer_ = FindGnn(tree, users_, obj, static_cast<size_t>(b) + 1);
  MPN_ASSERT(!buffer_.empty());
  const double denom =
      obj == Objective::kMax ? 2.0 : 2.0 * static_cast<double>(users_.size());
  betas_.reserve(static_cast<size_t>(b));
  for (int z = 1; z <= b; ++z) {
    // beta_z = (agg(p^{z+1}) - agg(po)) / denom; +inf when the dataset has
    // no (z+1)-th point (then no point outside the buffer can ever win).
    if (static_cast<size_t>(z) < buffer_.size()) {
      betas_.push_back((buffer_[static_cast<size_t>(z)].agg - buffer_[0].agg) /
                       denom);
    } else {
      betas_.push_back(std::numeric_limits<double>::infinity());
    }
  }
}

double BufferedCandidateSource::Beta(int z) const {
  MPN_ASSERT(z >= 1 && static_cast<size_t>(z) <= betas_.size());
  return betas_[static_cast<size_t>(z) - 1];
}

bool BufferedCandidateSource::GetCandidates(
    const std::vector<TileRegion>& regions, size_t user_i, const Rect& s,
    std::vector<Candidate>* out) {
  out->clear();
  ++stats_.retrievals;
  const size_t m = users_.size();
  MPN_DCHECK(regions.size() == m);
  // Algorithm 5 line 1: the largest displacement any user can have (an
  // empty region contributes 0, which leaves the max unchanged).
  region_bounds_.Fold(regions, users_, nullptr);
  double dist = s.MaxDist(users_[user_i]);
  for (size_t j = 0; j < m; ++j) {
    dist = std::max(dist, region_bounds_.user_max(j));
  }
  // Minimum slot z with dist <= beta_z (binary search; betas are sorted).
  const auto it = std::lower_bound(betas_.begin(), betas_.end(), dist);
  if (it == betas_.end()) {
    ++stats_.rejected_by_buffer;
    return false;  // Algorithm 5 lines 3-4
  }
  const int z = static_cast<int>(it - betas_.begin()) + 1;
  // Verify against P*_{1..z} - {po} = buffered points 2..z.
  for (int j = 1; j < z && static_cast<size_t>(j) < buffer_.size(); ++j) {
    out->push_back({buffer_[static_cast<size_t>(j)].id,
                    buffer_[static_cast<size_t>(j)].p});
  }
  stats_.candidates_total += out->size();
  return true;
}

}  // namespace mpn
