#include "mpn/tile_msr.h"

#include <cmath>

#include "util/macros.h"

namespace mpn {

namespace {

// Tile sides below this are useless (the region degenerates to a point);
// above the upper bound the whole plane is effectively safe.
constexpr double kMinDelta = 1e-9;
constexpr double kMaxDelta = 1e14;

// Cone half-angle of a directed ordering whose user supplies no learned
// deviation: 60 degrees, in radians.
constexpr double kDefaultTheta = 1.0471975511965976;

// A scratch's snapshot may still hold another computation's regions.
void InvalidateTileSnapshot(MsrScratch* scratch) {
  if (scratch->tiles != nullptr) scratch->tiles->Invalidate();
}

bool DivideVerifyImpl(std::vector<TileRegion>* regions, size_t user_i,
                      const GridTile& tile, const Point& po,
                      CandidateSource* source, TileVerifier* verifier,
                      int level, MsrStats* stats, KernelKind kernel,
                      MsrScratch* scratch) {
  ++stats->divide_calls;
  TileRegion& region = (*regions)[user_i];
  const Rect rect = region.TileRect(tile);

  std::vector<Candidate>& candidates = scratch->candidates;
  bool ok = source->GetCandidates(*regions, user_i, rect, &candidates);
  if (ok && !candidates.empty()) {
    if (kernel == KernelKind::kSoA && verifier->lanes_capable()) {
      if (scratch->tiles == nullptr) {
        scratch->tiles = std::make_unique<TileSnapshot>();
      }
      scratch->tiles->Sync(*regions, po);
      const TileLanes lanes = scratch->tiles->Lanes(rect);
      VerifyStats scan_stats;
      for (const Candidate& c : candidates) {
        if (!verifier->VerifyTileLanes(lanes, user_i, rect, c,
                                       &scan_stats)) {
          ok = false;
          break;
        }
      }
      verifier->MergeStats(scan_stats);
    } else {
      for (const Candidate& c : candidates) {
        if (!verifier->VerifyTile(*regions, user_i, rect, c, po)) {
          ok = false;
          break;
        }
      }
    }
  }
  if (ok) {
    region.Add(tile);
    verifier->OnCommitted(user_i, region.size());
    ++stats->tiles_added;
    return true;
  }
  verifier->OnRejected();
  if (level <= 0) return false;
  GridTile children[4];
  tile.Children(children);
  bool flag = false;
  for (const GridTile& child : children) {
    if (DivideVerifyImpl(regions, user_i, child, po, source, verifier,
                         level - 1, stats, kernel, scratch)) {
      flag = true;
    }
  }
  return flag;
}

}  // namespace

bool DivideVerify(std::vector<TileRegion>* regions, size_t user_i,
                  const GridTile& tile, const Point& po,
                  CandidateSource* source, TileVerifier* verifier, int level,
                  MsrStats* stats, KernelKind kernel, MsrScratch* scratch) {
  MsrScratch local;
  if (scratch == nullptr) scratch = &local;
  InvalidateTileSnapshot(scratch);
  return DivideVerifyImpl(regions, user_i, tile, po, source, verifier, level,
                          stats, kernel, scratch);
}

MsrResult ComputeTileMsr(const PackedRTree* tree,
                         const std::vector<Point>& users,
                         Objective obj, const TileMsrConfig& config,
                         const std::vector<MotionHint>& hints) {
  MPN_ASSERT(!users.empty());
  MPN_ASSERT(!tree->empty());
  MPN_ASSERT(hints.empty() || hints.size() == users.size());
  const size_t m = users.size();

  MsrResult out;
  MsrScratch local_scratch;
  MsrScratch* scratch =
      config.scratch != nullptr ? config.scratch : &local_scratch;
  InvalidateTileSnapshot(scratch);

  // Step 1 (Algorithm 3 line 1): optimum + maximal circle radius. In
  // buffered mode the best b+1 GNNs come from a single index pass and
  // rmax == beta_1. Index traffic is accounted per phase on the calling
  // thread: the delta below covers this setup phase, and each candidate
  // source accumulates its own traversal deltas (see
  // CandidateSource::node_accesses) — so the total is a per-recompute sum
  // that other sessions' recomputes on the same pool cannot skew.
  const uint64_t setup_before = tree->node_accesses();
  std::unique_ptr<CandidateSource> source;
  double rmax = 0.0;
  if (config.buffered) {
    auto buffered = std::make_unique<BufferedCandidateSource>(
        tree, users, obj, config.buffer_b);
    out.po_id = buffered->best().id;
    out.po = buffered->best().p;
    out.po_agg = buffered->best().agg;
    rmax = buffered->Beta(1);
    source = std::move(buffered);
  } else {
    const CircleMsrResult circle = ComputeCircleMsr(tree, users, obj);
    out.po_id = circle.po_id;
    out.po = circle.po;
    out.po_agg = circle.po_agg;
    rmax = circle.rmax;
    source = std::make_unique<FreshCandidateSource>(
        tree, &users, obj, out.po_id, out.po, config.index_pruning);
  }
  const uint64_t setup_accesses = tree->node_accesses() - setup_before;

  // Degenerate radii: fall back to circles (radius-0 regions force an update
  // on any movement; unbounded regions never trigger one).
  const double delta = std::sqrt(2.0) * rmax;
  if (delta < kMinDelta || delta > kMaxDelta) {
    out.regions.reserve(m);
    for (const Point& u : users) {
      out.regions.push_back(SafeRegion::MakeCircle(Circle(u, rmax)));
    }
    out.stats.rtree_node_accesses = setup_accesses + source->node_accesses();
    return out;
  }

  // Step 2 (lines 2-4): initial regions hold the square inscribed in the
  // Theorem-1/5 circle.
  std::vector<TileRegion> regions;
  regions.reserve(m);
  for (const Point& u : users) {
    regions.emplace_back(u, delta);
    regions.back().Add(GridTile{0, 0, 0});
    ++out.stats.tiles_added;
  }

  // Verifier back-end.
  std::unique_ptr<TileVerifier> verifier;
  if (obj == Objective::kSum) {
    verifier = std::make_unique<SumHyperbolaVerifier>(out.po, m);
  } else if (config.verifier == VerifierKind::kIt) {
    verifier = std::make_unique<MaxItVerifier>();
  } else {
    verifier = std::make_unique<MaxGtVerifier>();
  }

  // Tile orderings (Fig. 8); directed when a heading hint is available.
  std::vector<TileOrdering> orderings;
  orderings.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    if (config.directed && !hints.empty() && hints[i].has_heading) {
      const double theta =
          hints[i].theta > 0.0 ? hints[i].theta : kDefaultTheta;
      orderings.emplace_back(hints[i].heading, theta);
    } else {
      orderings.emplace_back();
    }
  }

  // Step 3 (lines 5-10): alpha rounds of round-robin tile growth.
  std::vector<bool> exhausted(m, false);
  for (int t = 0; t < config.alpha; ++t) {
    bool any_active = false;
    for (size_t i = 0; i < m; ++i) {
      if (exhausted[i]) continue;
      any_active = true;
      for (;;) {
        const auto cell = orderings[i].Next(regions[i]);
        if (!cell) {
          exhausted[i] = true;
          break;
        }
        ++out.stats.tiles_tried;
        if (DivideVerifyImpl(&regions, i, *cell, out.po, source.get(),
                             verifier.get(), config.split_level, &out.stats,
                             config.kernel, scratch)) {
          orderings[i].MarkInserted();
          break;
        }
      }
    }
    if (!any_active) break;
  }

  out.regions.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    out.regions.push_back(SafeRegion::MakeTiles(std::move(regions[i])));
  }
  out.stats.verify = verifier->stats();
  out.stats.candidates = source->stats();
  out.stats.rtree_node_accesses = setup_accesses + source->node_accesses();
  return out;
}

}  // namespace mpn
