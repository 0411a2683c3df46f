// Tile-based safe regions (Section 5): Divide-Verify (Algorithm 2) and
// Tile-MSR (Algorithm 3), with GT-Verify, Theorem-3/6 index pruning,
// directed orderings and the Section-5.4 buffering optimization — and the
// Sum-MPN extensions of Section 6.3.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "index/gnn.h"
#include "mpn/candidates.h"
#include "mpn/circle_msr.h"
#include "mpn/safe_region.h"
#include "mpn/tile_ordering.h"
#include "mpn/tile_verify.h"
#include "util/arena.h"

namespace mpn {

/// Verification back-end selector.
enum class VerifierKind {
  kGt,  ///< GT-Verify (Algorithm 4) / Sum hyperbola verify (Algorithm 6)
  kIt,  ///< exhaustive IT-Verify (MAX only; reference & ablation)
};

/// Inner-kernel selector for the candidate scan. Both kernels make the
/// same decisions and produce the same counters bit-for-bit (asserted by
/// the differential tests and the lifecycle fuzzer); kScalar exists as the
/// reference for differential testing and ablation.
enum class KernelKind {
  kScalar,  ///< per-(tile, candidate) AoS walk over vector<Rect>
  kSoA,     ///< batched SoA lane kernels (default; geom/lanes.h)
};

/// Scratch reused across safe-region computations. Owned by the caller
/// (MpnServer keeps one per session, Circle sessions included) so steady-
/// state recomputes perform no allocator traffic; ComputeTileMsr falls back
/// to a local one when the config carries none. Lifetimes:
///  - `candidates` holds one Divide-Verify call's candidate list;
///  - `arena` holds one scan's fan-out chunk state and is reset per scan;
///  - `tiles` is the SoA snapshot of the regions, allocated on the first
///    lanes scan and kept for a whole computation: each scan syncs it,
///    which copies tiles only after a region grew. ComputeTileMsr and
///    DivideVerify invalidate it on entry, since one scratch serves many
///    groups.
/// Not thread-safe — callers must serialize recomputes sharing a scratch
/// (GroupSession already serializes its own).
struct MsrScratch {
  Arena arena;
  std::vector<Candidate> candidates;
  std::unique_ptr<TileSnapshot> tiles;
};

/// Abstract parallel executor for the per-user candidate fan-out inside
/// Divide-Verify. Implementations (the engine wraps util/thread_pool.h)
/// must partition [0, n) into chunks of exactly `grain` indices (last chunk
/// may be short), run body(begin, end) for each — possibly concurrently —
/// and return only after every chunk finished. The chunk layout must never
/// depend on the worker count; that is what keeps verification statistics
/// bit-identical across thread counts.
class VerifyExecutor {
 public:
  virtual ~VerifyExecutor() = default;
  virtual void Run(size_t n, size_t grain,
                   const std::function<void(size_t begin, size_t end)>& body) = 0;
};

/// Knobs of the optional parallel candidate fan-out inside Divide-Verify.
/// With a null executor the scan is the sequential legacy loop (stops at
/// the first failing candidate). With an executor, chunks of kGrain
/// candidates are verified concurrently — each chunk still early-exits, so
/// counters stay deterministic: the chunk layout is fixed.
struct VerifyFanout {
  /// Candidates per fan-out chunk.
  static constexpr size_t kGrain = 16;
  VerifyExecutor* executor = nullptr;
  /// Below this many candidates the scan stays sequential (fan-out
  /// overhead would dominate).
  size_t min_candidates = 32;
};

/// Configuration of the tile-based safe-region computation.
struct TileMsrConfig {
  int alpha = 30;         ///< tile limit per user (Table 2 default)
  int split_level = 2;    ///< L, recursion depth of Divide-Verify
  bool directed = false;  ///< Tile-D: directed tile ordering
  bool buffered = false;  ///< Tile-D-b: Section-5.4 buffering
  int buffer_b = 100;     ///< b, buffer size (paper recommends 10..100)
  VerifierKind verifier = VerifierKind::kGt;
  /// Theorem-3/6 index pruning during candidate retrieval. Disable only for
  /// the ablation benchmarks (full scans are drastically slower).
  bool index_pruning = true;
  /// Parallel per-user verification fan-out (engine integration; defaults
  /// to sequential).
  VerifyFanout fanout;
  /// Candidate-scan kernel. kSoA batches the scan through the lane kernels
  /// of geom/lanes.h; kScalar keeps the reference AoS walk selectable for
  /// differential testing. Results are bit-identical either way.
  KernelKind kernel = KernelKind::kSoA;
  /// Optional caller-owned scratch (arena + candidate buffer) reused
  /// across computations; null allocates per call.
  MsrScratch* scratch = nullptr;
};

/// Per-computation statistics (drives the running-time/ablation benches).
struct MsrStats {
  uint64_t tiles_tried = 0;        ///< level-0 cells pulled from orderings
  uint64_t tiles_added = 0;        ///< tiles inserted (all levels)
  uint64_t divide_calls = 0;       ///< Divide-Verify invocations
  VerifyStats verify;              ///< verifier counters
  CandidateStats candidates;       ///< candidate-source counters
  uint64_t rtree_node_accesses = 0;  ///< R-tree nodes touched

  /// Adds another computation's counters into these (inline: the server
  /// folds one per recomputation).
  void Merge(const MsrStats& s) {
    tiles_tried += s.tiles_tried;
    tiles_added += s.tiles_added;
    divide_calls += s.divide_calls;
    verify.calls += s.verify.calls;
    verify.accepted += s.verify.accepted;
    verify.tile_groups += s.verify.tile_groups;
    verify.focal_evals += s.verify.focal_evals;
    verify.memo_hits += s.verify.memo_hits;
    candidates.retrievals += s.candidates.retrievals;
    candidates.candidates_total += s.candidates.candidates_total;
    candidates.rejected_by_buffer += s.candidates.rejected_by_buffer;
    rtree_node_accesses += s.rtree_node_accesses;
  }
};

/// Result of one safe-region computation.
struct MsrResult {
  uint32_t po_id = 0;
  Point po;
  double po_agg = 0.0;
  std::vector<SafeRegion> regions;
  MsrStats stats;
};

/// Per-user movement hint for directed orderings.
struct MotionHint {
  bool has_heading = false;
  double heading = 0.0;  ///< radians
  double theta = 0.0;    ///< learned angular deviation bound (radians); <= 0
                         ///< means the default cone of 60 degrees
};

/// Algorithm 2 (Divide-Verify), exposed for testing. Attempts to add grid
/// tile `tile` (or sub-tiles down to `level` more splits) to
/// (*regions)[user_i]. Returns true when at least one tile was inserted.
/// `fanout` optionally parallelizes the candidate scan (see VerifyFanout);
/// `kernel` selects the scan kernel (SoA requires a lanes-capable
/// verifier, otherwise the scalar walk runs); `scratch` may be null, and
/// its tile snapshot is invalidated on entry. Calls that share `source`
/// must pass the same, only-growing regions (mpn/candidates.h).
bool DivideVerify(std::vector<TileRegion>* regions, size_t user_i,
                  const GridTile& tile, const Point& po,
                  CandidateSource* source, TileVerifier* verifier, int level,
                  MsrStats* stats, const VerifyFanout& fanout = {},
                  KernelKind kernel = KernelKind::kSoA,
                  MsrScratch* scratch = nullptr);

/// Algorithm 3 (Tile-MSR). `hints` may be empty (undirected behaviour) or
/// one entry per user. Falls back to circular regions when the tile side
/// would degenerate (rmax ~ 0 or unbounded).
MsrResult ComputeTileMsr(const PackedRTree* tree,
                         const std::vector<Point>& users,
                         Objective obj, const TileMsrConfig& config,
                         const std::vector<MotionHint>& hints = {});

}  // namespace mpn
