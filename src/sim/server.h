// Server-side safe-region computation dispatch (Fig. 3, step 3).
#pragma once

#include <cstdint>
#include <vector>

#include "index/gnn.h"
#include "mpn/tile_msr.h"
#include "util/timer.h"

namespace mpn {

/// The method configurations evaluated in Section 7.
enum class Method {
  kCircle,        ///< Circle-MSR (Section 4)
  kTile,          ///< Tile-MSR, undirected ordering, GT-Verify + pruning
  kTileD,         ///< Tile-MSR, directed ordering
  kTileDBuffered  ///< Tile-D with the Section-5.4 buffering (Tile-D-b)
};

/// Method name as used in the paper's plots.
const char* MethodName(Method method);

/// Server configuration.
struct ServerConfig {
  Method method = Method::kTileD;
  Objective objective = Objective::kMax;
  int alpha = 30;      ///< Table 2 default
  int split_level = 2; ///< Table 2 default
  int buffer_b = 100;  ///< Section 5.4 recommendation
};

/// The Tile-MSR configuration a server with `config` runs (meaningless for
/// Method::kCircle): the one mapping, so a replay of a served recompute
/// cannot drift from it. The scratch is left null for the caller to set.
TileMsrConfig TileMsrConfigFor(const ServerConfig& config);

/// The application server: owns nothing, computes safe regions on demand.
class MpnServer {
 public:
  /// `pois`/`tree` must outlive the server.
  MpnServer(const std::vector<Point>* pois, const PackedRTree* tree,
            const ServerConfig& config);

  /// Recomputes the meeting point and all safe regions from the probed user
  /// locations (+ motion hints for directed orderings). Timing and algorithm
  /// statistics accumulate across calls.
  MsrResult Recompute(const std::vector<Point>& locations,
                      const std::vector<MotionHint>& hints);

  const ServerConfig& config() const { return config_; }

  /// Total wall-clock seconds spent inside Recompute.
  double compute_seconds() const { return compute_seconds_; }

  /// Number of Recompute calls.
  size_t recompute_count() const { return recompute_count_; }

  /// Aggregated per-call statistics.
  const MsrStats& stats() const { return stats_; }

  /// Plain-data snapshot of the accumulated counters (the scratch is
  /// transient and rebuilt on demand, so it is not part of the state). Wire
  /// encoding lives in engine/session_codec.h.
  struct State {
    double compute_seconds = 0.0;
    uint64_t recompute_count = 0;
    MsrStats stats;
  };

  State ExportState() const {
    State state;
    state.compute_seconds = compute_seconds_;
    state.recompute_count = recompute_count_;
    state.stats = stats_;
    return state;
  }

  void ImportState(const State& state) {
    compute_seconds_ = state.compute_seconds;
    recompute_count_ = static_cast<size_t>(state.recompute_count);
    stats_ = state.stats;
  }

 private:
  const std::vector<Point>* pois_;
  const PackedRTree* tree_;
  ServerConfig config_;
  double compute_seconds_ = 0.0;
  size_t recompute_count_ = 0;
  MsrStats stats_;
  /// Candidate buffer and tile snapshot reused across Recompute calls, so
  /// a steady-state recompute allocates nothing (see MsrScratch for their
  /// lifetimes). Safe because a server belongs to one session and the
  /// session serializes its recomputes (engine/group_session.h), each on
  /// one thread.
  MsrScratch scratch_;
};

}  // namespace mpn
