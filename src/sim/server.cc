#include "sim/server.h"

#include <utility>

#include "mpn/circle_msr.h"
#include "util/macros.h"

namespace mpn {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kCircle: return "Circle";
    case Method::kTile: return "Tile";
    case Method::kTileD: return "Tile-D";
    case Method::kTileDBuffered: return "Tile-D-b";
  }
  return "?";
}

TileMsrConfig TileMsrConfigFor(const ServerConfig& config) {
  TileMsrConfig tc;
  tc.alpha = config.alpha;
  tc.split_level = config.split_level;
  tc.buffer_b = config.buffer_b;
  tc.directed = config.method != Method::kTile;
  tc.buffered = config.method == Method::kTileDBuffered;
  return tc;
}

MpnServer::MpnServer(const std::vector<Point>* pois, const PackedRTree* tree,
                     const ServerConfig& config)
    : pois_(pois), tree_(tree), config_(config) {
  MPN_ASSERT(pois_ != nullptr && tree_ != nullptr);
  MPN_ASSERT(pois_->size() == tree_->size());
}

MsrResult MpnServer::Recompute(const std::vector<Point>& locations,
                               const std::vector<MotionHint>& hints) {
  Timer timer;
  MsrResult result;
  if (config_.method == Method::kCircle) {
    CircleMsrResult c = ComputeCircleMsr(tree_, locations, config_.objective);
    result.po_id = c.po_id;
    result.po = c.po;
    result.po_agg = c.po_agg;
    result.regions = std::move(c.regions);
  } else {
    TileMsrConfig tc = TileMsrConfigFor(config_);
    tc.scratch = &scratch_;
    result = ComputeTileMsr(tree_, locations, config_.objective, tc, hints);
  }
  compute_seconds_ += timer.ElapsedSeconds();
  ++recompute_count_;
  stats_.Merge(result.stats);
  return result;
}

}  // namespace mpn
