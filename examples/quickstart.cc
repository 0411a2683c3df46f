// Quickstart: the smallest end-to-end use of the library.
//
// Builds a POI index, computes the optimal meeting point for three users
// with both circular (Section 4) and tile-based (Section 5) safe regions,
// and shows what each user would receive from the server.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "index/packed_rtree.h"
#include "mpn/circle_msr.h"
#include "mpn/compress.h"
#include "mpn/tile_msr.h"
#include "net/message.h"

int main() {
  using namespace mpn;

  // 1. The server indexes the points of interest with an R-tree.
  const std::vector<Point> pois = {
      {120, 80}, {300, 340}, {540, 260}, {220, 500}, {760, 420},
      {420, 120}, {640, 640}, {90, 350},  {480, 480}, {700, 150},
  };
  const PackedRTree tree = PackedRTree::Build(pois);

  // 2. A group of moving users registers a Meeting Point Notification query.
  const std::vector<Point> users = {{200, 200}, {380, 300}, {280, 420}};

  // 3a. Circular safe regions (Algorithm 1 / Theorem 1).
  const CircleMsrResult circles =
      ComputeCircleMsr(&tree, users, Objective::kMax);
  std::printf("optimal meeting point: poi #%u at %s  (max-dist %.1f)\n",
              circles.po_id, circles.po.ToString().c_str(), circles.po_agg);
  std::printf("circular safe regions: common radius rmax = %.2f\n",
              circles.rmax);

  // 3b. Tile-based safe regions (Algorithm 3), directed ordering enabled.
  TileMsrConfig config;
  config.alpha = 12;
  config.split_level = 2;
  const MsrResult tiles = ComputeTileMsr(&tree, users, Objective::kMax, config);
  for (size_t i = 0; i < users.size(); ++i) {
    const SafeRegion& r = tiles.regions[i];
    if (r.is_circle()) {
      std::printf("user %zu: circle region, radius %.2f\n", i,
                  r.circle().radius);
      continue;
    }
    const size_t values = RegionValueCount(r, /*compress_tiles=*/true);
    std::printf(
        "user %zu: %zu tiles, bounds %s, %zu values -> %zu packet(s)\n", i,
        r.tiles().size(), r.tiles().Bounds().ToString().c_str(), values,
        PacketModel{}.PacketsForValues(values));
  }

  // 4. Clients only contact the server after leaving their region.
  const Point moved{230, 230};  // user 0 wandered a bit
  std::printf("user 0 moved to %s: %s\n", moved.ToString().c_str(),
              tiles.regions[0].Contains(moved)
                  ? "still inside -> no message sent"
                  : "left region -> notifies server");
  return 0;
}
