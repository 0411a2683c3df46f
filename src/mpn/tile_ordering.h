// Tile browsing orders for Algorithm 3 (Fig. 8).
//
// Undirected ordering visits level-0 grid cells ring by ring around the
// user's initial tile, counter-clockwise starting east. The next ring is
// entered only if at least one tile of the current ring was inserted into
// the safe region; otherwise the ordering is exhausted (no farther tile can
// be valid for this user).
//
// Directed ordering additionally skips cells whose subtended angle at the
// user deviates from the user's current travel direction by more than
// theta, exploiting the bounded angular deviation of near-future movement
// (Tao et al., SIGMOD 2004). The angular test is slightly widened by the
// cell's angular half-span so that cells partially inside the cone are kept
// (conservative: extra tiles cost time, never correctness).
//
// The angular test is exact: five atan2 calls per cell. Most cells of a
// narrow cone are rejected, so a cheap certificate runs first — a dot
// product against the heading and a bound on the cell's half-span — and
// rejects a cell only where the atan2 test provably would; every other
// cell takes the atan2 test. Which cells are reported does not depend on
// the certificate (the proof and its guards are in tile_ordering.cc).
#pragma once

#include <optional>

#include "geom/rect.h"
#include "mpn/safe_region.h"

namespace mpn {

/// Streaming generator of candidate level-0 tiles for one user.
class TileOrdering {
 public:
  /// Undirected ordering.
  TileOrdering() = default;

  /// Directed ordering around `heading` (radians) with half-angle `theta`.
  TileOrdering(double heading, double theta);

  /// Next level-0 cell to try (never the initial cell (0,0)), or nullopt
  /// when exhausted. Cells are reported in ring order; within a ring,
  /// counter-clockwise from east.
  std::optional<GridTile> Next(const TileRegion& region);

  /// Marks that a tile from the most recently reported cell (or one of its
  /// sub-tiles) was inserted; enables advancing to the next ring.
  void MarkInserted() { inserted_in_ring_ = true; }

  /// Ring currently being browsed (1-based; 0 before the first Next call).
  int ring() const { return ring_; }

 private:
  // Cell at position `pos` (0-based) of ring `k`, CCW from (k, 0).
  static void RingCell(int k, int pos, int* ix, int* iy);
  bool AcceptCell(const TileRegion& region, int ix, int iy) const;
  // True only when the exact test would reject the cell whose rectangle
  // is `rect`, seen from `u`; false when it cannot tell.
  bool CertainlyOutsideCone(const Rect& rect, const Point& u,
                            double delta) const;

  bool directed_ = false;
  double heading_ = 0.0;
  double theta_ = 0.0;
  // Certificate constants, set by the directed constructor: whether it
  // applies (0 <= theta < pi/2 and |heading| <= pi), the heading's unit
  // vector, and theta's cosine and sine.
  bool certify_ = false;
  double hx_ = 0.0, hy_ = 0.0;
  double cos_theta_ = 0.0, sin_theta_ = 0.0;
  int ring_ = 0;
  int pos_ = 0;  // next position within the ring
  bool inserted_in_ring_ = false;
  bool exhausted_ = false;
};

}  // namespace mpn
