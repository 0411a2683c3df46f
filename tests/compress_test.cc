// Tile-region compression tests: exact round-trip, value accounting, and
// compression benefit over the naive 3-values-per-tile encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "mpn/compress.h"
#include "mpn/tile_msr.h"
#include "msr_test_util.h"
#include "util/rng.h"

namespace mpn {
namespace {

using testutil::MakeScenario;
using testutil::Scenario;

std::vector<GridTile> SortedTiles(const TileRegion& r) {
  std::vector<GridTile> tiles = r.tiles();
  std::sort(tiles.begin(), tiles.end(),
            [](const GridTile& a, const GridTile& b) {
              if (a.level != b.level) return a.level < b.level;
              if (a.iy != b.iy) return a.iy < b.iy;
              return a.ix < b.ix;
            });
  return tiles;
}

TEST(CompressTest, EmptyRegion) {
  TileRegion region({0, 0}, 2.0);
  const auto enc = EncodeTileRegion(region);
  EXPECT_EQ(enc.levels.size(), 0u);
  EXPECT_EQ(enc.ValueCount(), 4u);  // header only
  const TileRegion dec = DecodeTileRegion(enc);
  EXPECT_EQ(dec.size(), 0u);
  EXPECT_DOUBLE_EQ(dec.delta(), 2.0);
}

TEST(CompressTest, SingleTileRoundTrip) {
  TileRegion region({10, -5}, 3.0);
  region.Add(GridTile{0, 0, 0});
  const auto enc = EncodeTileRegion(region);
  const TileRegion dec = DecodeTileRegion(enc);
  ASSERT_EQ(dec.size(), 1u);
  EXPECT_TRUE(dec.tiles()[0] == region.tiles()[0]);
  EXPECT_EQ(dec.origin().x, region.origin().x);
  EXPECT_EQ(dec.origin().y, region.origin().y);
  // Geometric extents identical bit-for-bit.
  EXPECT_EQ(dec.rects()[0].lo.x, region.rects()[0].lo.x);
  EXPECT_EQ(dec.rects()[0].hi.y, region.rects()[0].hi.y);
}

TEST(CompressTest, MultiLevelRoundTripExact) {
  Rng rng(606);
  for (int trial = 0; trial < 60; ++trial) {
    TileRegion region({rng.Uniform(-100, 100), rng.Uniform(-100, 100)},
                      rng.Uniform(0.5, 20));
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      const int level = static_cast<int>(rng.UniformInt(0, 3));
      const int span = 4 << level;
      region.Add(GridTile{level,
                          static_cast<int32_t>(rng.UniformInt(-span, span)),
                          static_cast<int32_t>(rng.UniformInt(-span, span))});
    }
    const TileRegion dec = DecodeTileRegion(EncodeTileRegion(region));
    // Same tile multiset (duplicates from the random generator collapse to
    // set semantics in the bitmap, so compare unique sorted sets).
    auto a = SortedTiles(region);
    auto b = SortedTiles(dec);
    a.erase(std::unique(a.begin(), a.end(),
                        [](const GridTile& x, const GridTile& y) {
                          return x == y;
                        }),
            a.end());
    ASSERT_EQ(a.size(), b.size()) << "trial " << trial;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i] == b[i]) << "trial " << trial << " tile " << i;
    }
  }
}

TEST(CompressTest, ContainmentPreservedThroughCodec) {
  Rng rng(707);
  TileRegion region({0, 0}, 4.0);
  region.Add(GridTile{0, 0, 0});
  region.Add(GridTile{0, 1, 0});
  region.Add(GridTile{1, -1, 1});
  region.Add(GridTile{2, 5, -3});
  const TileRegion dec = DecodeTileRegion(EncodeTileRegion(region));
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    EXPECT_EQ(region.Contains(p), dec.Contains(p)) << p.ToString();
  }
}

TEST(CompressTest, ValueCountMatchesStructure) {
  TileRegion region({0, 0}, 1.0);
  // 3 level-0 tiles in a 3x1 window: 1 word.
  region.Add(GridTile{0, 0, 0});
  region.Add(GridTile{0, 1, 0});
  region.Add(GridTile{0, 2, 0});
  const auto enc = EncodeTileRegion(region);
  ASSERT_EQ(enc.levels.size(), 1u);
  EXPECT_EQ(enc.levels[0].width, 3);
  EXPECT_EQ(enc.levels[0].height, 1);
  EXPECT_EQ(enc.levels[0].bits.WordCount(), 1u);
  EXPECT_EQ(enc.ValueCount(), 4u + 5u + 1u);
  EXPECT_EQ(RawTileValueCount(region), 9u);
}

TEST(CompressTest, BeatsRawEncodingOnRealRegions) {
  // On engine-produced regions with the Table-2 alpha the bitmap encoding
  // must beat 3-values-per-tile (that is what keeps packet counts low).
  size_t compressed = 0, raw = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Scenario s = MakeScenario(200, 3, 4100 + trial);
    TileMsrConfig config;
    config.alpha = 30;
    const auto result =
        ComputeTileMsr(&s.tree, s.users, Objective::kMax, config);
    for (const auto& r : result.regions) {
      if (r.is_circle()) continue;
      compressed += EncodeTileRegion(r.tiles()).ValueCount();
      raw += RawTileValueCount(r.tiles());
    }
  }
  ASSERT_GT(raw, 0u);
  EXPECT_LT(compressed, raw);
}

TEST(CompressTest, LargeSparseWindowStillCorrect) {
  TileRegion region({0, 0}, 1.0);
  region.Add(GridTile{0, -100, -100});
  region.Add(GridTile{0, 100, 100});
  const auto enc = EncodeTileRegion(region);
  ASSERT_EQ(enc.levels.size(), 1u);
  EXPECT_EQ(enc.levels[0].width, 201);
  EXPECT_EQ(enc.levels[0].bits.Count(), 2u);
  const TileRegion dec = DecodeTileRegion(enc);
  EXPECT_EQ(dec.size(), 2u);
}

TEST(CompressTest, AnchorBitPatternsSurviveCodec) {
  // The engine's spill codec (engine/session_codec.h) ships the encoded
  // anchor verbatim; decode must reproduce it bit-for-bit — including a
  // signed zero and a denormal — or a spilled client's region would drift
  // from the server's grid.
  uint64_t neg_zero_bits = 0, origin_y_bits = 0, delta_bits = 0;
  const double neg_zero = -0.0;
  const double denorm = std::numeric_limits<double>::denorm_min();
  TileRegion region = TileRegion::FromOrigin({neg_zero, denorm}, 0.7);
  region.Add(GridTile{0, 0, 0});
  region.Add(GridTile{2, -3, 9});
  const TileRegion dec = DecodeTileRegion(EncodeTileRegion(region));
  std::memcpy(&neg_zero_bits, &neg_zero, sizeof(double));
  double got = dec.origin().x;
  uint64_t got_bits = 0;
  std::memcpy(&got_bits, &got, sizeof(double));
  EXPECT_EQ(got_bits, neg_zero_bits);  // sign bit kept, not canonicalized
  got = dec.origin().y;
  std::memcpy(&origin_y_bits, &denorm, sizeof(double));
  std::memcpy(&got_bits, &got, sizeof(double));
  EXPECT_EQ(got_bits, origin_y_bits);
  const double delta = region.delta();
  got = dec.delta();
  std::memcpy(&delta_bits, &delta, sizeof(double));
  std::memcpy(&got_bits, &got, sizeof(double));
  EXPECT_EQ(got_bits, delta_bits);
}

TEST(CompressTest, EncodeIsIdempotentOnDecodedRegions) {
  // Encode(Decode(enc)) must equal enc: the bitmap form is canonical, so a
  // spill/rehydrate cycle re-encodes to the identical byte stream (the
  // session store relies on this for stable spilled_bytes accounting).
  Rng rng(808);
  for (int trial = 0; trial < 40; ++trial) {
    TileRegion region({rng.Uniform(-50, 50), rng.Uniform(-50, 50)},
                      rng.Uniform(0.25, 8));
    const int n = static_cast<int>(rng.UniformInt(0, 30));
    for (int i = 0; i < n; ++i) {
      const int level = static_cast<int>(rng.UniformInt(0, 4));
      region.Add(GridTile{level,
                          static_cast<int32_t>(rng.UniformInt(-40, 40)),
                          static_cast<int32_t>(rng.UniformInt(-40, 40))});
    }
    const auto enc1 = EncodeTileRegion(region);
    const auto enc2 = EncodeTileRegion(DecodeTileRegion(enc1));
    ASSERT_EQ(enc1.levels.size(), enc2.levels.size()) << "trial " << trial;
    EXPECT_EQ(enc1.ValueCount(), enc2.ValueCount()) << "trial " << trial;
    for (size_t l = 0; l < enc1.levels.size(); ++l) {
      const EncodedLevel& a = enc1.levels[l];
      const EncodedLevel& b = enc2.levels[l];
      EXPECT_EQ(a.level, b.level);
      EXPECT_EQ(a.ix0, b.ix0);
      EXPECT_EQ(a.iy0, b.iy0);
      EXPECT_EQ(a.width, b.width);
      EXPECT_EQ(a.height, b.height);
      EXPECT_TRUE(a.bits == b.bits) << "trial " << trial << " level " << l;
    }
  }
}

TEST(CompressTest, DeepLevelExtremeIndicesRoundTrip) {
  // Degenerate-but-legal shapes: a single tile at a deep refinement level
  // with large negative indices, plus a far-flung partner forcing a wide
  // window at another level.
  TileRegion region({1e-12, -1e12}, 1024.0);
  region.Add(GridTile{12, -100000, 99999});
  region.Add(GridTile{12, -100001, 99998});
  region.Add(GridTile{0, 7, -7});
  const TileRegion dec = DecodeTileRegion(EncodeTileRegion(region));
  ASSERT_EQ(dec.size(), 3u);
  for (const GridTile& t : region.tiles()) {
    bool found = false;
    for (const GridTile& u : dec.tiles()) found |= (t == u);
    EXPECT_TRUE(found) << "tile (" << t.level << "," << t.ix << "," << t.iy
                       << ") lost";
  }
}

// --- DynamicBitset ----------------------------------------------------------

TEST(BitsetTest, SetTestClearCount) {
  DynamicBitset b(130);
  EXPECT_EQ(b.WordCount(), 3u);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, FromWordsRoundTrip) {
  DynamicBitset b(70);
  b.Set(3);
  b.Set(69);
  const DynamicBitset c = DynamicBitset::FromWords(b.words(), 70);
  EXPECT_TRUE(b == c);
}

}  // namespace
}  // namespace mpn
