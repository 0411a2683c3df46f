// Memory-budgeted session store: snapshot codec round trips at the engine
// boundary, malformed-input rejection, and — the load-bearing property —
// digest bit-identity between budgeted and unbudgeted runs for any cap,
// with the spill/rehydrate counters proving the out-of-core path actually
// ran. The codec tests pin IEEE-754 edge cases (-0.0, denormals, NaN bit
// patterns) because the digest folds raw double bits: a codec that
// canonicalizes them would pass value-equality tests and still break
// digest neutrality.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/memory_budget.h"
#include "engine/session_codec.h"
#include "engine_fuzz_util.h"
#include "test_env.h"

namespace mpn {
namespace {

// --- helpers ---------------------------------------------------------------

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

#define EXPECT_SAME_BITS(a, b) EXPECT_EQ(Bits(a), Bits(b))

// A denormal (subnormal) double: smallest positive representable value.
const double kDenormal = std::numeric_limits<double>::denorm_min();
// A quiet NaN with a recognizable payload; must survive the wire verbatim.
double PayloadNan() {
  const uint64_t u = 0x7ff8dead'beef0001ull;
  double d = 0.0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

SimMetrics MakeOddMetrics() {
  SimMetrics m;
  m.timestamps = 41;
  m.updates = 17;
  m.result_changes = 5;
  m.server_seconds = -0.0;  // sign bit must survive
  m.comm.AddRaw(MessageType::kLocationUpdate, 3, 4, 5);
  m.comm.AddRaw(MessageType::kProbe, 6, 7, 8);
  m.comm.AddRaw(MessageType::kProbeReply, 9, 10, 11);
  m.comm.AddRaw(MessageType::kResult, 12, 13, 14);
  m.msr.tiles_tried = 100;
  m.msr.tiles_added = 90;
  m.msr.divide_calls = 80;
  m.msr.verify.calls = 70;
  m.msr.verify.accepted = 60;
  m.msr.verify.tile_groups = 50;
  m.msr.verify.focal_evals = 40;
  m.msr.verify.memo_hits = 30;
  m.msr.candidates.retrievals = 20;
  m.msr.candidates.candidates_total = 10;
  m.msr.candidates.rejected_by_buffer = 1;
  m.msr.rtree_node_accesses = 12345;
  return m;
}

// `compare_timings` bit-compares server_seconds too — right for codec
// round trips (same in-process value), wrong across independent runs
// (it accumulates wall-clock time).
void ExpectMetricsEqual(const SimMetrics& a, const SimMetrics& b,
                        bool compare_timings = true) {
  fuzz::ExpectSameDeterministicMetrics(a, b);
  if (compare_timings) {
    EXPECT_SAME_BITS(a.server_seconds, b.server_seconds);
  }
}

// --- MPN_MEMORY_BUDGET spec parsing ----------------------------------------

TEST(MemoryBudgetTest, ParseSpec) {
  EXPECT_EQ(ParseMemoryBudgetBytes(nullptr), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes(""), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes("12345"), 12345u);
  EXPECT_EQ(ParseMemoryBudgetBytes("64k"), 64u * 1024);
  EXPECT_EQ(ParseMemoryBudgetBytes("64K"), 64u * 1024);
  EXPECT_EQ(ParseMemoryBudgetBytes("2m"), 2u * 1024 * 1024);
  EXPECT_EQ(ParseMemoryBudgetBytes("2M"), 2u * 1024 * 1024);
  EXPECT_EQ(ParseMemoryBudgetBytes("1g"), 1024u * 1024 * 1024);
  EXPECT_EQ(ParseMemoryBudgetBytes("1G"), 1024u * 1024 * 1024);
  EXPECT_EQ(ParseMemoryBudgetBytes("0"), 0u);
  // Garbage and trailing junk mean "no budget", never a partial parse.
  EXPECT_EQ(ParseMemoryBudgetBytes("k64"), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes("64kb"), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes("lots"), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes("k"), 0u);
  // Only digits lead: no whitespace, no sign (strtoull would wrap "-64k").
  EXPECT_EQ(ParseMemoryBudgetBytes("-64k"), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes("+64k"), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes(" 64k"), 0u);
  // A number or a byte count past SIZE_MAX is garbage, not a wrapped cap.
  EXPECT_EQ(ParseMemoryBudgetBytes("99999999999999999999"), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes("18014398509481985k"), 0u);
  EXPECT_EQ(ParseMemoryBudgetBytes("17179869185g"), 0u);
  // The largest gigabyte count that still fits: 2^64 - 2^30 bytes.
  EXPECT_EQ(ParseMemoryBudgetBytes("17179869183g"), size_t{17179869183} << 30);
}

// --- codec round trips at the engine boundary ------------------------------

TEST(SessionCodecTest, MetricsRoundTripIsBitExact) {
  const SimMetrics m = MakeOddMetrics();
  WireBuffer out;
  WriteMetrics(&out, m);
  WireReader r(out.data());
  const SimMetrics back = ReadMetrics(&r);
  EXPECT_TRUE(r.AtEnd());
  ExpectMetricsEqual(m, back);
}

TEST(SessionCodecTest, CircleRegionRoundTripKeepsIeeeBitPatterns) {
  const SafeRegion region =
      SafeRegion::MakeCircle(Circle{{-0.0, kDenormal}, PayloadNan()});
  WireBuffer out;
  WriteSafeRegion(&out, region);
  WireReader r(out.data());
  const SafeRegion back = ReadSafeRegion(&r);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_TRUE(back.is_circle());
  EXPECT_SAME_BITS(region.circle().center.x, back.circle().center.x);
  EXPECT_SAME_BITS(region.circle().center.y, back.circle().center.y);
  EXPECT_SAME_BITS(region.circle().radius, back.circle().radius);
}

TEST(SessionCodecTest, TileRegionRoundTripIsExact) {
  // Anchor with sign-bit/denormal coordinates; tiles spread across levels
  // and quadrants (negative indices included) so the per-level windows are
  // non-trivial.
  TileRegion tiles = TileRegion::FromOrigin({-0.0, kDenormal}, 128.0);
  tiles.Add(GridTile{0, 0, 0});
  tiles.Add(GridTile{1, -1, 2});
  tiles.Add(GridTile{1, 3, -2});
  tiles.Add(GridTile{3, -5, 7});
  const SafeRegion region = SafeRegion::MakeTiles(std::move(tiles));
  WireBuffer out;
  WriteSafeRegion(&out, region);
  WireReader r(out.data());
  const SafeRegion back = ReadSafeRegion(&r);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_FALSE(back.is_circle());
  EXPECT_SAME_BITS(region.tiles().origin().x, back.tiles().origin().x);
  EXPECT_SAME_BITS(region.tiles().origin().y, back.tiles().origin().y);
  EXPECT_SAME_BITS(region.tiles().delta(), back.tiles().delta());
  ASSERT_EQ(region.tiles().size(), back.tiles().size());
  for (size_t i = 0; i < region.tiles().size(); ++i) {
    // The bitmap codec may reorder tiles canonically; membership must be
    // exact either way.
    const GridTile& t = region.tiles().tiles()[i];
    bool found = false;
    for (const GridTile& u : back.tiles().tiles()) found |= (t == u);
    EXPECT_TRUE(found) << "tile " << i << " lost in round trip";
  }
}

TEST(SessionCodecTest, EmptyTileRegionRoundTrips) {
  const SafeRegion region =
      SafeRegion::MakeTiles(TileRegion::FromOrigin({3.5, -7.25}, 64.0));
  WireBuffer out;
  WriteSafeRegion(&out, region);
  WireReader r(out.data());
  const SafeRegion back = ReadSafeRegion(&r);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_FALSE(back.is_circle());
  EXPECT_TRUE(back.tiles().empty());
  EXPECT_SAME_BITS(region.tiles().delta(), back.tiles().delta());
}

TEST(SessionCodecTest, FinalSnapshotRoundTripIsExact) {
  SessionFinalResult fr;
  fr.metrics = MakeOddMetrics();
  fr.has_result = true;
  fr.po = 0xDEADBEEF;
  fr.mailbox_peak = 7;
  fr.stall_count = 3;
  fr.advance_seconds = {0.0, -0.0, kDenormal, PayloadNan(), 1.5e-300};
  WireBuffer out;
  EncodeFinalSession(fr, &out);
  WireReader r(out.data());
  ASSERT_EQ(ReadSnapshotHeader(&r), SnapshotKind::kFinal);
  const SessionFinalResult back = DecodeFinalSession(&r);
  EXPECT_TRUE(r.AtEnd());
  ExpectMetricsEqual(fr.metrics, back.metrics);
  EXPECT_EQ(back.has_result, true);
  EXPECT_EQ(back.po, 0xDEADBEEFu);
  EXPECT_EQ(back.mailbox_peak, 7u);
  EXPECT_EQ(back.stall_count, 3u);
  ASSERT_EQ(back.advance_seconds.size(), fr.advance_seconds.size());
  for (size_t i = 0; i < fr.advance_seconds.size(); ++i) {
    EXPECT_SAME_BITS(fr.advance_seconds[i], back.advance_seconds[i]);
  }
}

TEST(SessionCodecTest, LiveSnapshotRoundTripIsExact) {
  GroupSession::State s;
  s.next_t = 3;
  s.retire_at = 17;
  s.has_result = true;
  s.current_po = 42;
  s.mailbox_peak = 2;
  s.stall_count = 1;
  s.metrics = MakeOddMetrics();
  s.server.compute_seconds = kDenormal;
  s.server.recompute_count = 9;
  s.server.stats.tiles_tried = 11;
  MpnClient::State c0;
  c0.location = {-0.0, 1e-310};
  c0.moved = true;
  c0.heading = PayloadNan();
  c0.recent_headings = {0.25, -0.0, kDenormal};
  c0.has_region = true;
  c0.region = SafeRegion::MakeCircle(Circle{{1.0, 2.0}, 3.0});
  MpnClient::State c1;  // no region yet — has_region gate must hold
  c1.location = {5.0, 6.0};
  s.clients = {c0, c1};
  s.messages_at = {4, 0, 2};
  s.violated_at = {1, 0, 1};
  s.advance_at = {0.5, -0.0, kDenormal};
  s.seconds_at = {1e-3, 2e-3, 3e-3};

  WireBuffer out;
  EncodeLiveSession(s, &out);
  WireReader r(out.data());
  ASSERT_EQ(ReadSnapshotHeader(&r), SnapshotKind::kLive);
  const GroupSession::State back = DecodeLiveSession(&r);
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(back.next_t, 3u);
  EXPECT_EQ(back.retire_at, 17u);
  EXPECT_EQ(back.has_result, true);
  EXPECT_EQ(back.current_po, 42u);
  EXPECT_EQ(back.mailbox_peak, 2u);
  EXPECT_EQ(back.stall_count, 1u);
  ExpectMetricsEqual(s.metrics, back.metrics);
  EXPECT_SAME_BITS(s.server.compute_seconds, back.server.compute_seconds);
  EXPECT_EQ(back.server.recompute_count, 9u);
  EXPECT_EQ(back.server.stats.tiles_tried, 11u);
  ASSERT_EQ(back.clients.size(), 2u);
  EXPECT_SAME_BITS(c0.location.x, back.clients[0].location.x);
  EXPECT_SAME_BITS(c0.location.y, back.clients[0].location.y);
  EXPECT_EQ(back.clients[0].moved, true);
  EXPECT_SAME_BITS(c0.heading, back.clients[0].heading);
  ASSERT_EQ(back.clients[0].recent_headings.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_SAME_BITS(c0.recent_headings[i], back.clients[0].recent_headings[i]);
  }
  ASSERT_TRUE(back.clients[0].has_region);
  ASSERT_TRUE(back.clients[0].region.is_circle());
  EXPECT_SAME_BITS(c0.region.circle().radius,
                   back.clients[0].region.circle().radius);
  EXPECT_FALSE(back.clients[1].has_region);
  EXPECT_EQ(back.messages_at, s.messages_at);
  EXPECT_EQ(back.violated_at, s.violated_at);
  ASSERT_EQ(back.advance_at.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_SAME_BITS(s.advance_at[i], back.advance_at[i]);
    EXPECT_SAME_BITS(s.seconds_at[i], back.seconds_at[i]);
  }
}

// --- golden bytes -----------------------------------------------------------
//
// Round trips cannot see a layout slip that the encoder and the decoder
// make alike (two fields swapped on both sides, a wider count). These pin
// the exact bytes: little-endian integers, doubles as their bit patterns,
// the field order of both snapshot kinds and the tile bitmap.

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string s;
  for (uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 15];
  }
  return s;
}

SimMetrics GoldenMetrics() {
  SimMetrics m;
  m.timestamps = 0x0102030405060708ull;
  m.updates = 17;
  m.result_changes = 5;
  m.server_seconds = -1.5;
  m.comm.AddRaw(MessageType::kLocationUpdate, 3, 4, 5);
  m.comm.AddRaw(MessageType::kResult, 12, 13, 14);
  m.msr.tiles_tried = 100;
  m.msr.divide_calls = 0xA0B0C0D0u;
  m.msr.rtree_node_accesses = 12345;
  return m;
}

TEST(SessionCodecTest, PrimitivesHaveGoldenBytes) {
  WireBuffer out;
  out.PutU8(0xAB);
  out.PutU32(0x01020304u);
  out.PutU64(0x1122334455667788ull);
  out.PutDouble(-2.5);
  out.PutDouble(kDenormal);
  out.PutU32(0xFFFFFFFEu);
  EXPECT_EQ(Hex(out.data()),
            "ab04030201887766554433221100000000000004c00100000000000000feffff"
            "ff");
  WireReader r(out.data());
  EXPECT_EQ(r.GetU8(), 0xABu);
  EXPECT_EQ(r.GetU32(), 0x01020304u);
  EXPECT_EQ(r.GetU64(), 0x1122334455667788ull);
  EXPECT_SAME_BITS(r.GetDouble(), -2.5);
  EXPECT_SAME_BITS(r.GetDouble(), kDenormal);
  EXPECT_EQ(r.GetU32(), 0xFFFFFFFEu);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_THROW(r.GetU8(), FrameError);
}

TEST(SessionCodecTest, FinalSnapshotHasGoldenBytes) {
  SessionFinalResult fr;
  fr.metrics = GoldenMetrics();
  fr.has_result = true;
  fr.po = 0xDEADBEEF;
  fr.mailbox_peak = 7;
  fr.stall_count = 3;
  fr.advance_seconds = {0.25, -0.0};
  WireBuffer out;
  EncodeFinalSession(fr, &out);
  EXPECT_EQ(out.size(), 275u);
  EXPECT_EQ(Hex(out.data()),
            "0101080706050403020111000000000000000500000000000000030000000000"
            "0000040000000000000005000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000c000000000000000d000000000000000e00000000000000000000000000"
            "f8bf64000000000000000000000000000000d0c0b0a000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000393000000000"
            "000001efbeadde07000000000000000300000000000000000000000000000002"
            "000000000000000000d03f0000000000000080");
}

TEST(SessionCodecTest, LiveSnapshotHasGoldenBytes) {
  GroupSession::State s;
  s.next_t = 2;
  s.retire_at = 17;
  s.has_result = true;
  s.current_po = 42;
  s.mailbox_peak = 2;
  s.stall_count = 1;
  s.metrics = GoldenMetrics();
  s.server.compute_seconds = 0.125;
  s.server.recompute_count = 9;
  s.server.stats.tiles_tried = 11;
  MpnClient::State c0;  // a tile region on two levels
  c0.location = {-0.0, 3.0};
  c0.moved = true;
  c0.heading = 0.5;
  c0.recent_headings = {0.25, -1.0};
  c0.has_region = true;
  TileRegion tiles = TileRegion::FromOrigin({-4.0, 8.0}, 2.0);
  tiles.Add(GridTile{0, 0, 0});
  tiles.Add(GridTile{0, 1, 0});
  tiles.Add(GridTile{1, -1, 2});
  c0.region = SafeRegion::MakeTiles(std::move(tiles));
  MpnClient::State c1;  // a circle region
  c1.location = {5.0, 6.0};
  c1.has_region = true;
  c1.region = SafeRegion::MakeCircle(Circle{{1.0, 2.0}, 3.0});
  s.clients = {c0, c1};
  s.messages_at = {4, 0x01020304u};
  s.violated_at = {1, 0};
  s.advance_at = {0.5, -0.0};
  s.seconds_at = {1.0, 2.0};
  WireBuffer out;
  EncodeLiveSession(s, &out);
  EXPECT_EQ(out.size(), 635u);
  EXPECT_EQ(Hex(out.data()),
            "010002000000000000001100000000000000012a000000020000000000000001"
            "0000000000000000000000000000000807060504030201110000000000000005"
            "0000000000000003000000000000000400000000000000050000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000c000000000000000d000000000000000e"
            "00000000000000000000000000f8bf64000000000000000000000000000000d0"
            "c0b0a00000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "000000000000003930000000000000000000000000c03f09000000000000000b"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000002"
            "0000000000000000000080000000000000084001000000000000e03f02000000"
            "000000000000d03f000000000000f0bf010100000000000010c0000000000000"
            "2040000000000000004002000000000000000000000000000000020000000100"
            "00000200000000000000030000000000000001000000ffffffff020000000100"
            "0000010000000100000000000000010000000000000000000000000014400000"
            "000000001840000000000000000000000000000100000000000000f03f000000"
            "0000000040000000000000084002000000040000000403020101000000000000"
            "00e03f0000000000000080000000000000f03f0000000000000040");
}

// --- malformed input rejection ---------------------------------------------

TEST(SessionCodecTest, RejectsUnsupportedVersionAndKind) {
  {
    WireBuffer out;
    out.PutU8(kSessionSnapshotVersion + 1);
    out.PutU8(0);
    WireReader r(out.data());
    EXPECT_THROW(ReadSnapshotHeader(&r), FrameError);
  }
  {
    WireBuffer out;
    out.PutU8(kSessionSnapshotVersion);
    out.PutU8(99);  // not a SnapshotKind
    WireReader r(out.data());
    EXPECT_THROW(ReadSnapshotHeader(&r), FrameError);
  }
}

TEST(SessionCodecTest, RejectsTruncatedSnapshots) {
  SessionFinalResult fr;
  fr.metrics = MakeOddMetrics();
  fr.has_result = true;
  fr.po = 1;
  fr.advance_seconds = {1.0, 2.0, 3.0};
  WireBuffer out;
  EncodeFinalSession(fr, &out);
  const std::vector<uint8_t>& full = out.data();
  ASSERT_GT(full.size(), 8u);
  // Every proper prefix must throw, never read out of bounds or return a
  // half-decoded result. (ASan leg makes the OOB half observable.)
  for (size_t len : {size_t{0}, size_t{1}, size_t{2}, full.size() / 2,
                     full.size() - 1}) {
    const std::vector<uint8_t> cut(full.begin(), full.begin() + len);
    WireReader r(cut);
    EXPECT_THROW(
        {
          if (ReadSnapshotHeader(&r) == SnapshotKind::kFinal) {
            DecodeFinalSession(&r);
          } else {
            DecodeLiveSession(&r);
          }
        },
        FrameError)
        << "prefix length " << len;
  }
}

TEST(SessionCodecTest, RejectsTraceLengthMismatch) {
  // The per-timestamp traces must carry exactly next_t entries; a snapshot
  // claiming otherwise is corrupt, not silently resizable.
  GroupSession::State s;
  s.next_t = 5;
  s.messages_at = {1, 2};  // 2 != 5
  s.violated_at = {0, 1};
  s.advance_at = {0.0, 0.0};
  s.seconds_at = {0.0, 0.0};
  WireBuffer out;
  EncodeLiveSession(s, &out);
  WireReader r(out.data());
  ASSERT_EQ(ReadSnapshotHeader(&r), SnapshotKind::kLive);
  EXPECT_THROW(DecodeLiveSession(&r), FrameError);
}

TEST(SessionCodecTest, RejectsOverfullHeadingWindow) {
  // A client's heading window is a ring of MpnClient::kHeadingWindow
  // slots: a snapshot carrying more headings is corrupt and must throw
  // before it can reach MpnClient::ImportState. A full window round-trips
  // bit for bit.
  const auto encode_with = [](size_t headings) {
    GroupSession::State s;
    MpnClient::State c;
    c.moved = true;
    c.heading = 0.5;
    for (size_t i = 0; i < headings; ++i) {
      c.recent_headings.push_back(i % 2 == 0 ? -0.0 : 0.125 * i);
    }
    c.recent_headings.front() = kDenormal;
    s.clients = {c};
    WireBuffer out;
    EncodeLiveSession(s, &out);
    return out.data();
  };

  const std::vector<uint8_t> nine =
      encode_with(MpnClient::kHeadingWindow + 1);
  WireReader bad(nine);
  ASSERT_EQ(ReadSnapshotHeader(&bad), SnapshotKind::kLive);
  EXPECT_THROW(DecodeLiveSession(&bad), FrameError);

  const std::vector<uint8_t> eight = encode_with(MpnClient::kHeadingWindow);
  WireReader good(eight);
  ASSERT_EQ(ReadSnapshotHeader(&good), SnapshotKind::kLive);
  const GroupSession::State back = DecodeLiveSession(&good);
  EXPECT_TRUE(good.AtEnd());
  ASSERT_EQ(back.clients.size(), 1u);
  const std::vector<double>& got = back.clients[0].recent_headings;
  ASSERT_EQ(got.size(), MpnClient::kHeadingWindow);
  EXPECT_SAME_BITS(got[0], kDenormal);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_SAME_BITS(got[i], i % 2 == 0 ? -0.0 : 0.125 * i);
  }
}

// --- budgeted engine: digest neutrality + spill accounting ------------------

struct BudgetRun {
  uint64_t digest = 0;
  MemoryStats mem;
};

BudgetRun RunWithBudget(const fuzz::World& w, const fuzz::FuzzPlan& plan,
                        size_t threads, size_t bytes_cap) {
  Engine engine(&w.pois, &w.tree, fuzz::MakeEngineOptions(threads, bytes_cap));
  BudgetRun run;
  run.digest = fuzz::Replay(&engine, w, plan);
  run.mem = engine.memory_stats();
  return run;
}

TEST(SessionStoreTest, BudgetIsDigestNeutralAcrossCapsAndThreads) {
  Rng rng(0x5E55'10CAull);
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, /*n_groups=*/10,
                                            /*group_size=*/3,
                                            /*timestamps=*/24);
  const fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 10, /*horizon=*/24);

  const BudgetRun base = RunWithBudget(w, plan, /*threads=*/1, /*cap=*/0);
  // No budget: nothing may spill, but finalized compaction still accounts.
  EXPECT_EQ(base.mem.spilled_sessions, 0u);
  EXPECT_EQ(base.mem.rehydrated_sessions, 0u);
  EXPECT_EQ(base.mem.spilled_bytes, 0u);
  EXPECT_GT(base.mem.peak_resident_bytes, 0u);
  EXPECT_GE(base.mem.peak_resident_bytes, base.mem.resident_bytes);

  for (const size_t cap : {size_t{1}, size_t{4} * 1024, size_t{1} << 20}) {
    for (const size_t threads : {size_t{1}, size_t{2}}) {
      const BudgetRun run = RunWithBudget(w, plan, threads, cap);
      EXPECT_EQ(run.digest, base.digest)
          << "cap=" << cap << " threads=" << threads;
      if (cap == 1) {
        // A 1-byte cap forces every admitted session out and back at least
        // once; the live round trip is what the digest identity certifies.
        EXPECT_GT(run.mem.spilled_sessions, 0u)
            << "cap=" << cap << " threads=" << threads;
        EXPECT_GT(run.mem.rehydrated_sessions, 0u)
            << "cap=" << cap << " threads=" << threads;
        EXPECT_GT(run.mem.spilled_bytes, 0u);
      }
      EXPECT_GE(run.mem.peak_resident_bytes, run.mem.resident_bytes);
    }
  }
}

TEST(SessionStoreTest, CountersAreDeterministicSingleThreaded) {
  Rng rng(0xC0FFEEull);
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, 8, 3, 20);
  const fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 8, 20);
  const BudgetRun a = RunWithBudget(w, plan, 1, 2048);
  const BudgetRun b = RunWithBudget(w, plan, 1, 2048);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.mem.spilled_sessions, b.mem.spilled_sessions);
  EXPECT_EQ(a.mem.rehydrated_sessions, b.mem.rehydrated_sessions);
  EXPECT_EQ(a.mem.spilled_bytes, b.mem.spilled_bytes);
  EXPECT_EQ(a.mem.resident_bytes, b.mem.resident_bytes);
  EXPECT_EQ(a.mem.peak_resident_bytes, b.mem.peak_resident_bytes);
}

TEST(SessionStoreTest, IdMajorSpillCountsMatchGoldenValues) {
  // Under a budget the scheduler runs id-major: a session's whole timeline
  // before the next session's first event. At one thread neither id-major
  // nor time-major order shows in any result (per-session results do not
  // depend on how sessions interleave), so the store's spill and
  // rehydration counts are the observable trace of the pop order. Every
  // session is admitted before Start, so the one worker pops a fixed
  // sequence; the golden values pin it and the store's victim choice
  // (largest id first). They are a function of the plan MakeFuzzPlan draws
  // for this seed, so they move whenever its draws do.
  Rng rng(0x1D3A'0001ull);
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, 16, 3, 24);
  fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 16, 24);
  plan.waves = 1;
  plan.drain_before.assign(1, 0);
  for (fuzz::PlannedSession& s : plan.sessions) s.wave = 0;

  const BudgetRun base = RunWithBudget(w, plan, 1, 0);
  const BudgetRun run = RunWithBudget(w, plan, 1, 8192);
  EXPECT_EQ(run.digest, base.digest);
  EXPECT_EQ(run.mem.spilled_sessions, 93u);
  EXPECT_EQ(run.mem.rehydrated_sessions, 78u);
}

TEST(SessionStoreTest, SpillFailureInsideAnEventReachesWait) {
  // The spill directory does not exist, so the first spill throws from
  // mkstemp. The cap is the sessions' footprint at admission: admission
  // fits, and the first spill happens inside a session event on a pool
  // worker, once installed regions have grown a session. That exception
  // must reach Wait() instead of std::terminate. A spill that fails
  // leaves its victim resident and intact, so every session still runs to
  // completion and the digest is the unbudgeted one.
  Rng rng(0xFA11'5B11ull);
  const size_t n_groups = 6;
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, n_groups, 3, 16);
  const auto admit_all = [&](Engine* engine) {
    for (size_t g = 0; g < n_groups; ++g) {
      engine->AdmitSession(fuzz::GroupOf(w, g));
    }
  };
  // A cap that never spills, and wins over MPN_MEMORY_BUDGET.
  Engine base(&w.pois, &w.tree, fuzz::MakeEngineOptions(1, size_t{1} << 30));
  admit_all(&base);
  const size_t admitted_bytes = base.memory_stats().resident_bytes;
  base.Start();
  base.Shutdown();
  ASSERT_GT(base.memory_stats().peak_resident_bytes, admitted_bytes);

  for (const size_t threads : {size_t{1}, size_t{2}}) {
    EngineOptions opt = fuzz::MakeEngineOptions(threads, admitted_bytes);
    opt.budget.spill_dir = ::testing::TempDir() + "mpn-no-such-dir/spill";
    Engine engine(&w.pois, &w.tree, opt);
    admit_all(&engine);  // fits the cap: no spill, nothing thrown
    engine.Start();
    std::string what;
    try {
      engine.Wait();
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("mpn engine: session "), std::string::npos) << what;
    EXPECT_NE(what.find("cannot create spill file"), std::string::npos)
        << what;
    // Later Waits rethrow the same error.
    EXPECT_THROW(engine.Wait(), std::runtime_error);
    EXPECT_EQ(engine.memory_stats().spilled_sessions, 0u);
    EXPECT_EQ(engine.ResultDigest(), base.ResultDigest())
        << "threads=" << threads;
  }
}

TEST(SessionStoreTest, RetireWhileSpilledMatchesResidentRetire) {
  // Pre-start retires land while the session sits spilled under a 1-byte
  // cap (AdmitSession rebalances immediately); the pending request must be
  // applied on rehydration exactly as if the session had stayed resident.
  Rng rng(0x7E71'12Eull);
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, 6, 3, 20);
  fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 6, 20);
  plan.waves = 1;
  plan.drain_before.assign(1, 0);
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    fuzz::PlannedSession& s = plan.sessions[i];
    s.wave = 0;
    s.prestart_retire = (i % 2 == 0);
    s.prestart_retire_at = i;  // includes retire-at-0 and mid-run points
  }
  const BudgetRun base = RunWithBudget(w, plan, 1, 0);
  const BudgetRun spill = RunWithBudget(w, plan, 1, 1);
  EXPECT_EQ(spill.digest, base.digest);
  EXPECT_GT(spill.mem.spilled_sessions, 0u);
}

TEST(SessionStoreTest, PerSessionAccessorsMatchUnbudgetedRun) {
  // WithSessionResult is the one per-session read. Under a 1-byte cap it
  // must serve every field a budget-free run serves, for sessions that
  // were spilled when asked too — and without rehydrating them: a read
  // decodes the snapshot into a stack-local, so neither the rehydration
  // count nor the resident estimate moves.
  Rng rng(0xACCE5501ull);
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, 6, 3, 16);
  fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 6, 16);
  plan.waves = 1;
  plan.drain_before.assign(1, 0);
  for (fuzz::PlannedSession& s : plan.sessions) s.wave = 0;

  Engine base(&w.pois, &w.tree, fuzz::MakeEngineOptions(1));
  fuzz::Replay(&base, w, plan);

  Engine budgeted(&w.pois, &w.tree, fuzz::MakeEngineOptions(1, 1));
  fuzz::Replay(&budgeted, w, plan);

  // The cap spilled every session by the end of the run, and the digest
  // the replay read brought none of them back.
  const MemoryStats before = budgeted.memory_stats();
  ASSERT_GT(before.spilled_sessions, 0u);
  EXPECT_EQ(before.resident_bytes, 0u);
  for (uint32_t id = 0; id < plan.sessions.size(); ++id) {
    SCOPED_TRACE("session " + std::to_string(id));
    const SessionFinalResult got = fuzz::ResultOf(budgeted, id);
    const SessionFinalResult want = fuzz::ResultOf(base, id);
    ExpectMetricsEqual(got.metrics, want.metrics, /*compare_timings=*/false);
    EXPECT_EQ(got.has_result, want.has_result);
    EXPECT_EQ(got.po, want.po);
    EXPECT_EQ(got.mailbox_peak, want.mailbox_peak);
    EXPECT_EQ(got.stall_count, want.stall_count);
    // The advance stamps are wall-clock times: only the trace's length is
    // comparable across runs.
    EXPECT_EQ(got.advance_seconds.size(), want.advance_seconds.size());
  }
  const MemoryStats after = budgeted.memory_stats();
  EXPECT_EQ(after.rehydrated_sessions, before.rehydrated_sessions);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
}

TEST(SessionStoreTest, ZeroCapSpillsNothingWhateverTheEnvironment) {
  // bytes_cap == 0 means no spilling; the engine reads no environment
  // variable (MPN_MEMORY_BUDGET reaches only fuzz::MakeEngineOptions).
  Rng rng(0xE17Aull);
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, 4, 3, 12);
  const fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 4, 12);
  const ScopedEnv env("MPN_MEMORY_BUDGET", "1");
  Engine engine(&w.pois, &w.tree, EngineOptions());  // bytes_cap == 0
  fuzz::Replay(&engine, w, plan);
  EXPECT_EQ(engine.memory_stats().spilled_sessions, 0u);
  EXPECT_EQ(engine.memory_stats().rehydrated_sessions, 0u);
}

TEST(SessionStoreTest, ClusterShardsSpillUnderPerShardBudget) {
  Rng rng(0xC1C5'7E44ull);
  const fuzz::World w = fuzz::MakeFuzzWorld(&rng, 8, 3, 16);
  fuzz::FuzzPlan plan = fuzz::MakeFuzzPlan(&rng, 8, 16);
  plan.faults.clear();  // isolate the budget; recovery has its own suite

  const BudgetRun base = RunWithBudget(w, plan, 1, 0);

  ClusterOptions opt;
  opt.workers = 2;
  opt.engine = fuzz::MakeEngineOptions(1, /*bytes_cap=*/1);  // per shard
  ClusterEngine cluster(&w.pois, &w.tree, opt);
  const uint64_t digest = fuzz::Replay(&cluster, w, plan);
  EXPECT_EQ(digest, base.digest);

  const MemoryStats mem = cluster.memory_stats();
  EXPECT_GT(mem.spilled_sessions, 0u);
  EXPECT_GT(mem.rehydrated_sessions, 0u);
  EXPECT_GT(mem.spilled_bytes, 0u);
  EXPECT_GT(mem.peak_resident_bytes, 0u);
}

}  // namespace
}  // namespace mpn
