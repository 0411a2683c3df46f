// Heap footprint of a session's state: the blocks a GroupSession and its
// clients take from operator new, counted by a replacement operator new,
// and what an engine adds per admission on top of them.
//
// The budget charges sessions by StateBytesEstimate, not by heap bytes, so
// nothing else notices a container that allocates behind the estimate's
// back (a std::deque allocates its map and first node even when empty).
// Nor does it charge the record every admitted session keeps, resident,
// spilled or final, so that record must stay small and own no block.
// Counting is thread-local and off outside a CountingScope, so the
// replacement is a plain malloc/free for gtest itself and for the
// sanitizer builds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/group_session.h"
#include "engine/session_table.h"
#include "geom/vec2.h"
#include "index/packed_rtree.h"
#include "sim/client.h"
#include "traj/trajectory.h"

namespace {

thread_local bool tl_counting = false;
thread_local size_t tl_blocks = 0;
thread_local size_t tl_bytes = 0;

void* CountedAlloc(size_t n) {
  if (tl_counting) {
    ++tl_blocks;
    tl_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace mpn {
namespace {

/// Counts this thread's operator new calls while alive.
class CountingScope {
 public:
  CountingScope() {
    tl_blocks = 0;
    tl_bytes = 0;
    tl_counting = true;
  }
  ~CountingScope() { tl_counting = false; }
  CountingScope(const CountingScope&) = delete;
  CountingScope& operator=(const CountingScope&) = delete;

  size_t blocks() const { return tl_blocks; }
  size_t bytes() const { return tl_bytes; }
};

/// A walk of `steps` steps whose heading turns every step; every fifth
/// step stands still.
Trajectory Walk(Point start, size_t steps) {
  Trajectory traj;
  traj.positions.push_back(start);
  for (size_t i = 1; i <= steps; ++i) {
    if (i % 5 != 0) start = start + UnitFromAngle(0.7 * i) * 3.0;
    traj.positions.push_back(start);
  }
  return traj;
}

TEST(GroupSessionFootprintTest, ClientWalkAllocatesNothing) {
  const Trajectory traj = Walk({50.0, 50.0}, 40);
  size_t blocks = 0;
  bool inside = false;
  {
    CountingScope scope;
    MpnClient client(&traj);
    client.SetRegion(SafeRegion::MakeCircle(Circle({50.0, 50.0}, 40.0)));
    for (size_t t = 0; t < traj.size(); ++t) {
      client.Advance(t);
      inside |= client.InsideRegion();
      EXPECT_TRUE(client.Hint().has_heading || t == 0);
    }
    blocks = scope.blocks();
  }
  EXPECT_TRUE(inside);
  EXPECT_EQ(blocks, 0u) << "an MpnClient owns no heap block of its own";
}

TEST(GroupSessionFootprintTest, FreshPairSessionAllocatesClientsAndTraces) {
  // A two-member Circle session: the client vector and the advance trace,
  // nothing else — no per-timestamp counter (the engine adds those up per
  // pool worker), no mailbox before the first buffered update, no heading
  // window block. At fleet_spill's horizon of 16 and at the paper's quick
  // horizon of 1,200.
  const std::vector<Point> pois = {{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  const PackedRTree tree = PackedRTree::Build(pois);
  SimOptions opt;
  opt.server.method = Method::kCircle;
  for (const size_t horizon : {size_t{16}, size_t{1200}}) {
    SCOPED_TRACE("horizon " + std::to_string(horizon));
    const Trajectory a = Walk({10.0, 10.0}, horizon - 1);
    const Trajectory b = Walk({90.0, 90.0}, horizon - 1);
    const std::vector<const Trajectory*> group = {&a, &b};

    CountingScope scope;
    const GroupSession session(0, &pois, &tree, group, opt);
    const size_t blocks = scope.blocks();
    const size_t bytes = scope.bytes();
    EXPECT_EQ(session.horizon(), horizon);
    EXPECT_EQ(blocks, 2u);
    EXPECT_EQ(bytes, 2 * sizeof(MpnClient) + horizon * sizeof(double));
  }
}

TEST(GroupSessionFootprintTest, AdmissionAddsNoBlockPerSession) {
  // Pair sessions of horizon 16 on an unbudgeted engine: each admission
  // allocates its GroupSession and the session's two blocks (above), and
  // nothing else of its own — the record is built in a table block, its
  // lock is a table stripe and its trajectory pointers go to the table's
  // arena. The table allocates a record block per kBlockRecords sessions,
  // an arena chunk per kArenaChunk pointers, and at most once per block or
  // chunk to grow the vectors that hold them.
  constexpr size_t kHorizon = 16;
  constexpr size_t kSessions = 2 * SessionTable::kBlockRecords + 1;
  const std::vector<Point> pois = {{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  const PackedRTree tree = PackedRTree::Build(pois);
  const Trajectory a = Walk({10.0, 10.0}, kHorizon - 1);
  const Trajectory b = Walk({90.0, 90.0}, kHorizon - 1);
  EngineOptions opt;
  opt.sim.server.method = Method::kCircle;
  Engine engine(&pois, &tree, opt);
  // Built outside the scope: the caller's vector is moved in, not copied.
  std::vector<std::vector<const Trajectory*>> groups(
      kSessions, std::vector<const Trajectory*>{&a, &b});

  size_t blocks = 0;
  {
    CountingScope scope;
    for (std::vector<const Trajectory*>& g : groups) {
      engine.AdmitSession(std::move(g));
    }
    blocks = scope.blocks();
  }
  const size_t record_blocks =
      (kSessions + SessionTable::kBlockRecords - 1) /
      SessionTable::kBlockRecords;
  const size_t arena_chunks =
      (2 * kSessions + SessionTable::kArenaChunk - 1) /
      SessionTable::kArenaChunk;
  EXPECT_EQ(engine.session_count(), kSessions);
  EXPECT_GE(blocks, 3 * kSessions);
  EXPECT_LE(blocks, 3 * kSessions + 2 * (record_blocks + arena_chunks));
  engine.Start();
  engine.Shutdown();
}

TEST(GroupSessionFootprintTest, SessionIsAtMost600Bytes) {
  // One per-timestamp vector header, not four: 672 B with four traces.
  if (sizeof(void*) != 8) GTEST_SKIP() << "the bound is for LP64 targets";
  EXPECT_LE(sizeof(GroupSession), 600u);
}

TEST(GroupSessionFootprintTest, SessionRecordIsAtMost112Bytes) {
  if (sizeof(void*) != 8) GTEST_SKIP() << "the bound is for LP64 targets";
  EXPECT_LE(sizeof(SessionRecord), 112u);
}

}  // namespace
}  // namespace mpn
