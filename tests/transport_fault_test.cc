// Hardened-transport tests (ctest label `cluster`): frame integrity
// (magic/version/CRC32 header, typed FrameError), per-operation deadlines
// over the AF_UNIX socketpair, deterministic fault injection (FaultPlan /
// InjectFaultAt, and the test-side MPN_FAULT_PLAN grammar of test_env.h)
// and the coordinator's liveness
// machinery — every injected fault kind, and a SIGSTOPped (hung-but-alive)
// worker caught by the heartbeat miss budget, must recover to a
// ResultDigest() bit-identical to an uninterrupted single-process Engine,
// with the new RecoveryStats counters attributing what happened. See
// docs/ARCHITECTURE.md §5d.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/engine.h"
#include "engine/ipc.h"
#include "engine/transport.h"
#include "engine_fuzz_util.h"
#include "test_env.h"

namespace mpn {
namespace {

using fuzz::GroupOf;
using fuzz::MakeClusterOptions;
using fuzz::MakeEngineOptions;
using fuzz::MakeWorld;
using fuzz::World;

// Every frame-level kind (kCrash, the one plan-level kind, is checked on
// its own).
constexpr FaultKind kAllKinds[] = {FaultKind::kShortIo, FaultKind::kEintrStorm,
                                   FaultKind::kCorrupt, FaultKind::kTruncate,
                                   FaultKind::kStall, FaultKind::kReset};

// --- FaultKind names / Crc32 -------------------------------------------------

TEST(Crc32Test, MatchesIeee8023KnownAnswer) {
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);  // empty message: init ^ final-xor
  // One-bit sensitivity: flipping any payload bit must move the CRC.
  uint8_t dirty[sizeof(check)];
  std::copy(check, check + sizeof(check), dirty);
  dirty[4] ^= 0x01;
  EXPECT_NE(Crc32(dirty, sizeof(dirty)), Crc32(check, sizeof(check)));
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // The word-at-a-time loop against the definition, one bit at a time:
  // every length up to past a sharded admit frame (~1.07 KB) at every
  // start offset mod 8, so each head/tail split and misalignment runs.
  const auto reference = [](const uint8_t* p, size_t n) {
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  constexpr size_t kMaxLen = 1100;
  std::vector<uint8_t> buf(kMaxLen + 8);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                reference(buf.data() + offset, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(FaultKindTest, NamesRoundTripAndUnknownNamesThrow) {
  for (const FaultKind k : kAllKinds) {
    EXPECT_EQ(ParseFaultKind(FaultKindName(k)), k);
  }
  EXPECT_STREQ(FaultKindName(FaultKind::kCrash), "crash");
  EXPECT_EQ(ParseFaultKind("crash"), FaultKind::kCrash);
  EXPECT_THROW(ParseFaultKind("bogus"), std::runtime_error);
  EXPECT_THROW(ParseFaultKind(""), std::runtime_error);
}

TEST(FaultKindTest, FatalKindsAreTheFrameLevelOnes) {
  EXPECT_FALSE(FaultPlan::IsFatal(FaultKind::kShortIo));
  EXPECT_FALSE(FaultPlan::IsFatal(FaultKind::kEintrStorm));
  EXPECT_TRUE(FaultPlan::IsFatal(FaultKind::kCorrupt));
  EXPECT_TRUE(FaultPlan::IsFatal(FaultKind::kTruncate));
  EXPECT_TRUE(FaultPlan::IsFatal(FaultKind::kStall));
  EXPECT_TRUE(FaultPlan::IsFatal(FaultKind::kReset));
  EXPECT_TRUE(FaultPlan::IsFatal(FaultKind::kCrash));
}

// --- FaultPlan parsing + per-incarnation batching ----------------------------

TEST(FaultPlanTest, ParsesSpecAndConsumesFifoPerShard) {
  FaultPlan plan = ParseFaultPlan(" 0:3:corrupt, 1:5:stall ,0:7:reset,");
  ASSERT_EQ(plan.events.size(), 3u);

  // Shard 0's first batch ends at its first fatal kind (corrupt).
  std::vector<FaultPlan::Event> batch = plan.TakeIncarnation(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].at, 3u);
  EXPECT_EQ(batch[0].kind, FaultKind::kCorrupt);
  // The second incarnation gets the next event.
  batch = plan.TakeIncarnation(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].at, 7u);
  EXPECT_EQ(batch[0].kind, FaultKind::kReset);
  EXPECT_TRUE(plan.TakeIncarnation(0).empty());

  batch = plan.TakeIncarnation(1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].kind, FaultKind::kStall);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanTest, NonFatalKindsRideWithTheirIncarnationsFatal) {
  FaultPlan plan = ParseFaultPlan("0:1:short,0:2:eintr,0:3:corrupt,0:4:reset");
  std::vector<FaultPlan::Event> batch = plan.TakeIncarnation(0);
  ASSERT_EQ(batch.size(), 3u);  // short + eintr + the fatal corrupt
  EXPECT_EQ(batch[0].kind, FaultKind::kShortIo);
  EXPECT_EQ(batch[1].kind, FaultKind::kEintrStorm);
  EXPECT_EQ(batch[2].kind, FaultKind::kCorrupt);
  batch = plan.TakeIncarnation(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].kind, FaultKind::kReset);
  EXPECT_TRUE(plan.empty());

  // Crashes and frame faults share one FIFO in plan order: a leading crash
  // is its incarnation's whole batch, and the frame faults behind it ride
  // with the replacement.
  plan = ParseFaultPlan("0:5:crash,0:2:short,0:3:corrupt");
  batch = plan.TakeIncarnation(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].kind, FaultKind::kCrash);
  EXPECT_EQ(batch[0].at, 5u);
  batch = plan.TakeIncarnation(0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].kind, FaultKind::kShortIo);
  EXPECT_EQ(batch[1].kind, FaultKind::kCorrupt);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanTest, MalformedSpecsFailLoudly) {
  EXPECT_THROW(ParseFaultPlan("0:1"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("0:1:bogus"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("0:5:crsh"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("a:1:stall"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("0:x:corrupt"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("0:5x:crash"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan(":1:corrupt"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("0:1:"), std::runtime_error);
  // Digits only: strtoull would wrap a sign to a shard or index near 2^64.
  EXPECT_THROW(ParseFaultPlan("-1:3:crash"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("0:-5:crash"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("+1:3:crash"), std::runtime_error);
  EXPECT_THROW(ParseFaultPlan("0:99999999999999999999:crash"),
               std::runtime_error);
  EXPECT_TRUE(ParseFaultPlan("").empty());
  // Shard 5 of a 2-worker cluster is never handed out, so the plan would
  // arm nothing and a soak would pass without its fault.
  const World w = MakeWorld(50, 1, 10, 0xFA0000);
  ClusterEngine cluster(&w.pois, &w.tree, MakeClusterOptions(2, 1));
  EXPECT_THROW(InjectFaultPlan(&cluster, ParseFaultPlan("5:3:crash")),
               std::out_of_range);
}

TEST(FaultPlanTest, SeededPlansAreDeterministicAndInBounds) {
  const FaultPlan a = SeededFaultPlan(42, 4);
  const FaultPlan b = SeededFaultPlan(42, 4);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GE(a.events.size(), 1u);
  ASSERT_LE(a.events.size(), 2u);
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].shard, b.events[i].shard);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_LT(a.events[i].shard, 4u);
    EXPECT_NE(a.events[i].kind, FaultKind::kCrash);
  }

  // Golden plans over the soak's two shards: a "seed:N" repro line must
  // keep naming the same plan.
  struct Golden {
    uint64_t seed;
    std::vector<FaultPlan::Event> events;
  };
  const Golden goldens[] = {
      {1, {{0, 8, FaultKind::kReset}, {1, 10, FaultKind::kCorrupt}}},
      {2, {{0, 9, FaultKind::kEintrStorm}, {0, 0, FaultKind::kStall}}},
      {3, {{0, 5, FaultKind::kStall}}},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    const FaultPlan plan = SeededFaultPlan(g.seed, 2);
    ASSERT_EQ(plan.events.size(), g.events.size());
    for (size_t i = 0; i < plan.events.size(); ++i) {
      EXPECT_EQ(plan.events[i].shard, g.events[i].shard);
      EXPECT_EQ(plan.events[i].at, g.events[i].at);
      EXPECT_EQ(plan.events[i].kind, g.events[i].kind);
    }
  }
}

TEST(FaultPlanTest, EnvVariableFeedsBothSpecForms) {
  FaultPlan explicit_plan;
  {
    const ScopedEnv env("MPN_FAULT_PLAN", "1:2:trunc");
    explicit_plan = FaultPlanFromEnv(2);
  }
  ASSERT_EQ(explicit_plan.events.size(), 1u);
  EXPECT_EQ(explicit_plan.events[0].shard, 1u);
  EXPECT_EQ(explicit_plan.events[0].at, 2u);
  EXPECT_EQ(explicit_plan.events[0].kind, FaultKind::kTruncate);

  FaultPlan seeded;
  {
    const ScopedEnv env("MPN_FAULT_PLAN", "seed:7");
    seeded = FaultPlanFromEnv(3);
  }
  const FaultPlan reference = SeededFaultPlan(7, 3);
  ASSERT_EQ(seeded.events.size(), reference.events.size());
  for (size_t i = 0; i < seeded.events.size(); ++i) {
    EXPECT_EQ(seeded.events[i].shard, reference.events[i].shard);
    EXPECT_EQ(seeded.events[i].at, reference.events[i].at);
    EXPECT_EQ(seeded.events[i].kind, reference.events[i].kind);
  }

  {
    const ScopedEnv env("MPN_FAULT_PLAN", "seed:x");
    EXPECT_THROW(FaultPlanFromEnv(2), std::runtime_error);
  }
  // Unset: the caller's spec, empty by default.
  const ScopedEnv env("MPN_FAULT_PLAN", nullptr);
  EXPECT_TRUE(FaultPlanFromEnv(2).empty());
  EXPECT_EQ(FaultPlanFromEnv(2, "0:4:reset").events.size(), 1u);
}

// --- Frame layer -------------------------------------------------------------

WireBuffer SmallFrame() {
  WireBuffer f;
  f.PutU8(7);
  f.PutString("payload");
  f.PutU64(0xDEADBEEFCAFEF00Dull);
  return f;
}

// The byte backend the frame and cluster suites run over; its one value
// names their instantiation ("Backends/.../SocketPair").
enum class Backend : uint8_t { kSocketPair = 0 };

std::string BackendName(const testing::TestParamInfo<Backend>&) {
  return "SocketPair";
}

class FramePairTest : public testing::TestWithParam<Backend> {
 protected:
  void SetUp() override { IpcChannel::MakePair(&a_, &b_); }
  IpcChannel a_, b_;
};

TEST_P(FramePairTest, RoundTripPreservesBytes) {
  EXPECT_EQ(IpcChannel::kHeaderBytes, 16u);
  EXPECT_EQ(IpcChannel::kFrameMagic, 0x314E504Du);  // "MPN1" little-endian
  const WireBuffer frame = SmallFrame();
  ASSERT_EQ(a_.SendFrame(frame, 1000), IoStatus::kOk);
  std::vector<uint8_t> payload;
  ASSERT_EQ(b_.RecvFrame(&payload, 1000), IoStatus::kOk);
  EXPECT_EQ(payload, frame.data());

  // Empty payloads round-trip too (CRC of the empty message).
  ASSERT_EQ(b_.SendFrame(WireBuffer(), 1000), IoStatus::kOk);
  ASSERT_EQ(a_.RecvFrame(&payload, 1000), IoStatus::kOk);
  EXPECT_TRUE(payload.empty());
}

TEST_P(FramePairTest, FirstByteDeadlineLeavesTheStreamClean) {
  std::vector<uint8_t> payload;
  EXPECT_EQ(b_.RecvFrame(&payload, 50), IoStatus::kDeadline);
  // Nothing was consumed: the next frame decodes normally.
  const WireBuffer frame = SmallFrame();
  ASSERT_EQ(a_.SendFrame(frame, 1000), IoStatus::kOk);
  ASSERT_EQ(b_.RecvFrame(&payload, 1000), IoStatus::kOk);
  EXPECT_EQ(payload, frame.data());
}

TEST_P(FramePairTest, CorruptedFrameThrowsTypedError) {
  a_.ArmFault(0, FaultKind::kCorrupt);
  ASSERT_EQ(a_.SendFrame(SmallFrame(), 1000), IoStatus::kOk);
  std::vector<uint8_t> payload;
  try {
    b_.RecvFrame(&payload, 1000);
    FAIL() << "a corrupted frame must throw FrameError";
  } catch (const FrameError& e) {
    EXPECT_NE(std::string(e.what()).find("mpn ipc"), std::string::npos);
  }
  EXPECT_EQ(a_.counters().faults_injected, 1u);
}

TEST_P(FramePairTest, TruncatedFrameTearsThenCloses) {
  a_.ArmFault(0, FaultKind::kTruncate);
  EXPECT_EQ(a_.SendFrame(SmallFrame(), 1000), IoStatus::kClosed);
  std::vector<uint8_t> payload;
  // The receiver sees a complete header, then EOF mid-payload — a torn
  // frame, not a clean close.
  EXPECT_THROW(b_.RecvFrame(&payload, 1000), FrameError);
}

TEST_P(FramePairTest, ResetDropsTheConnectionBetweenFrames) {
  a_.ArmFault(0, FaultKind::kReset);
  EXPECT_EQ(a_.SendFrame(SmallFrame(), 1000), IoStatus::kClosed);
  std::vector<uint8_t> payload;
  // Nothing of the frame was written: a clean kClosed, never garbage.
  EXPECT_EQ(b_.RecvFrame(&payload, 1000), IoStatus::kClosed);
}

TEST_P(FramePairTest, ShortIoAndEintrStormsAreAbsorbed) {
  a_.ArmFault(0, FaultKind::kShortIo);
  a_.ArmFault(1, FaultKind::kEintrStorm);
  b_.ArmFault(0, FaultKind::kShortIo);
  const WireBuffer frame = SmallFrame();
  std::vector<uint8_t> payload;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(a_.SendFrame(frame, 1000), IoStatus::kOk);
    ASSERT_EQ(b_.RecvFrame(&payload, 1000), IoStatus::kOk);
    EXPECT_EQ(payload, frame.data());
  }
  EXPECT_EQ(a_.counters().faults_injected, 2u);
  // Short I/O forces 1-byte chunks through the 16-byte header alone.
  EXPECT_GE(a_.counters().partial_ops, 15u);
  EXPECT_GE(b_.counters().partial_ops, 15u);
  // The storm burns kEintrStormLength (8) simulated EINTRs.
  EXPECT_GE(a_.counters().retries, 8u);
}

TEST_P(FramePairTest, BadHeadersAreRejectedNotDecoded) {
  const auto put32 = [](uint8_t* p, uint32_t v) {
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
  };
  struct Bad {
    uint32_t magic, version, length;
    const char* what;
  };
  const Bad bads[] = {
      {0x0BADF00Du, IpcChannel::kFrameVersion, 0, "bad magic"},
      {IpcChannel::kFrameMagic, 99, 0, "unknown version"},
      {IpcChannel::kFrameMagic, IpcChannel::kFrameVersion, 0x7FFFFFFFu,
       "oversized length"},
  };
  for (const Bad& bad : bads) {
    SCOPED_TRACE(bad.what);
    Transport raw, rx_end;
    Transport::MakePair(&raw, &rx_end);
    IpcChannel rx(std::move(rx_end));
    uint8_t header[IpcChannel::kHeaderBytes];
    put32(header + 0, bad.magic);
    put32(header + 4, bad.version);
    put32(header + 8, bad.length);
    put32(header + 12, 0);  // CRC never reached: header rejected first
    ASSERT_EQ(raw.SendBytes(header, sizeof(header), 1000), IoStatus::kOk);
    std::vector<uint8_t> payload;
    EXPECT_THROW(rx.RecvFrame(&payload, 1000), FrameError);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FramePairTest,
                         testing::Values(Backend::kSocketPair), BackendName);

// --- Cluster recovery under injected faults ----------------------------------

// Worker frame-op arithmetic for the 4-group / 2-worker workload below
// (the worker side is single-threaded, so this is deterministic): shard 1
// serves groups 1 and 3 — frame ops 0 and 1 are the admit receives, op 2
// the drain receive, op 3 the drain-reply send. Byte-level kinds target
// op 2 so their retries land in the same drain reply's counter delta;
// fatal kinds target op 3 so the coordinator is mid-collection when the
// fault fires.
constexpr size_t kGroups = 4;
constexpr size_t kDrainRecvOp = 2;
constexpr size_t kReplySendOp = 3;

class ClusterFaultTest : public testing::TestWithParam<Backend> {
 protected:
  static uint64_t ReferenceDigest(const World& w) {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
    engine.Start();
    for (size_t g = 0; g < kGroups; ++g) engine.AdmitSession(GroupOf(w, g));
    engine.Shutdown();
    return engine.ResultDigest();
  }

  ClusterOptions FastOptions() const {
    ClusterOptions opt = MakeClusterOptions(2, 1);
    opt.transport.heartbeat_interval_ms = 100;
    opt.transport.heartbeat_timeout_ms = 500;
    opt.transport.heartbeat_miss_budget = 3;
    return opt;
  }

  /// Runs the workload with `kind` armed at shard 1's `frame`-th frame op
  /// and asserts the digest stayed bit-identical to the uninterrupted
  /// single-process run; returns the supervisor counters for the per-kind
  /// assertions.
  ClusterEngine::RecoveryStats RunWithFault(const World& w, uint64_t ref,
                                            size_t frame, FaultKind kind) {
    ClusterEngine cluster(&w.pois, &w.tree, FastOptions());
    cluster.InjectFaultAt(1, frame, kind);
    cluster.Start();
    for (size_t g = 0; g < kGroups; ++g) cluster.AdmitSession(GroupOf(w, g));
    cluster.Wait();
    EXPECT_EQ(cluster.ResultDigest(), ref) << FaultKindName(kind);
    EXPECT_FALSE(cluster.shard_lost(1));
    cluster.Shutdown();
    EXPECT_EQ(cluster.ResultDigest(), ref) << FaultKindName(kind);
    return cluster.recovery_stats();
  }
};

TEST_P(ClusterFaultTest, ShortIoIsAbsorbedWithoutARestart) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0001);
  const uint64_t ref = ReferenceDigest(w);
  const ClusterEngine::RecoveryStats stats =
      RunWithFault(w, ref, kDrainRecvOp, FaultKind::kShortIo);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

TEST_P(ClusterFaultTest, EintrStormIsRetriedAndCounted) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0002);
  const uint64_t ref = ReferenceDigest(w);
  const ClusterEngine::RecoveryStats stats =
      RunWithFault(w, ref, kDrainRecvOp, FaultKind::kEintrStorm);
  EXPECT_EQ(stats.restarts, 0u);
  // The worker's drain reply ships its channel's retry delta, which
  // includes the 8 simulated EINTRs the storm burned.
  EXPECT_GE(stats.retries, 8u);
}

TEST_P(ClusterFaultTest, CorruptReplyIsDetectedAndRecovered) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0003);
  const uint64_t ref = ReferenceDigest(w);
  const ClusterEngine::RecoveryStats stats =
      RunWithFault(w, ref, kReplySendOp, FaultKind::kCorrupt);
  EXPECT_GE(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.restarts, 1u);
}

TEST_P(ClusterFaultTest, TruncatedReplyIsDetectedAndRecovered) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0004);
  const uint64_t ref = ReferenceDigest(w);
  const ClusterEngine::RecoveryStats stats =
      RunWithFault(w, ref, kReplySendOp, FaultKind::kTruncate);
  EXPECT_GE(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.restarts, 1u);
}

TEST_P(ClusterFaultTest, ConnectionResetIsRecovered) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0005);
  const uint64_t ref = ReferenceDigest(w);
  const ClusterEngine::RecoveryStats stats =
      RunWithFault(w, ref, kReplySendOp, FaultKind::kReset);
  EXPECT_EQ(stats.restarts, 1u);
}

TEST_P(ClusterFaultTest, StalledWorkerExhaustsTheMissBudgetAndRecovers) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0006);
  const uint64_t ref = ReferenceDigest(w);
  const ClusterEngine::RecoveryStats stats =
      RunWithFault(w, ref, kReplySendOp, FaultKind::kStall);
  EXPECT_GE(stats.heartbeat_misses, 3u);  // the full miss budget
  EXPECT_EQ(stats.restarts, 1u);
}

TEST_P(ClusterFaultTest, SigstoppedWorkerIsKilledByTheMissBudget) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0007);
  const uint64_t ref = ReferenceDigest(w);
  ClusterEngine cluster(&w.pois, &w.tree, FastOptions());
  cluster.Start();
  for (size_t g = 0; g < kGroups; ++g) cluster.AdmitSession(GroupOf(w, g));
  // Hung, not dead: the kernel keeps the pipes open, so only the
  // heartbeat machinery can notice — EOF never comes.
  cluster.StopWorkerForTest(1);
  cluster.Wait();
  EXPECT_EQ(cluster.ResultDigest(), ref);
  const ClusterEngine::RecoveryStats stats = cluster.recovery_stats();
  EXPECT_GE(stats.heartbeat_misses, 3u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_FALSE(cluster.shard_lost(1));
  cluster.Shutdown();
  EXPECT_EQ(cluster.ResultDigest(), ref);
}

TEST_P(ClusterFaultTest, DrainDeadlineCatchesAHangWhenTheBudgetIsHuge) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0008);
  const uint64_t ref = ReferenceDigest(w);
  ClusterOptions opt = FastOptions();
  opt.transport.heartbeat_timeout_ms = 300;
  opt.transport.heartbeat_miss_budget = 1000;  // misses alone never trip
  opt.transport.drain_deadline_ms = 500;
  ClusterEngine cluster(&w.pois, &w.tree, opt);
  cluster.Start();
  for (size_t g = 0; g < kGroups; ++g) cluster.AdmitSession(GroupOf(w, g));
  cluster.StopWorkerForTest(1);
  cluster.Wait();
  EXPECT_EQ(cluster.ResultDigest(), ref);
  const ClusterEngine::RecoveryStats stats = cluster.recovery_stats();
  EXPECT_GE(stats.deadline_hits, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  cluster.Shutdown();
}

TEST_P(ClusterFaultTest, FailStopSurfacesTheTransportErrorText) {
  const World w = MakeWorld(200, kGroups, 60, 0xFA0009);
  ClusterOptions opt = FastOptions();
  opt.recovery.max_restarts = 0;  // pre-elastic fail-stop
  ClusterEngine cluster(&w.pois, &w.tree, opt);
  cluster.InjectFaultAt(1, kReplySendOp, FaultKind::kCorrupt);
  cluster.Start();
  for (size_t g = 0; g < kGroups; ++g) cluster.AdmitSession(GroupOf(w, g));
  try {
    cluster.Wait();
    FAIL() << "fail-stop must surface the integrity failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    // The typed frame failure is carried into the per-shard error text.
    EXPECT_NE(what.find("mpn ipc"), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ClusterFaultTest,
                         testing::Values(Backend::kSocketPair), BackendName);

// --- Randomized fault soak (CI re-runs this with MPN_FAULT_PLAN=seed:N) ------

TEST(FaultSoakTest, RandomizedPlanKeepsTheDigestBitIdentical) {
  const size_t kSoakGroups = 8;
  const World w = MakeWorld(200, kSoakGroups, 60, 0xFA0050);

  // Two serving rounds so the plan's frame indices (SeededFaultPlan draws 0-11)
  // reach admits, drains, replies and the shutdown exchange.
  uint64_t ref = 0;
  {
    Engine engine(&w.pois, &w.tree, MakeEngineOptions(1));
    engine.Start();
    for (size_t g = 0; g < 4; ++g) engine.AdmitSession(GroupOf(w, g));
    engine.Wait();
    for (size_t g = 4; g < kSoakGroups; ++g) {
      engine.AdmitSession(GroupOf(w, g));
    }
    engine.Shutdown();
    ref = engine.ResultDigest();
  }

  ClusterOptions opt = MakeClusterOptions(2, 1);
  opt.transport.heartbeat_interval_ms = 100;
  opt.transport.heartbeat_timeout_ms = 500;
  opt.transport.heartbeat_miss_budget = 3;
  // A seeded plan can land both its fatal events on one shard; keep the
  // budget comfortably above that.
  opt.recovery.max_restarts = 6;

  // The ctest entry runs the fixed fallback seed; the CI fault soak (and
  // local repros) export MPN_FAULT_PLAN=seed:N to randomize it, or
  // MPN_FAULT_PLAN=shard:t:crash to kill a worker at virtual timestamp t.
  ClusterEngine cluster(&w.pois, &w.tree, opt);
  InjectFaultPlan(&cluster, FaultPlanFromEnv(opt.workers, "seed:1"));

  cluster.Start();
  for (size_t g = 0; g < 4; ++g) cluster.AdmitSession(GroupOf(w, g));
  cluster.Wait();
  for (size_t g = 4; g < kSoakGroups; ++g) {
    cluster.AdmitSession(GroupOf(w, g));
  }
  cluster.Wait();
  EXPECT_EQ(cluster.ResultDigest(), ref);
  cluster.Shutdown();
  EXPECT_EQ(cluster.ResultDigest(), ref);
  EXPECT_FALSE(cluster.shard_lost(0));
  EXPECT_FALSE(cluster.shard_lost(1));
}

}  // namespace
}  // namespace mpn
