// Deterministic lifecycle fuzzer (ctest label `unit`): seeded random
// schedules of admit / retire / recompute-cost / mailbox-capacity churn,
// replayed at 1/2/4 threads and at 1/2/4 process shards — with seeded
// worker crashes AND transport faults (0-2 each: short I/O, EINTR storms,
// frame corruption/truncation, stalls, resets) injected into the cluster
// replays — asserting digest bit-identity on every seed.
//
// Each seed derives (a) a small world and (b) a plan: sessions with random
// tunings (mailbox capacity incl. 0, deterministic retire_at truncations,
// wall-clock-only recompute padding), assigned to admission waves that are
// drained by serving-loop Wait() calls, plus deterministic pre-start
// RetireSession truncations and one fault plan armed via InjectFaultAt:
// 0–2 crash events (shard slot, virtual kill timestamp) followed by 0–2
// transport-fault events (shard slot, frame index, kind). Every run admits
// in the same logical order, so the digest must be bit-identical no
// matter how the work is scheduled — across thread counts in one process,
// across worker processes in a cluster, and across supervised worker
// deaths or transport faults recovered by snapshot replay.
//
// The world/plan machinery is shared with kernel_differential_test.cc via
// engine_fuzz_util.h.
//
// The fixed seed list below is what ctest runs; set MPN_FUZZ_SEEDS to
// widen locally (a count, e.g. MPN_FUZZ_SEEDS=32, or an explicit
// comma-separated list of seeds) and run the binary directly:
//   MPN_FUZZ_SEEDS=32 ./tests/engine_fuzz_test
// (ctest registers the test names discovered at build time, so the
// widened set is only addressable through the binary.)
#include <gtest/gtest.h>

#include "engine_fuzz_util.h"

namespace mpn {
namespace {

using fuzz::FuzzPlan;
using fuzz::MakeFuzzPlan;
using fuzz::MakeFuzzWorld;
using fuzz::RunClusterPlan;
using fuzz::RunEnginePlan;
using fuzz::World;

std::vector<uint64_t> FuzzSeeds() {
  return fuzz::SeedsFromEnv("MPN_FUZZ_SEEDS",
                            {0xF0221A01, 0xF0221A02, 0xF0221A03});
}

class EngineFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzTest, DigestBitIdenticalAcrossThreadsAndShards) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n_groups = static_cast<size_t>(rng.UniformInt(3, 6));
  const size_t group_size = static_cast<size_t>(rng.UniformInt(1, 3));
  const size_t horizon = static_cast<size_t>(rng.UniformInt(40, 90));
  const World w = MakeFuzzWorld(&rng, n_groups, group_size, horizon);
  const FuzzPlan plan = MakeFuzzPlan(&rng, n_groups, horizon);

  const uint64_t reference = RunEnginePlan(w, plan, 1);
  for (size_t threads : {2u, 4u}) {
    EXPECT_EQ(RunEnginePlan(w, plan, threads), reference)
        << "engine digest diverged at " << threads << " threads (seed 0x"
        << std::hex << seed << ")";
  }
  for (size_t workers : {1u, 2u, 4u}) {
    EXPECT_EQ(RunClusterPlan(w, plan, workers, 2), reference)
        << "cluster digest diverged at " << workers << " worker(s) (seed 0x"
        << std::hex << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         testing::ValuesIn(FuzzSeeds()), fuzz::SeedName);

}  // namespace
}  // namespace mpn
