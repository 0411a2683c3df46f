// Differential property test for the verification kernels (ctest label
// `unit`): replays the lifecycle fuzzer's seed-derived plans through the
// full engine with the scalar (AoS) and the SoA tile-verify kernels and
// asserts Engine::ResultDigest bit-identity between them — across 1/2/4
// engine threads and 1/2 process shards. This is the engine-wide
// enforcement of the kernel bit-identity contract (tile_verify.cc states
// the per-operation argument; gt_verify_test.cc checks single calls).
//
// Widen the seed set with MPN_KERNEL_DIFF_SEEDS (a count or an explicit
// comma-separated list) and run the binary directly.
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

std::vector<uint64_t> DiffSeeds() {
  return fuzz::SeedsFromEnv("MPN_KERNEL_DIFF_SEEDS",
                            {0xD1FF01, 0xD1FF02, 0xD1FF03});
}

class KernelDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(KernelDifferentialTest, ScalarAndSoAKernelsProduceIdenticalDigests) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n_groups = static_cast<size_t>(rng.UniformInt(3, 6));
  const size_t group_size = static_cast<size_t>(rng.UniformInt(1, 3));
  const size_t horizon = static_cast<size_t>(rng.UniformInt(40, 90));
  const World w = MakeFuzzWorld(&rng, n_groups, group_size, horizon);
  const FuzzPlan plan = MakeFuzzPlan(&rng, n_groups, horizon);

  // Reference: the original scalar AoS walk, single-threaded.
  const uint64_t reference =
      RunEnginePlan(w, plan, 1, KernelKind::kScalar);
  for (size_t threads : {1u, 2u, 4u}) {
    EXPECT_EQ(RunEnginePlan(w, plan, threads, KernelKind::kSoA), reference)
        << "SoA kernel digest diverged from scalar at " << threads
        << " threads (seed 0x" << std::hex << seed << ")";
  }
  // And across process shards (fault injection disabled: this test is
  // about kernel equivalence, not recovery).
  for (size_t workers : {1u, 2u}) {
    EXPECT_EQ(RunClusterPlan(w, plan, workers, 2, KernelKind::kSoA,
                             /*with_faults=*/false),
              reference)
        << "SoA kernel digest diverged at " << workers
        << " shard(s) (seed 0x" << std::hex << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         testing::ValuesIn(DiffSeeds()), fuzz::SeedName);

}  // namespace
}  // namespace mpn
