// Differential property test for the verification kernels (ctest label
// `unit`): drives every session of the lifecycle fuzzer's seed-derived
// plans in order (fuzz::DriveInOrder, with its tuning and pre-start
// retirement, so it meets exactly the recomputes the engine runs: the
// driven sessions' deterministic totals must equal a one-thread engine
// replay of the plan) and
// replays each recompute through ComputeTileMsr under the scalar (AoS)
// and the SoA tile-verify kernel. Both replays and the served result must
// agree bit for bit: po, every region's tiles and every MsrStats counter.
// This is the recompute-level enforcement of the kernel bit-identity
// contract (tile_verify.cc states the per-operation argument;
// gt_verify_test.cc checks single calls). Scheduling invariance across
// threads and shards is engine_fuzz_test's job.
//
// Widen the seed set with MPN_KERNEL_DIFF_SEEDS (a count or an explicit
// comma-separated list) and run the binary directly.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "engine_fuzz_util.h"

namespace mpn {
namespace {

using fuzz::FuzzPlan;
using fuzz::MakeFuzzPlan;
using fuzz::MakeFuzzWorld;
using fuzz::World;

std::vector<uint64_t> DiffSeeds() {
  return fuzz::SeedsFromEnv("MPN_KERNEL_DIFF_SEEDS",
                            {0xD1FF01, 0xD1FF02, 0xD1FF03});
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SamePoint(const Point& a, const Point& b) {
  return SameBits(a.x, b.x) && SameBits(a.y, b.y);
}

/// The first field in which `a` and `b` differ ("" when bit-identical).
std::string FirstDifference(const MsrResult& a, const MsrResult& b) {
  if (a.po_id != b.po_id || !SamePoint(a.po, b.po) ||
      !SameBits(a.po_agg, b.po_agg)) {
    return "meeting point";
  }
  if (a.regions.size() != b.regions.size()) return "region count";
  for (size_t i = 0; i < a.regions.size(); ++i) {
    const SafeRegion& ra = a.regions[i];
    const SafeRegion& rb = b.regions[i];
    const std::string user = "user " + std::to_string(i) + "'s ";
    if (ra.kind() != rb.kind()) return user + "region kind";
    if (ra.is_circle()) {
      if (!SamePoint(ra.circle().center, rb.circle().center) ||
          !SameBits(ra.circle().radius, rb.circle().radius)) {
        return user + "circle";
      }
    } else if (!SamePoint(ra.tiles().origin(), rb.tiles().origin()) ||
               !SameBits(ra.tiles().delta(), rb.tiles().delta()) ||
               ra.tiles().tiles() != rb.tiles().tiles()) {
      return user + "tiles";
    }
  }
  const MsrStats& x = a.stats;
  const MsrStats& y = b.stats;
  if (x.tiles_tried != y.tiles_tried || x.tiles_added != y.tiles_added ||
      x.divide_calls != y.divide_calls ||
      x.verify.calls != y.verify.calls ||
      x.verify.accepted != y.verify.accepted ||
      x.verify.tile_groups != y.verify.tile_groups ||
      x.verify.focal_evals != y.verify.focal_evals ||
      x.verify.memo_hits != y.verify.memo_hits ||
      x.candidates.retrievals != y.candidates.retrievals ||
      x.candidates.candidates_total != y.candidates.candidates_total ||
      x.candidates.rejected_by_buffer != y.candidates.rejected_by_buffer ||
      x.rtree_node_accesses != y.rtree_node_accesses) {
    return "MsrStats counters";
  }
  return "";
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

  // The served configuration, replayed under each kernel with a scratch
  // of its own, as a session keeps one.
  const SimOptions sim = fuzz::MakeEngineOptions(1).sim;
  const Objective obj = sim.server.objective;
  MsrScratch scalar_scratch;
  MsrScratch soa_scratch;
  TileMsrConfig scalar = TileMsrConfigFor(sim.server);
  scalar.kernel = KernelKind::kScalar;
  scalar.scratch = &scalar_scratch;
  TileMsrConfig soa = TileMsrConfigFor(sim.server);
  soa.kernel = KernelKind::kSoA;
  soa.scratch = &soa_scratch;

  size_t recomputes = 0;
  size_t mismatches = 0;
  std::string first;
  SimMetrics driven;
  for (size_t i = 0; i < plan.sessions.size(); ++i) {
    const fuzz::PlannedSession& s = plan.sessions[i];
    driven.Merge(fuzz::DriveInOrder(
        &w.pois, &w.tree, fuzz::GroupOf(w, s.group), sim, s.tuning,
        s.prestart_retire ? s.prestart_retire_at : fuzz::kNoRetire,
        [&](const GroupSession::Snapshot& snap, const MsrResult& served) {
          ++recomputes;
          const MsrResult a = ComputeTileMsr(&w.tree, snap.locations, obj,
                                             scalar, snap.hints);
          const MsrResult b = ComputeTileMsr(&w.tree, snap.locations, obj,
                                             soa, snap.hints);
          std::string diff = FirstDifference(a, b);
          if (diff.empty()) {
            diff = FirstDifference(b, served);
            if (!diff.empty()) diff += " (replay vs served)";
          }
          if (!diff.empty() && mismatches++ == 0) {
            first = diff + " at session " + std::to_string(i) + ", t " +
                    std::to_string(snap.t);
          }
        }));
  }
  // The replayed recomputes are the engine's: the plan served on an engine
  // reports the same deterministic totals.
  Engine engine(&w.pois, &w.tree, fuzz::MakeEngineOptions(1));
  fuzz::Replay(&engine, w, plan);
  fuzz::ExpectSameDeterministicMetrics(driven, engine.TotalMetrics());
  EXPECT_EQ(driven.updates, recomputes);
  EXPECT_GT(recomputes, 0u);
  EXPECT_EQ(mismatches, 0u)
      << "of " << recomputes << " recomputes; first: " << first
      << " (seed 0x" << std::hex << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         testing::ValuesIn(DiffSeeds()), fuzz::SeedName);

}  // namespace
}  // namespace mpn
