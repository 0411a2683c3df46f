// The benchmark's own tests: input determinism, probe accounting and the
// result checker. Exits non-zero when any expectation fails.
//
//   perfbench_selftest DIR     (DIR: scratch directory for spill files)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "index/packed_rtree.h"
#include "serve.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void TestFingerprints(const std::string& dir) {
  for (const std::string& name : WorkloadNames()) {
    const uint64_t a = Fingerprint(MakeWorkload(name, 11, 1.0, dir));
    const uint64_t b = Fingerprint(MakeWorkload(name, 11, 1.0, dir));
    const uint64_t c = Fingerprint(MakeWorkload(name, 12, 1.0, dir));
    Expect(a == b, name + ": the same seed gives the same inputs");
    Expect(a != c, name + ": another seed gives other inputs");
  }
}

// The probe must find one recompute per update: a timed gap for each
// violation, except the registration at t = 0 and violations at the final
// served timestamp, which it counts separately.
void TestProbeCounts(const std::string& dir) {
  for (const std::string& name : {std::string("max_tiled"),
                                  std::string("sharded_waves")}) {
    const Workload w = MakeWorkload(name, 5, 1.0, dir);
    const mpn::PackedRTree tree = mpn::PackedRTree::Build(w.pois);
    std::vector<uint32_t> groups;
    for (uint32_t g = 0; g < w.groups.size() && groups.size() < 24; ++g) {
      // Cover both full-horizon and retired sessions where there are any.
      if (w.retire_at[g] != kNoRetire || groups.size() % 2 == 0) {
        groups.push_back(g);
      }
    }
    RoundResult r;
    ProbeGroups(w, tree, groups, &r);
    Expect(r.probe_outcomes.size() == groups.size() &&
               r.probe_notifications.size() == groups.size(),
           name + ": one probe result per group");
    uint64_t updates = 0;
    for (size_t i = 0; i < r.probe_outcomes.size(); ++i) {
      updates += r.probe_outcomes[i].updates;
      Expect(r.probe_notifications[i] == r.probe_outcomes[i].updates,
             name + ": group " + std::to_string(groups[i]) + " probe found " +
                 std::to_string(r.probe_notifications[i]) +
                 " notifications for " +
                 std::to_string(r.probe_outcomes[i].updates) + " updates");
    }
    Expect(r.totals.probe_registrations == groups.size(),
           name + ": one registration per session");
    Expect(r.probe_gaps_s.size() + r.totals.probe_registrations +
                   r.totals.probe_final_excluded ==
               updates,
           name + ": gaps, registrations and final-timestamp violations "
                  "add up to the updates");
    bool positive = true;
    for (double gap : r.probe_gaps_s) positive &= gap > 0.0;
    Expect(positive && !r.probe_gaps_s.empty(),
           name + ": every notification gap is positive");
  }
}

// A real round passes; a wrong meeting point, a resultless session, a lost
// session and a probe/batch disagreement each count as one failure.
void TestChecker(const std::string& dir) {
  const Workload w = MakeWorkload("max_tiled", 3, 1.0, dir);
  const RoundResult round = RunRound(w, 0, RoundOptions());
  Expect(round.error.empty(), "round 0 runs: " + round.error);
  std::vector<std::string> notes;
  auto flags = CheckOutcomes(w, round.outcomes, round.probe_outcomes, &notes);
  Expect(std::count(flags.begin(), flags.end(), 1) == 0,
         "a correct round has no failed session");
  Expect(round.outcomes.size() == w.per_round, "a round reports every group");

  std::vector<Outcome> bad = round.outcomes;
  // Wrong meeting point on a brute-force-checked group: the first POI that
  // is not optimal there.
  size_t k = 0;
  while (k < bad.size() &&
         std::find(w.check_sample.begin(), w.check_sample.end(),
                   bad[k].group) == w.check_sample.end()) {
    ++k;
  }
  Expect(k < bad.size(), "round 0 has a brute-force-checked group");
  if (k == bad.size()) return;
  const auto at = LastServedLocations(w, bad[k].group);
  uint32_t wrong = bad[k].po;
  for (uint32_t step = 1; step < w.pois.size(); ++step) {
    wrong = static_cast<uint32_t>((bad[k].po + step * 7919) % w.pois.size());
    if (!OptimalAt(w, wrong, at)) break;
  }
  Expect(!OptimalAt(w, wrong, at), "found a non-optimal POI");
  bad[k].po = wrong;
  const size_t missing = (k + 1) % bad.size();
  const size_t lost = (k + 2) % bad.size();
  bad[missing].has_result = 0;
  bad[lost].lost = 1;
  // A probed group whose probe result disagrees with the batch.
  std::vector<Outcome> probed = round.probe_outcomes;
  size_t expected = 3;
  for (Outcome& p : probed) {
    if (p.group != bad[k].group && p.group != bad[missing].group &&
        p.group != bad[lost].group) {
      ++p.updates;
      ++expected;
      break;
    }
  }
  Expect(expected == 4, "round 0 probed a group left intact");
  notes.clear();
  flags = CheckOutcomes(w, bad, probed, &notes);
  Expect(static_cast<size_t>(std::count(flags.begin(), flags.end(), 1)) ==
             expected,
         "the checker counts each injected fault once");
  Expect(flags[k] == 1 && flags[missing] == 1 && flags[lost] == 1,
         "wrong po, missing and lost sessions are failures");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest SCRATCH_DIR\n");
    return 2;
  }
  perfbench::TestFingerprints(argv[1]);
  perfbench::TestProbeCounts(argv[1]);
  perfbench::TestChecker(argv[1]);
  std::printf("%s (%d failures)\n",
              perfbench::failures == 0 ? "selftest passed" : "selftest FAILED",
              perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
