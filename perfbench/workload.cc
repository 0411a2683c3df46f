#include "workload.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "engine/digest.h"
#include "traj/generators.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using mpn::Point;
using mpn::Rng;
using mpn::Trajectory;

const mpn::Rect kWorld({0.0, 0.0}, {100000.0, 100000.0});

// Stand-in for the paper's clustered POI set (the figure benches' density
// skew: Gaussian clusters over a uniform background). Like the paper's
// real POI data it is one fixed set per size, whatever the seed: a seed
// that moved the 30 clusters would swing every figure by 10-20 % on its
// own. The seed varies the groups and their movement.
std::vector<Point> MakePois(size_t n) {
  Rng rng(0x901);
  mpn::PoiOptions opt;
  opt.world = kWorld;
  opt.clusters = 30;
  opt.cluster_sigma_frac = 0.045;
  opt.background_frac = 0.45;
  return mpn::GeneratePois(n, opt, &rng);
}

// Group start points: one uniform point in each cell of a jittered grid
// over the world, cells in random order. Uniform starts would let the
// share of groups that land in POI clusters, and with it every figure,
// drift by 10-15 % from seed to seed; stratified starts keep that share
// fixed and leave the seed to move groups within their cells.
std::vector<Point> StratifiedStarts(size_t n, Rng* rng) {
  size_t side = 1;
  while (side * side < n) ++side;
  std::vector<size_t> cells(side * side);
  for (size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  rng->Shuffle(&cells);
  const double cw = kWorld.Width() / static_cast<double>(side);
  const double ch = kWorld.Height() / static_cast<double>(side);
  std::vector<Point> starts;
  for (size_t i = 0; i < n; ++i) {
    const double cx = static_cast<double>(cells[i] % side);
    const double cy = static_cast<double>(cells[i] / side);
    starts.push_back({kWorld.lo.x + (cx + rng->Uniform01()) * cw,
                      kWorld.lo.y + (cy + rng->Uniform01()) * ch});
  }
  return starts;
}

// Group start points for Tile-D groups, one per stratum of POI density. A
// group's update rate and recompute cost follow the POI density it walks
// in, which spans two orders of magnitude between cluster cores and the
// background. With grid-stratified starts, ten seeds' Tile-D ticks per
// CPU second still spread by 23 % (IQR over median); with these strata, by
// 8-10 %. 16 n uniform candidates are ranked by the POIs in the 3 x 3 km
// square around them and cut into n strata of 16; each stratum gives one
// start, and the starts come in random order.
std::vector<Point> DensityStratifiedStarts(size_t n,
                                           const std::vector<Point>& pois,
                                           Rng* rng) {
  constexpr int kCells = 100;  // 1 km cells
  constexpr size_t kPerStratum = 16;
  const auto cell = [](double v, double lo, double extent) {
    return std::clamp(static_cast<int>((v - lo) / extent * kCells), 0,
                      kCells - 1);
  };
  std::vector<uint32_t> counts(kCells * kCells, 0);
  for (const Point& p : pois) {
    ++counts[cell(p.y, kWorld.lo.y, kWorld.Height()) * kCells +
             cell(p.x, kWorld.lo.x, kWorld.Width())];
  }
  std::vector<std::pair<uint32_t, Point>> candidates;
  for (size_t i = 0; i < n * kPerStratum; ++i) {
    const Point c{rng->Uniform(kWorld.lo.x, kWorld.hi.x),
                  rng->Uniform(kWorld.lo.y, kWorld.hi.y)};
    const int cx = cell(c.x, kWorld.lo.x, kWorld.Width());
    const int cy = cell(c.y, kWorld.lo.y, kWorld.Height());
    uint32_t around = 0;
    for (int y = std::max(0, cy - 1); y <= std::min(kCells - 1, cy + 1); ++y) {
      for (int x = std::max(0, cx - 1); x <= std::min(kCells - 1, cx + 1);
           ++x) {
        around += counts[y * kCells + x];
      }
    }
    candidates.push_back({around, c});
  }
  std::stable_sort(
      candidates.begin(), candidates.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Point> starts;
  for (size_t i = 0; i < n; ++i) {
    const size_t pick = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(kPerStratum) - 1));
    starts.push_back(candidates[i * kPerStratum + pick].second);
  }
  rng->Shuffle(&starts);
  return starts;
}

// "GeoLife"-like smooth walks: a block of `block` trajectories from each
// of `centers`, a block's members starting within 2 km of its center.
std::vector<Trajectory> MakeWalkers(const std::vector<Point>& centers,
                                    size_t block, size_t timestamps,
                                    Rng* rng) {
  mpn::RandomWalkGenerator::Options opt;
  opt.world = kWorld;
  opt.mean_speed = 1.5;
  opt.speed_jitter = 0.25;
  opt.heading_sigma = 0.06;
  opt.dwell_prob = 0.003;
  const mpn::RandomWalkGenerator gen(opt);
  std::vector<Trajectory> pool;
  for (const Point& center : centers) {
    for (size_t i = 0; i < block; ++i) {
      const Point start{center.x + rng->Uniform(-2000.0, 2000.0),
                        center.y + rng->Uniform(-2000.0, 2000.0)};
      pool.push_back(gen.Generate(timestamps, rng, &start));
    }
  }
  return pool;
}

// Groups of m consecutive pool members.
void BlockGroups(Workload* w, size_t n_groups, size_t m) {
  for (size_t g = 0; g < n_groups; ++g) {
    std::vector<uint32_t> members;
    for (size_t i = 0; i < m; ++i) {
      members.push_back(static_cast<uint32_t>(g * m + i));
    }
    w->groups.push_back(std::move(members));
  }
}

// `n_groups` distinct member pairs drawn from co-located blocks of `block`
// pool walkers: every unordered pair of a block, block after block, so no
// two sessions share both members while the pool stays small.
void PairGroups(Workload* w, size_t n_groups, size_t block) {
  for (size_t base = 0; w->groups.size() < n_groups; base += block) {
    for (size_t i = 0; i < block && w->groups.size() < n_groups; ++i) {
      for (size_t j = i + 1; j < block && w->groups.size() < n_groups; ++j) {
        w->groups.push_back({static_cast<uint32_t>(base + i),
                             static_cast<uint32_t>(base + j)});
      }
    }
  }
}

size_t PairBlocksFor(size_t n_groups, size_t block) {
  const size_t pairs = block * (block - 1) / 2;
  return (n_groups + pairs - 1) / pairs;
}

// `k` distinct group indices in ascending order (k >= n takes all).
std::vector<uint32_t> Sample(size_t n, size_t k, Rng* rng) {
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  if (k >= n) return all;
  rng->Shuffle(&all);
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

// Table-2 settings, spelled out so that a change of the library's defaults
// does not silently change the workloads.
mpn::ServerConfig Server(mpn::Method method, mpn::Objective obj) {
  mpn::ServerConfig s;
  s.method = method;
  s.objective = obj;
  s.alpha = 30;
  s.split_level = 2;
  return s;
}

}  // namespace

std::pair<size_t, size_t> Workload::Wave(size_t r, size_t k) const {
  const size_t per_wave = per_round / waves;
  const size_t begin = r * per_round + k * per_wave;
  const size_t end = k + 1 == waves ? (r + 1) * per_round : begin + per_wave;
  return {begin, end};
}

std::vector<const Trajectory*> Workload::Members(size_t g) const {
  std::vector<const Trajectory*> out;
  for (uint32_t i : groups[g]) out.push_back(&pool[i]);
  return out;
}

mpn::SessionTuning Workload::Tuning(size_t g) const {
  mpn::SessionTuning t;
  t.retire_at = retire_at[g];
  return t;
}

size_t Workload::ServedTicks(size_t g) const {
  size_t h = kNoRetire;
  for (uint32_t i : groups[g]) h = std::min(h, pool[i].size());
  return std::min(h, retire_at[g]);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "max_tiled", "fleet_spill", "sharded_waves"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                      const std::string& spill_dir) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Rng root(seed ^ 0x6d706e62656e6368ULL);
  Rng traj_rng = root.Fork();
  Rng sample_rng = root.Fork();
  mpn::EngineOptions& opt = w.options;
  // Group size, horizon, probed and brute-force-checked groups per round,
  // and the wall seconds one round takes (cold starts, batch, probe,
  // checks) on a 4-vCPU Xeon.
  size_t m = 2, horizon = 0, probe_per_round = 0, check_per_round = 0;
  double round_seconds = 1.0;
  if (name == "max_tiled") {
    // Paper Table 2: N = 21,287, groups of m = 3, alpha = 30, L = 2; each
    // round is one 10-group experiment.
    w.per_round = 10;
    m = 3;
    horizon = 1000;
    w.setup_reps = 10;
    probe_per_round = 10;
    check_per_round = 4;
    round_seconds = 1.9;
    w.pois = MakePois(21287);
    opt.threads = 2;
    opt.sim.server = Server(mpn::Method::kTileD, mpn::Objective::kMax);
  } else if (name == "fleet_spill") {
    w.per_round = size_t{1} << 16;
    horizon = 16;
    probe_per_round = 2048;
    w.probe_reps = 2;
    check_per_round = 8;
    round_seconds = 7.3;
    w.pois = MakePois(size_t{1} << 18);
    opt.threads = 1;
    opt.sim.server = Server(mpn::Method::kCircle, mpn::Objective::kMax);
    // Far below the ~64 MB of session state a round keeps resident
    // unbudgeted (about 1 KB per session).
    opt.budget.bytes_cap = size_t{4} << 20;
    opt.budget.spill_dir = spill_dir;
  } else if (name == "sharded_waves") {
    w.workers = 2;
    w.waves = 8;
    w.per_round = 8 * 2048;
    horizon = 32;
    w.setup_reps = 3;
    probe_per_round = 1536;
    w.probe_reps = 2;
    check_per_round = 4;
    round_seconds = 3.6;
    w.pois = MakePois(size_t{1} << 18);
    opt.threads = 1;
    opt.sim.server = Server(mpn::Method::kCircle, mpn::Objective::kMax);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.rounds = std::max<size_t>(2, static_cast<size_t>(seconds / round_seconds));
  const size_t total = w.rounds * w.per_round;
  std::vector<uint8_t> probed(total, 0);
  for (size_t r = 0; r < w.rounds; ++r) {
    const uint32_t base = static_cast<uint32_t>(r * w.per_round);
    for (uint32_t g : Sample(w.per_round, probe_per_round, &sample_rng)) {
      w.probe_sample.push_back(base + g);
      probed[base + g] = 1;
    }
  }
  if (m == 2) {
    const size_t block = 16;
    w.pool = MakeWalkers(
        StratifiedStarts(PairBlocksFor(total, block), &traj_rng), block,
        horizon, &traj_rng);
    PairGroups(&w, total, block);
  } else {
    // The probed groups and the others are stratified apart, so that the
    // probe's sample of densities, and not only the batch's, is the same
    // whatever the seed.
    const size_t n_probed = w.probe_sample.size();
    const std::vector<Point> probed_starts =
        DensityStratifiedStarts(n_probed, w.pois, &traj_rng);
    const std::vector<Point> other_starts =
        DensityStratifiedStarts(total - n_probed, w.pois, &traj_rng);
    std::vector<Point> starts;
    size_t next_probed = 0, next_other = 0;
    for (size_t g = 0; g < total; ++g) {
      starts.push_back(probed[g] ? probed_starts[next_probed++]
                                 : other_starts[next_other++]);
    }
    w.pool = MakeWalkers(starts, m, horizon, &traj_rng);
    BlockGroups(&w, total, m);
  }
  w.retire_at.assign(total, kNoRetire);
  for (size_t r = 0; r < w.rounds; ++r) {
    const uint32_t base = static_cast<uint32_t>(r * w.per_round);
    for (uint32_t g : Sample(w.per_round, check_per_round, &sample_rng)) {
      w.check_sample.push_back(base + g);
    }
    if (w.workers > 0) {
      // A quarter of the sessions retire halfway through their horizon.
      for (uint32_t g : Sample(w.per_round, w.per_round / 4, &sample_rng)) {
        w.retire_at[base + g] = horizon / 2;
      }
    }
  }
  return w;
}

uint64_t Fingerprint(const Workload& w) {
  mpn::Fnv1a fnv;
  const auto mix_double = [&fnv](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    fnv.Add(bits);
  };
  fnv.Add(w.pois.size());
  for (const Point& p : w.pois) {
    mix_double(p.x);
    mix_double(p.y);
  }
  fnv.Add(w.pool.size());
  for (const Trajectory& t : w.pool) {
    fnv.Add(t.size());
    for (const Point& p : t.positions) {
      mix_double(p.x);
      mix_double(p.y);
    }
  }
  for (size_t g = 0; g < w.groups.size(); ++g) {
    fnv.Add(w.groups[g].size());
    for (uint32_t i : w.groups[g]) fnv.Add(i);
    fnv.Add(w.retire_at[g]);
  }
  for (uint32_t g : w.probe_sample) fnv.Add(g);
  for (uint32_t g : w.check_sample) fnv.Add(g);
  return fnv.hash;
}

}  // namespace perfbench
