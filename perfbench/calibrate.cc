#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

constexpr uint32_t kGrid = 64;          // cells per side
constexpr uint32_t kPoints = 1u << 15;  // about 8 per cell
constexpr int kQueries = 1400;          // per run

uint64_t Next(uint64_t* s) {  // xorshift64*
  *s ^= *s >> 12;
  *s ^= *s << 25;
  *s ^= *s >> 27;
  return *s * 0x2545F4914F6CDD1DULL;
}

double Unit(uint64_t* s) {
  return static_cast<double>(Next(s) >> 11) * 0x1.0p-53;
}

uint32_t CellOf(double v) {
  return std::min(kGrid - 1, static_cast<uint32_t>(v * kGrid));
}

}  // namespace

Calibrator::Calibrator() {
  uint64_t s = 0x63616c6962726174ULL;
  std::vector<std::pair<uint32_t, std::pair<double, double>>> pts;
  for (uint32_t i = 0; i < kPoints; ++i) {
    const double x = Unit(&s), y = Unit(&s);
    pts.push_back({CellOf(y) * kGrid + CellOf(x), {x, y}});
  }
  std::sort(pts.begin(), pts.end());
  cell_begin_.assign(kGrid * kGrid + 1, 0);
  for (const auto& p : pts) {
    ++cell_begin_[p.first + 1];
    xs_.push_back(p.second.first);
    ys_.push_back(p.second.second);
  }
  for (uint32_t c = 0; c < kGrid * kGrid; ++c) {
    cell_begin_[c + 1] += cell_begin_[c];
  }
}

uint64_t Calibrator::Run() const {
  uint64_t state = 0x7265666572656e63ULL;  // every run does the same work
  uint64_t h = 0;
  for (int q = 0; q < kQueries; ++q) {
    const double qx = Unit(&state), qy = Unit(&state);
    const uint32_t cx = CellOf(qx), cy = CellOf(qy);
    std::vector<std::pair<double, uint32_t>> cand;
    for (uint32_t y = cy == 0 ? 0 : cy - 1; y <= std::min(kGrid - 1, cy + 1);
         ++y) {
      for (uint32_t x = cx == 0 ? 0 : cx - 1;
           x <= std::min(kGrid - 1, cx + 1); ++x) {
        const uint32_t c = y * kGrid + x;
        for (uint32_t i = cell_begin_[c]; i < cell_begin_[c + 1]; ++i) {
          const double dx = xs_[i] - qx, dy = ys_[i] - qy;
          cand.push_back({dx * dx + dy * dy, i});
        }
      }
    }
    std::sort(cand.begin(), cand.end());
    const double d = cand.size() > 1
                         ? std::sqrt(cand[0].first) + std::sqrt(cand[1].first)
                         : 0.0;
    h = (h ^ cand.front().second) * 0x100000001B3ULL;
    h ^= static_cast<uint64_t>(d * 1e9);
  }
  return h;
}

std::vector<double> Calibrator::Sample(int reps) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    sink_.fetch_add(Run(), std::memory_order_relaxed);
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  return seconds;
}

Calibrator& ReferenceKernel() {
  static Calibrator kernel;
  return kernel;
}

std::vector<double> SampleParallel(size_t threads, int reps) {
  Calibrator& kernel = ReferenceKernel();
  std::vector<std::vector<double>> runs(std::max<size_t>(1, threads));
  std::vector<std::thread> others;
  for (size_t i = 1; i < runs.size(); ++i) {
    others.emplace_back([&kernel, &runs, i, reps] {
      runs[i] = kernel.Sample(reps);
    });
  }
  runs[0] = kernel.Sample(reps);
  for (std::thread& t : others) t.join();
  std::vector<double> slowest(static_cast<size_t>(reps), 0.0);
  for (const std::vector<double>& r : runs) {
    for (size_t k = 0; k < slowest.size(); ++k) {
      slowest[k] = std::max(slowest[k], r[k]);
    }
  }
  return slowest;
}

double HostScale(std::vector<double> kernel_seconds) {
  if (kernel_seconds.empty()) return 1.0;
  const auto mid = kernel_seconds.begin() + kernel_seconds.size() / 2;
  std::nth_element(kernel_seconds.begin(), mid, kernel_seconds.end());
  return Calibrator::kReferenceSeconds / *mid;
}

}  // namespace perfbench
