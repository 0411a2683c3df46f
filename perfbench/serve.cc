#include "serve.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <type_traits>

#include "calibrate.h"
#include "engine/cluster.h"
#include "engine/engine.h"
#include "index/gnn.h"
#include "util/timer.h"

namespace perfbench {
namespace {

// Byte packing for the child -> parent pipe (same binary on both ends).
class Pack {
 public:
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* p = reinterpret_cast<const char*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof v);
  }
  template <typename T>
  void PutVec(const std::vector<T>& v) {
    Put<uint64_t>(v.size());
    for (const T& x : v) Put(x);
  }
  void PutStr(const std::string& s) {
    Put<uint64_t>(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  const std::vector<char>& bytes() const { return buf_; }

 private:
  std::vector<char> buf_;
};

class Unpack {
 public:
  explicit Unpack(const std::vector<char>& buf) : buf_(buf) {}
  template <typename T>
  bool Get(T* v) {
    if (buf_.size() - off_ < sizeof(T)) return false;
    std::memcpy(v, buf_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }
  template <typename T>
  bool GetVec(std::vector<T>* v) {
    uint64_t n = 0;
    if (!Get(&n) || n > (buf_.size() - off_) / sizeof(T)) return false;
    v->resize(n);
    for (T& x : *v) Get(&x);
    return true;
  }
  bool GetStr(std::string* s) {
    uint64_t n = 0;
    if (!Get(&n) || n > buf_.size() - off_) return false;
    s->assign(buf_.data() + off_, n);
    off_ += n;
    return true;
  }
  bool done() const { return off_ == buf_.size(); }

 private:
  const std::vector<char>& buf_;
  size_t off_ = 0;
};

void PackRound(const RoundResult& r, Pack* p) {
  p->Put(r.totals);
  p->PutVec(r.setup_s);
  p->PutVec(r.kernel_s);
  p->PutVec(r.outcomes);
  p->PutVec(r.probe_gaps_s);
  p->PutVec(r.probe_outcomes);
  p->PutVec(r.probe_notifications);
  p->PutStr(r.error);
}

bool UnpackRound(const std::vector<char>& buf, RoundResult* r) {
  Unpack u(buf);
  return u.Get(&r->totals) && u.GetVec(&r->setup_s) &&
         u.GetVec(&r->kernel_s) &&
         u.GetVec(&r->outcomes) && u.GetVec(&r->probe_gaps_s) &&
         u.GetVec(&r->probe_outcomes) &&
         u.GetVec(&r->probe_notifications) && u.GetStr(&r->error) &&
         u.done();
}

double PeakRssKb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

// This process's current resident set, in KiB (VmRSS).
double RssKb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

// Runs the reference kernel a few times, between the round's timed phases,
// on as many threads at once as the workload serves on.
void Calibrate(const Workload& w, RoundResult* out) {
  const size_t threads = std::max<size_t>(1, w.workers) * w.options.threads;
  const std::vector<double> s = SampleParallel(threads, 5);
  out->kernel_s.insert(out->kernel_s.end(), s.begin(), s.end());
}

uint64_t Packets(const mpn::SimMetrics& m) { return m.comm.TotalPackets(); }

Outcome FromMetrics(uint32_t group, bool has_result, uint32_t po,
                    const mpn::SimMetrics& m) {
  Outcome o;
  o.group = group;
  o.has_result = has_result ? 1 : 0;
  o.po = po;
  o.updates = m.updates;
  o.packets = Packets(m);
  return o;
}

void FillTotals(const mpn::SimMetrics& m, const mpn::EngineRoundStats& rs,
                RoundTotals* t) {
  t->ticks = m.timestamps;
  t->updates = m.updates;
  t->packets = Packets(m);
  t->server_s = m.server_seconds;
  t->msr = m.msr;
  t->mailbox_stalls_mean = rs.mailbox_stalls_per_session.Mean();
  t->mailbox_peak_mean = rs.mailbox_peak_per_session.Mean();
}

// Every session of round r, marked lost.
std::vector<Outcome> LostRound(const Workload& w, size_t r) {
  std::vector<Outcome> lost(w.per_round);
  for (size_t i = 0; i < w.per_round; ++i) {
    lost[i].group = static_cast<uint32_t>(r * w.per_round + i);
    lost[i].lost = 1;
  }
  return lost;
}

// Serves round r's batch on an in-process Engine and hands the round's tree
// to the probe through `tree_out`.
void ServeInProcess(const Workload& w, size_t r, const RoundOptions& opt,
                    std::unique_ptr<mpn::PackedRTree>* tree_out,
                    RoundResult* out) {
  mpn::EngineOptions options = w.options;
  if (opt.in_process && w.workers > 0) {
    options.threads = w.workers * w.options.threads;
  }
  const size_t first = r * w.per_round;
  const bool admit_in_setup = w.waves == 1;
  std::unique_ptr<mpn::PackedRTree> tree;
  std::unique_ptr<mpn::Engine> engine;
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    engine.reset();
    tree.reset();
    mpn::Timer setup;
    tree = std::make_unique<mpn::PackedRTree>(
        mpn::PackedRTree::Build(w.pois));
    engine = std::make_unique<mpn::Engine>(&w.pois, tree.get(), options);
    if (admit_in_setup) {
      for (size_t g = first; g < first + w.per_round; ++g) {
        engine->AdmitSession(w.Members(g), w.Tuning(g));
      }
    }
    out->setup_s.push_back(setup.ElapsedSeconds());
  }
  Calibrate(w, out);

  RoundTotals& t = out->totals;
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  mpn::Timer wall;
  engine->Start();
  for (size_t k = 0; k < w.waves; ++k) {
    if (!admit_in_setup) {
      const auto [begin, end] = w.Wave(r, k);
      for (size_t g = begin; g < end; ++g) {
        engine->AdmitSession(w.Members(g), w.Tuning(g));
      }
    }
    engine->Wait();
  }
  t.wall_s = wall.ElapsedSeconds();
  t.cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
  Calibrate(w, out);

  FillTotals(engine->TotalMetrics(), engine->round_stats(), &t);
  t.mem = engine->memory_stats();
  t.events = engine->events_processed();
  for (const auto& slot : engine->timeline_slots()) t.slot_s += slot.seconds;
  for (size_t i = 0; i < w.per_round; ++i) {
    engine->WithSessionResult(
        static_cast<uint32_t>(i), [&](const mpn::SessionFinalResult& fr) {
          out->outcomes.push_back(FromMetrics(
              static_cast<uint32_t>(first + i), fr.has_result, fr.po,
              fr.metrics));
        });
  }
  engine->Shutdown();
  engine.reset();
  *tree_out = std::move(tree);
}

// The cluster exposes results by session id (it has no streaming
// WithSessionResult); every per-session read goes through here.
Outcome ClusterOutcome(const mpn::ClusterEngine& cluster, uint32_t id,
                       uint32_t group) {
  return FromMetrics(group, cluster.session_has_result(id),
                     cluster.session_po(id), cluster.session_metrics(id));
}

// The same on a ClusterEngine, in waves.
void ServeCluster(const Workload& w, size_t r,
                  std::unique_ptr<mpn::PackedRTree>* tree_out,
                  RoundResult* out) {
  mpn::ClusterOptions options;
  options.workers = w.workers;
  options.engine = w.options;
  const size_t first = r * w.per_round;
  std::unique_ptr<mpn::PackedRTree> tree;
  std::unique_ptr<mpn::ClusterEngine> cluster;
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    if (cluster != nullptr) cluster->Shutdown();
    cluster.reset();
    tree.reset();
    mpn::Timer setup;
    tree = std::make_unique<mpn::PackedRTree>(
        mpn::PackedRTree::Build(w.pois));
    cluster = std::make_unique<mpn::ClusterEngine>(&w.pois, tree.get(),
                                                   options);
    cluster->Start();
    cluster->Wait();  // an empty drain: every worker is up and serving
    out->setup_s.push_back(setup.ElapsedSeconds());
  }
  Calibrate(w, out);

  RoundTotals& t = out->totals;
  const double self0 = CpuSeconds(RUSAGE_SELF);
  const double children0 = CpuSeconds(RUSAGE_CHILDREN);
  mpn::Timer wall;
  for (size_t k = 0; k < w.waves; ++k) {
    const auto [begin, end] = w.Wave(r, k);
    for (size_t g = begin; g < end; ++g) {
      cluster->AdmitSession(w.Members(g), w.Tuning(g));
    }
    try {
      cluster->Wait();
    } catch (const std::runtime_error& e) {
      // A lost shard: the healthy shards drained; the lost sessions are
      // marked below.
      if (out->error.empty()) out->error = e.what();
    }
  }
  t.wall_s = wall.ElapsedSeconds();
  t.coordinator_cpu_s = CpuSeconds(RUSAGE_SELF) - self0;
  Calibrate(w, out);

  FillTotals(cluster->TotalMetrics(), cluster->round_stats(), &t);
  t.mem = cluster->memory_stats();
  const mpn::ClusterEngine::RecoveryStats rs = cluster->recovery_stats();
  t.retries = rs.retries;
  t.restarts = rs.restarts;
  t.checksum_failures = rs.checksum_failures;
  t.heartbeat_misses = rs.heartbeat_misses;
  for (size_t i = 0; i < w.per_round; ++i) {
    const uint32_t id = static_cast<uint32_t>(i);
    Outcome o;
    o.group = static_cast<uint32_t>(first + i);
    if (cluster->shard_lost(i % w.workers)) {
      o.lost = 1;
    } else {
      o = ClusterOutcome(*cluster, id, o.group);
    }
    out->outcomes.push_back(o);
  }
  cluster->Shutdown();
  t.cpu_s = t.coordinator_cpu_s + (CpuSeconds(RUSAGE_CHILDREN) - children0);
  cluster.reset();
  *tree_out = std::move(tree);
}

void ServeRound(const Workload& w, size_t r, const RoundOptions& opt,
                RoundResult* out) {
  // A forked child starts with the parent's resident pages (the generated
  // inputs of every round, the results pooled so far) and its peak RSS
  // with them; so do the cluster workers it forks. Only the growth over
  // that inherited base is the round's own.
  const double base_kb = RssKb();
  Calibrate(w, out);
  try {
    std::unique_ptr<mpn::PackedRTree> tree;
    if (w.workers > 0 && !opt.in_process) {
      ServeCluster(w, r, &tree, out);
    } else {
      ServeInProcess(w, r, opt, &tree, out);
    }
    if (opt.probe) {
      const uint32_t first = static_cast<uint32_t>(r * w.per_round);
      std::vector<uint32_t> probed;
      for (uint32_t g : w.probe_sample) {
        if (g >= first && g < first + w.per_round) probed.push_back(g);
      }
      ProbeGroups(w, *tree, probed, out);
      Calibrate(w, out);
    }
  } catch (const std::exception& e) {
    out->error = e.what();
  }
  out->totals.host_scale = HostScale(out->kernel_s);
  // A round that threw before its results were read loses every session.
  if (out->outcomes.size() != w.per_round) out->outcomes = LostRound(w, r);
  out->totals.peak_rss_kb =
      std::max(PeakRssKb(RUSAGE_SELF), PeakRssKb(RUSAGE_CHILDREN)) - base_kb;
}

bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

}  // namespace

bool SameResult(const Outcome& a, const Outcome& b) {
  return a.has_result && b.has_result && !a.lost && !b.lost && a.po == b.po &&
         a.updates == b.updates && a.packets == b.packets;
}

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

void ProbeGroups(const Workload& w, const mpn::PackedRTree& tree,
                 const std::vector<uint32_t>& groups, RoundResult* result) {
  mpn::Engine engine(&w.pois, &tree, w.options);
  engine.Start();
  decltype(engine.timeline_slots()) before;
  for (uint32_t g : groups) {
    mpn::SessionTuning tuning = w.Tuning(g);
    tuning.mailbox_capacity = 0;
    const size_t served = w.ServedTicks(g);
    // gaps[i]: the timed violations' gaps of repetition i, in time order.
    std::vector<std::vector<double>> gaps(w.probe_reps);
    for (size_t rep = 0; rep < w.probe_reps; ++rep) {
      const uint32_t id = engine.AdmitSession(w.Members(g), tuning);
      engine.Wait();
      const auto slots = engine.timeline_slots();
      uint64_t found = 0, registrations = 0, final_excluded = 0;
      engine.WithSessionResult(id, [&](const mpn::SessionFinalResult& fr) {
        for (size_t t = 0; t < served && t < slots.size(); ++t) {
          const size_t earlier = t < before.size() ? before[t].recomputes : 0;
          if (slots[t].recomputes == earlier) continue;
          ++found;
          if (t == 0) {
            ++registrations;
          } else if (t + 1 == served) {
            ++final_excluded;
          } else {
            gaps[rep].push_back(fr.advance_seconds[t + 1] -
                                fr.advance_seconds[t]);
          }
        }
        const Outcome o = FromMetrics(g, fr.has_result, fr.po, fr.metrics);
        if (rep == 0) {
          result->probe_outcomes.push_back(o);
          result->probe_notifications.push_back(found);
          result->totals.probe_registrations += registrations;
          result->totals.probe_final_excluded += final_excluded;
        } else if (!SameResult(o, result->probe_outcomes.back()) ||
                   found != result->probe_notifications.back() ||
                   gaps[rep].size() != gaps[0].size()) {
          // The repetitions disagree, so the probe has no one result for
          // the group; the checker fails it against the batch.
          result->probe_outcomes.back().has_result = 0;
        }
      });
      before = slots;
    }
    // Each violation's latency is its fastest repetition's gap.
    for (size_t i = 0; i < gaps[0].size(); ++i) {
      double gap = gaps[0][i];
      for (const std::vector<double>& rep : gaps) {
        if (i < rep.size()) gap = std::min(gap, rep[i]);
      }
      result->probe_gaps_s.push_back(gap);
    }
  }
  engine.Shutdown();
}

RoundResult RunRound(const Workload& w, size_t r, const RoundOptions& opt) {
  ReferenceKernel();  // built once, before the first fork
  int fds[2];
  RoundResult result;
  if (pipe(fds) != 0) {
    result.error = std::string("pipe: ") + std::strerror(errno);
  } else {
    const pid_t pid = fork();
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      close(fds[0]);
      RoundResult mine;
      ServeRound(w, r, opt, &mine);
      Pack pack;
      PackRound(mine, &pack);
      const bool ok =
          WriteAll(fds[1], pack.bytes().data(), pack.bytes().size());
      close(fds[1]);
      _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    std::vector<char> buf;
    if (pid > 0) {
      char chunk[1 << 16];
      for (;;) {
        const ssize_t k = read(fds[0], chunk, sizeof chunk);
        if (k < 0 && errno == EINTR) continue;
        if (k <= 0) break;
        buf.insert(buf.end(), chunk, chunk + k);
      }
    }
    close(fds[0]);
    int status = 0;
    if (pid < 0) {
      result.error = std::string("fork: ") + std::strerror(errno);
    } else {
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
          !UnpackRound(buf, &result)) {
        result = RoundResult();
        result.error = "round " + std::to_string(r) +
                       " child ended abnormally (status " +
                       std::to_string(status) + ")";
      }
    }
  }
  if (result.outcomes.empty()) result.outcomes = LostRound(w, r);
  return result;
}

std::vector<mpn::Point> LastServedLocations(const Workload& w, size_t g) {
  const size_t t = w.ServedTicks(g) - 1;
  std::vector<mpn::Point> locations;
  for (const mpn::Trajectory* traj : w.Members(g)) {
    locations.push_back(traj->at(t));
  }
  return locations;
}

bool OptimalAt(const Workload& w, uint32_t po,
               const std::vector<mpn::Point>& locations) {
  const mpn::Objective obj = w.options.sim.server.objective;
  if (po >= w.pois.size()) return false;
  const auto best = mpn::FindGnnBruteForce(w.pois, locations, obj, 1);
  const double agg = mpn::AggDist(w.pois[po], locations, obj);
  return !best.empty() && agg <= best[0].agg + 1e-7 * (1.0 + best[0].agg);
}

std::vector<uint8_t> CheckOutcomes(const Workload& w,
                                   const std::vector<Outcome>& outcomes,
                                   const std::vector<Outcome>& probed,
                                   std::vector<std::string>* notes) {
  std::vector<uint8_t> failed(outcomes.size(), 0);
  std::map<uint32_t, size_t> index;
  for (size_t i = 0; i < outcomes.size(); ++i) index[outcomes[i].group] = i;
  size_t lost = 0, missing = 0, differ = 0, suboptimal = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].lost) {
      ++lost;
      failed[i] = 1;
    } else if (!outcomes[i].has_result) {
      ++missing;
      failed[i] = 1;
    }
  }
  for (const Outcome& p : probed) {
    const auto it = index.find(p.group);
    if (it == index.end()) {
      ++missing;
      continue;
    }
    if (!failed[it->second] && !SameResult(p, outcomes[it->second])) {
      ++differ;
      failed[it->second] = 1;
    }
  }
  for (uint32_t g : w.check_sample) {
    const auto it = index.find(g);
    if (it == index.end() || failed[it->second]) continue;
    if (!OptimalAt(w, outcomes[it->second].po, LastServedLocations(w, g))) {
      ++suboptimal;
      failed[it->second] = 1;
    }
  }
  const auto note = [notes](size_t n, const char* what) {
    if (n > 0) notes->push_back(std::to_string(n) + " " + what);
  };
  note(lost, "sessions threw or lost their shard");
  note(missing, "sessions missing a result");
  note(differ, "sessions whose probe result differs from the batch");
  note(suboptimal, "sessions whose final meeting point is not optimal");
  return failed;
}

}  // namespace perfbench
