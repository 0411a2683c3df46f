// The repository's serving benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//   perfbench --list-metrics
//
// --trace 0 serves the workload's rounds (cold starts, one closed batch,
// the latency probe; see serve.h), checks every session, and prints the
// end-to-end metrics. --trace 1 serves the first quarter of the rounds
// untraced for the exact counts, then drives a sample of sessions phase by
// phase under spans (trace.h) and prints the per-layer metrics. Either way
// the last stdout line is one JSON object: correct, attempted, failed,
// metrics. Lines before it starting with '#' record the hardware, the
// inputs and the sample count behind every timing. The exit code is 0 only
// when every check passed.
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "calibrate.h"
#include "mpn/tile_verify.h"
#include "serve.h"
#include "trace.h"
#include "util/stats.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

const MetricDecl kEndToEnd[] = {
    {"ticks_per_s", "ticks/s"},
    {"ticks_per_core_s", "ticks/CPU-s"},
    {"notify_p50_ms", "ms"},
    {"notify_p99_ms", "ms"},
    {"server_ms_per_update", "ms/update"},
    {"update_freq", "updates/tick"},
    {"packets_per_tick", "packets/tick"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const MetricDecl kPerLayer[] = {
    {"sim.check_us_per_tick", "us/tick"},
    {"engine.session.recompute_ms_per_update", "ms/update"},
    {"engine.session.install_us_per_update", "us/update"},
    {"index.gnn_us_per_update", "us/update"},
    {"index.node_accesses_per_update", "nodes/update"},
    {"mpn.circle_msr_us_per_update", "us/update"},
    {"mpn.tile_msr_ms_per_update", "ms/update"},
    {"mpn.codec_us_per_update", "us/update"},
    {"mpn.divide_verify_ms_per_update", "ms/update"},
    {"mpn.divide_calls_per_update", "calls/update"},
    {"mpn.tile_accept_ratio", "tiles/call"},
    {"mpn.retrievals_per_update", "calls/update"},
    {"mpn.candidates_per_retrieval", "POIs/call"},
    {"mpn.verify_calls_per_update", "calls/update"},
    {"mpn.verify_accept_ratio", "ratio"},
    {"engine.scheduler.events_per_tick", "events/tick"},
    {"engine.scheduler.unattributed_cpu_frac", "fraction"},
    {"engine.mailbox.stalls_per_session", "stalls/session"},
    {"engine.mailbox.peak_mean", "updates"},
    {"engine.store.spills_per_session", "spills/session"},
    {"engine.store.rehydrations_per_session", "loads/session"},
    {"engine.store.bytes_per_spill", "B/spill"},
    {"engine.store.peak_resident_kb", "KiB"},
    {"engine.store.encode_us_per_snapshot", "us/snapshot"},
    {"engine.store.decode_us_per_snapshot", "us/snapshot"},
    {"engine.cluster.admit_us_per_session", "us/session"},
    {"engine.cluster.drain_ms_per_wave", "ms/wave"},
    {"engine.cluster.coordinator_cpu_frac", "fraction"},
    {"engine.cluster.ipc_overhead_frac", "ratio"},
    {"engine.cluster.retries", "count"},
    {"engine.cluster.restarts", "count"},
    {"engine.cluster.checksum_failures", "count"},
    {"engine.cluster.heartbeat_misses", "count"},
    {"trace.overhead_frac", "fraction"},
};

// A set one of these turns unbudgeted workloads into spill workloads,
// pins a lane ISA, injects faults, or rescales the figure benches.
const char* const kRefusedEnv[] = {"MPN_MEMORY_BUDGET", "MPN_LANE_ISA",
                                   "MPN_CRASH_PLAN", "MPN_FAULT_PLAN",
                                   "MPN_BENCH_SCALE"};

// Notifications beyond p99 the probe must leave (p99 needs >= 100x this).
constexpr size_t kTailSamples = 10;

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// Every timing is pooled as read on the reference host: each round's are
// multiplied by its host_scale (see calibrate.h). raw_* keep them as
// measured.
struct Pooled {
  double wall_s = 0.0, cpu_s = 0.0, coordinator_cpu_s = 0.0;
  double server_s = 0.0, slot_s = 0.0;
  double raw_wall_s = 0.0, raw_cpu_s = 0.0;
  uint64_t ticks = 0, updates = 0, packets = 0, events = 0, sessions = 0;
  mpn::MsrStats msr;
  mpn::MemoryStats mem;
  double mailbox_stalls = 0.0, mailbox_peak = 0.0;
  uint64_t retries = 0, restarts = 0, checksum_failures = 0;
  uint64_t heartbeat_misses = 0, final_excluded = 0, registrations = 0;
  size_t rounds = 0;
  std::vector<double> rss_kb, setup_s, gaps_s, round_wall_s, host_scale;
  std::vector<Outcome> outcomes, probe_outcomes;
  std::vector<uint64_t> probe_notifications;
  std::vector<std::string> errors;
};

void AddMsr(const mpn::MsrStats& s, mpn::MsrStats* into) {
  into->tiles_tried += s.tiles_tried;
  into->tiles_added += s.tiles_added;
  into->divide_calls += s.divide_calls;
  into->verify.calls += s.verify.calls;
  into->verify.accepted += s.verify.accepted;
  into->verify.tile_groups += s.verify.tile_groups;
  into->verify.focal_evals += s.verify.focal_evals;
  into->verify.memo_hits += s.verify.memo_hits;
  into->candidates.retrievals += s.candidates.retrievals;
  into->candidates.candidates_total += s.candidates.candidates_total;
  into->candidates.rejected_by_buffer += s.candidates.rejected_by_buffer;
  into->rtree_node_accesses += s.rtree_node_accesses;
}

void Add(const RoundResult& r, Pooled* p) {
  const RoundTotals& t = r.totals;
  const double k = t.host_scale;
  p->wall_s += k * t.wall_s;
  p->cpu_s += k * t.cpu_s;
  p->coordinator_cpu_s += k * t.coordinator_cpu_s;
  p->server_s += k * t.server_s;
  p->slot_s += k * t.slot_s;
  p->raw_wall_s += t.wall_s;
  p->raw_cpu_s += t.cpu_s;
  p->ticks += t.ticks;
  p->updates += t.updates;
  p->packets += t.packets;
  p->events += t.events;
  p->sessions += r.outcomes.size();
  AddMsr(t.msr, &p->msr);
  p->mem.spilled_sessions += t.mem.spilled_sessions;
  p->mem.rehydrated_sessions += t.mem.rehydrated_sessions;
  p->mem.spilled_bytes += t.mem.spilled_bytes;
  p->mem.peak_resident_bytes =
      std::max(p->mem.peak_resident_bytes, t.mem.peak_resident_bytes);
  p->mailbox_stalls += t.mailbox_stalls_mean;
  p->mailbox_peak += t.mailbox_peak_mean;
  p->retries += t.retries;
  p->restarts += t.restarts;
  p->checksum_failures += t.checksum_failures;
  p->heartbeat_misses += t.heartbeat_misses;
  p->final_excluded += t.probe_final_excluded;
  p->registrations += t.probe_registrations;
  ++p->rounds;
  p->rss_kb.push_back(t.peak_rss_kb);
  p->round_wall_s.push_back(t.wall_s);
  p->host_scale.push_back(k);
  for (double s : r.setup_s) p->setup_s.push_back(k * s);
  for (double s : r.probe_gaps_s) p->gaps_s.push_back(k * s);
  p->outcomes.insert(p->outcomes.end(), r.outcomes.begin(),
                     r.outcomes.end());
  p->probe_outcomes.insert(p->probe_outcomes.end(), r.probe_outcomes.begin(),
                           r.probe_outcomes.end());
  p->probe_notifications.insert(p->probe_notifications.end(),
                                r.probe_notifications.begin(),
                                r.probe_notifications.end());
  if (!r.error.empty()) p->errors.push_back(r.error);
}

Pooled ServeRounds(const Workload& w, size_t rounds,
                   const RoundOptions& opt) {
  Pooled p;
  for (size_t r = 0; r < rounds; ++r) Add(RunRound(w, r, opt), &p);
  return p;
}

// --- run record -----------------------------------------------------------

std::string ReadLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string CacheSizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadLine(dir + "level");
    if (level.empty()) break;
    if (level == "1") continue;
    out += (out.empty() ? "L" : " L") + level + "=" + ReadLine(dir + "size");
  }
  return out.empty() ? "unknown" : out;
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  const std::map<unsigned long, const char*> names = {
      {0xEF53, "ext4"},     {0x01021994, "tmpfs"}, {0x794c7630, "overlayfs"},
      {0x58465342, "xfs"},  {0x9123683E, "btrfs"}};
  const auto it = names.find(static_cast<unsigned long>(st.f_type));
  if (it != names.end()) return it->second;
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return hex;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintRecord(const Workload& w, const std::string& spill_dir) {
  std::printf("# workload %s seed %llu inputs %016llx\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed),
              static_cast<unsigned long long>(Fingerprint(w)));
  std::printf("# inputs: %zu POIs, %zu trajectories, %zu groups in %zu "
              "rounds of %zu, %zu waves, %zu workers, %zu threads\n",
              w.pois.size(), w.pool.size(), w.groups.size(), w.rounds,
              w.per_round, w.waves, w.workers, w.options.threads);
  std::printf("# host: nproc %ld, cpu %s, %s\n", sysconf(_SC_NPROCESSORS_ONLN),
              CpuModel().c_str(), CacheSizes().c_str());
  std::printf("# build: %s, %s, lane isa %s\n", PERFBENCH_BUILD_TYPE,
              Compiler().c_str(), mpn::LaneIsaName());
  std::printf("# spill dir %s on %s\n", spill_dir.c_str(),
              FsType(spill_dir).c_str());
}

// --- output ---------------------------------------------------------------

class MetricSink {
 public:
  MetricSink(const MetricDecl* begin, const MetricDecl* end)
      : begin_(begin), end_(end) {}
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// Prints the result line; every declared metric of the set must be set.
  bool Print(bool correct, size_t attempted, size_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    bool complete = true;
    for (const MetricDecl* d = begin_; d != end_; ++d) {
      const auto it = values_.find(d->name);
      if (it == values_.end()) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     d->name);
        complete = false;
        continue;
      }
      char num[64];
      std::snprintf(num, sizeof num, "%.17g",
                    std::isfinite(it->second) ? it->second : 0.0);
      json += std::string(first ? "" : ", ") + "\"" + d->name +
              "\": {\"value\": " + num + ", \"unit\": \"" + d->unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return complete;
  }

 private:
  const MetricDecl* begin_;
  const MetricDecl* end_;
  std::map<std::string, double> values_;
};

double Median(const std::vector<double>& v) { return mpn::Quantile(v, 0.5); }

// --- checks shared by both modes ----------------------------------------

struct Verdict {
  std::vector<std::string> notes;
  size_t failed = 0;
  bool ok = true;
  void Fail(const std::string& note) {
    notes.push_back(note);
    ok = false;
  }
};

void CheckSessions(const Workload& w, const Pooled& p, Verdict* v) {
  const std::vector<uint8_t> flags =
      CheckOutcomes(w, p.outcomes, p.probe_outcomes, &v->notes);
  v->failed = static_cast<size_t>(std::count(flags.begin(), flags.end(), 1));
  if (v->failed > 0) v->ok = false;
  for (const std::string& e : p.errors) v->Fail("round error: " + e);
}

// --- the two modes --------------------------------------------------------

// Returns the sessions attempted.
size_t RunEndToEnd(const Workload& w, MetricSink* sink, Verdict* v) {
  const Pooled p = ServeRounds(w, w.rounds, RoundOptions());
  CheckSessions(w, p, v);
  for (size_t i = 0; i < p.probe_outcomes.size(); ++i) {
    if (p.probe_notifications[i] != p.probe_outcomes[i].updates) {
      v->Fail("probe found " + std::to_string(p.probe_notifications[i]) +
              " notifications for group " +
              std::to_string(p.probe_outcomes[i].group) + " with " +
              std::to_string(p.probe_outcomes[i].updates) + " updates");
    }
  }
  if (p.gaps_s.size() < 100 * kTailSamples) {
    v->Fail("probe measured only " + std::to_string(p.gaps_s.size()) +
            " notifications; p99 needs " + std::to_string(100 * kTailSamples));
  }
  if (w.options.budget.bytes_cap > 0) {
    const mpn::PackedRTree tree = mpn::PackedRTree::Build(w.pois);
    std::vector<uint32_t> sample(w.check_sample.begin(),
                                 w.check_sample.begin() +
                                     std::min<size_t>(64, w.check_sample.size()));
    const uint64_t snapshot = MaxStateBytes(w, tree, sample);
    const uint64_t bound = w.options.budget.bytes_cap + snapshot;
    std::printf("# store: %llu spills, %llu rehydrations, peak resident "
                "%llu B (cap %zu + one session %llu)\n",
                static_cast<unsigned long long>(p.mem.spilled_sessions),
                static_cast<unsigned long long>(p.mem.rehydrated_sessions),
                static_cast<unsigned long long>(p.mem.peak_resident_bytes),
                w.options.budget.bytes_cap,
                static_cast<unsigned long long>(snapshot));
    if (p.mem.spilled_sessions == 0 || p.mem.rehydrated_sessions == 0) {
      v->Fail("the budgeted workload did not both spill and rehydrate");
    }
    if (p.mem.peak_resident_bytes > bound) {
      v->Fail("peak resident bytes exceed the cap plus one session");
    }
  }

  sink->Set("ticks_per_s", Ratio(p.ticks, p.wall_s));
  sink->Set("ticks_per_core_s", Ratio(p.ticks, p.cpu_s));
  sink->Set("notify_p50_ms", 1e3 * mpn::Quantile(p.gaps_s, 0.50));
  sink->Set("notify_p99_ms", 1e3 * mpn::Quantile(p.gaps_s, 0.99));
  sink->Set("server_ms_per_update", 1e3 * Ratio(p.server_s, p.updates));
  sink->Set("update_freq", Ratio(p.updates, p.ticks));
  sink->Set("packets_per_tick", Ratio(p.packets, p.ticks));
  sink->Set("setup_s", Median(p.setup_s));
  sink->Set("peak_rss_mb", Median(p.rss_kb) / 1024.0);
  std::printf("# samples: %zu rounds, %zu sessions, %llu ticks served in "
              "%.3f s wall / %.3f s CPU, %llu updates, %zu cold starts, "
              "%zu notifications probed over %zu sessions (not timed: "
              "%llu registrations, %llu at a final timestamp)\n",
              p.rounds, p.outcomes.size(),
              static_cast<unsigned long long>(p.ticks), p.wall_s, p.cpu_s,
              static_cast<unsigned long long>(p.updates), p.setup_s.size(),
              p.gaps_s.size(), p.probe_outcomes.size(),
              static_cast<unsigned long long>(p.registrations),
              static_cast<unsigned long long>(p.final_excluded));
  std::printf("# as measured: %.1f ticks/s, %.1f ticks/CPU-s\n",
              Ratio(p.ticks, p.raw_wall_s), Ratio(p.ticks, p.raw_cpu_s));
  std::printf("# batch wall s by round:");
  for (double s : p.round_wall_s) std::printf(" %.4f", s);
  std::printf("\n# host scale by round:");
  for (double k : p.host_scale) std::printf(" %.3f", k);
  std::printf("\n");
  return p.outcomes.size();
}

// Returns the sessions attempted.
size_t RunTraced(const Workload& w, const std::string& out_dir,
                 MetricSink* sink, Verdict* v) {
  const size_t rounds = std::max<size_t>(1, w.rounds / 4);
  const Pooled p = ServeRounds(w, rounds, RoundOptions{false, false});
  CheckSessions(w, p, v);
  // Scheduler figures come from an in-process engine; for the cluster, the
  // same waves served in-process are also the IPC-overhead baseline.
  Pooled in_process;
  const Pooled* engine_side = &p;
  if (w.workers > 0) {
    in_process = ServeRounds(w, rounds, RoundOptions{false, true});
    engine_side = &in_process;
    for (const std::string& e : in_process.errors) v->Fail("in-process: " + e);
  }

  std::vector<uint32_t> groups;
  for (uint32_t g : w.probe_sample) {
    if (g < rounds * w.per_round) groups.push_back(g);
  }
  const mpn::PackedRTree tree = mpn::PackedRTree::Build(w.pois);
  Tracer tracer(true);
  // Span times are read as on the reference host too (see calibrate.h).
  std::vector<double> kernel = SampleParallel(1, 10);
  TraceReport rep = TraceSessions(w, tree, groups, p.outcomes, &tracer);
  if (w.workers > 0) TraceClusterRound(w, tree, 0, &tracer, &rep);
  const std::vector<double> after = SampleParallel(1, 10);
  kernel.insert(kernel.end(), after.begin(), after.end());
  const double host_scale = HostScale(kernel);
  if (rep.replay_mismatches > 0) {
    v->Fail(std::to_string(rep.replay_mismatches) +
            " replays did not reproduce their recompute");
  }
  if (rep.codec_mismatches > 0) {
    v->Fail(std::to_string(rep.codec_mismatches) + " codec round trips differ");
  }
  if (rep.drive_mismatches > 0) {
    v->Fail(std::to_string(rep.drive_mismatches) +
            " sessions driven phase by phase differ from the batch");
  }
  const std::string spans = out_dir + "/spans-" + w.name + "-" +
                            std::to_string(w.seed) + ".tsv";
  if (!tracer.Write(spans)) v->Fail("cannot write " + spans);

  const auto summary = tracer.Summarize();
  const auto mean = [&summary, host_scale](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end()
               ? 0.0
               : host_scale * Ratio(it->second.self_s,
                                    static_cast<double>(it->second.count));
  };
  const mpn::ServerConfig& server = w.options.sim.server;
  const bool tiled = server.method != mpn::Method::kCircle;
  const double u = static_cast<double>(p.updates);
  const mpn::MsrStats& m = p.msr;
  sink->Set("sim.check_us_per_tick", 1e6 * mean("sim.check.clean"));
  sink->Set("engine.session.recompute_ms_per_update",
            1e3 * mean("engine.session.recompute"));
  sink->Set("engine.session.install_us_per_update",
            1e6 * mean("engine.session.install"));
  sink->Set("index.gnn_us_per_update", 1e6 * mean("index.gnn"));
  sink->Set("index.node_accesses_per_update",
            tiled ? Ratio(m.rtree_node_accesses, u)
                  : Ratio(rep.circle_node_accesses, rep.recomputes));
  sink->Set("mpn.circle_msr_us_per_update", 1e6 * mean("mpn.circle_msr"));
  sink->Set("mpn.tile_msr_ms_per_update", 1e3 * mean("mpn.tile_msr"));
  sink->Set("mpn.codec_us_per_update", 1e6 * mean("mpn.codec"));
  sink->Set("mpn.divide_verify_ms_per_update",
            tiled ? 1e3 * (mean("mpn.tile_msr") - mean("mpn.circle_msr"))
                  : 0.0);
  sink->Set("mpn.divide_calls_per_update", Ratio(m.divide_calls, u));
  sink->Set("mpn.tile_accept_ratio", Ratio(m.tiles_added, m.divide_calls));
  sink->Set("mpn.retrievals_per_update", Ratio(m.candidates.retrievals, u));
  sink->Set("mpn.candidates_per_retrieval",
            Ratio(m.candidates.candidates_total, m.candidates.retrievals));
  sink->Set("mpn.verify_calls_per_update", Ratio(m.verify.calls, u));
  sink->Set("mpn.verify_accept_ratio",
            Ratio(m.verify.accepted, m.verify.calls));
  sink->Set("engine.scheduler.events_per_tick",
            Ratio(engine_side->events, engine_side->ticks));
  sink->Set("engine.scheduler.unattributed_cpu_frac",
            1.0 - Ratio(engine_side->slot_s, engine_side->cpu_s));
  sink->Set("engine.mailbox.stalls_per_session",
            Ratio(p.mailbox_stalls, p.rounds));
  sink->Set("engine.mailbox.peak_mean", Ratio(p.mailbox_peak, p.rounds));
  const double sessions = static_cast<double>(p.sessions);
  sink->Set("engine.store.spills_per_session",
            Ratio(p.mem.spilled_sessions, sessions));
  sink->Set("engine.store.rehydrations_per_session",
            Ratio(p.mem.rehydrated_sessions, sessions));
  sink->Set("engine.store.bytes_per_spill",
            Ratio(p.mem.spilled_bytes, p.mem.spilled_sessions));
  sink->Set("engine.store.peak_resident_kb", p.mem.peak_resident_bytes / 1024.0);
  sink->Set("engine.store.encode_us_per_snapshot",
            1e6 * mean("engine.store.encode"));
  sink->Set("engine.store.decode_us_per_snapshot",
            1e6 * mean("engine.store.decode"));
  sink->Set("engine.cluster.admit_us_per_session",
            1e6 * mean("engine.cluster.admit"));
  sink->Set("engine.cluster.drain_ms_per_wave",
            1e3 * mean("engine.cluster.drain"));
  sink->Set("engine.cluster.coordinator_cpu_frac",
            Ratio(p.coordinator_cpu_s, p.cpu_s));
  sink->Set("engine.cluster.ipc_overhead_frac",
            w.workers > 0 ? Ratio(p.cpu_s, in_process.cpu_s) : 0.0);
  sink->Set("engine.cluster.retries", static_cast<double>(p.retries));
  sink->Set("engine.cluster.restarts", static_cast<double>(p.restarts));
  sink->Set("engine.cluster.checksum_failures",
            static_cast<double>(p.checksum_failures));
  sink->Set("engine.cluster.heartbeat_misses",
            static_cast<double>(p.heartbeat_misses));
  sink->Set("trace.overhead_frac", Ratio(rep.traced_s, rep.untraced_s) - 1.0);
  std::printf("# samples: %zu untraced rounds (%llu ticks, %llu updates); "
              "traced %llu sessions, %llu recomputes replayed, %zu spans, "
              "%llu cluster admits, %llu drains; spans in %s\n",
              p.rounds, static_cast<unsigned long long>(p.ticks),
              static_cast<unsigned long long>(p.updates),
              static_cast<unsigned long long>(rep.sessions),
              static_cast<unsigned long long>(rep.recomputes), tracer.size(),
              static_cast<unsigned long long>(rep.admits),
              static_cast<unsigned long long>(rep.drains), spans.c_str());
  std::printf("# span times scaled by host scale %.3f\n", host_scale);
  return p.outcomes.size();
}

void ListMetrics() {
  for (const MetricDecl& d : kEndToEnd) {
    std::printf("end_to_end %s %s\n", d.name, d.unit);
  }
  for (const MetricDecl& d : kPerLayer) {
    std::printf("per_layer %s %s\n", d.name, d.unit);
  }
  for (const std::string& name : WorkloadNames()) {
    std::printf("workload %s\n", name.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n       perfbench --list-metrics\n");
  return 2;
}

int Main(int argc, char** argv) {
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; unset it first\n",
                   var);
      return 2;
    }
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return Usage();
    args[key.substr(2)] = argv[++i];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "out"}) {
    if (args.count(key) == 0) return Usage();
  }
  const std::string out_dir = args["out"];
  const std::string spill_dir = out_dir + "/spill";
  ::mkdir(out_dir.c_str(), 0777);
  ::mkdir(spill_dir.c_str(), 0777);
  const bool traced = args["trace"] == "1";
  Workload w;
  try {
    w = MakeWorkload(args["workload"], std::stoull(args["seed"]),
                     std::stod(args["seconds"]), spill_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return Usage();
  }
  PrintRecord(w, spill_dir);
  std::fflush(stdout);

  MetricSink sink = traced
                       ? MetricSink(std::begin(kPerLayer), std::end(kPerLayer))
                       : MetricSink(std::begin(kEndToEnd), std::end(kEndToEnd));
  Verdict verdict;
  const size_t attempted = traced ? RunTraced(w, out_dir, &sink, &verdict)
                                  : RunEndToEnd(w, &sink, &verdict);
  for (const std::string& note : verdict.notes) {
    std::printf("# check failed: %s\n", note.c_str());
  }
  const bool correct = verdict.ok && verdict.failed == 0;
  const bool complete = sink.Print(correct, attempted, verdict.failed);
  return correct && complete ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
