#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "engine/cluster.h"
#include "engine/group_session.h"
#include "engine/session_codec.h"
#include "index/gnn.h"
#include "mpn/circle_msr.h"
#include "mpn/compress.h"
#include "mpn/tile_msr.h"
#include "util/timer.h"

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One recompute's input and what it produced.
struct Capture {
  uint32_t session = 0;
  int64_t t = 0;
  std::vector<mpn::Point> locations;
  std::vector<mpn::MotionHint> hints;
  uint32_t po = 0;
  size_t regions = 0;
  size_t tiles = 0;
};

size_t TileCount(const std::vector<mpn::SafeRegion>& regions) {
  size_t n = 0;
  for (const mpn::SafeRegion& r : regions) {
    if (!r.is_circle()) n += r.tiles().tiles().size();
  }
  return n;
}

struct DriveStats {
  uint64_t max_state_bytes = 0;
  uint64_t codec_mismatches = 0;
};

// One session, phase by phase, as the scheduler would run it with a
// zero-capacity mailbox.
Outcome Drive(const Workload& w, const mpn::PackedRTree& tree, uint32_t g,
              Tracer* tr, std::vector<Capture>* captures, DriveStats* stats) {
  mpn::SessionTuning tuning = w.Tuning(g);
  tuning.mailbox_capacity = 0;
  mpn::GroupSession s(g, &w.pois, &tree, w.Members(g), w.options.sim,
                      tuning);
  Tracer::Span root(tr, "session", g, -1);
  while (!s.AdvancesExhausted()) {
    const int64_t t = static_cast<int64_t>(s.next_timestamp());
    mpn::GroupSession::Snapshot snap;
    bool violated = false;
    {
      Tracer::Span span(tr, "sim.check.clean", g, t);
      violated = s.AdvanceAndCheck(&snap);
      if (violated) span.Rename("sim.check.violation");
    }
    if (!violated) continue;
    mpn::GroupSession::RecomputeOutcome outcome;
    {
      Tracer::Span span(tr, "engine.session.recompute", g, t);
      outcome = s.Recompute(snap);
    }
    captures->push_back({g, t, snap.locations, snap.hints,
                         outcome.result.po_id, outcome.result.regions.size(),
                         TileCount(outcome.result.regions)});
    {
      Tracer::Span span(tr, "engine.session.install", g, t);
      s.InstallResult(std::move(outcome));
    }
    mpn::WireBuffer snapshot;
    {
      Tracer::Span span(tr, "engine.store.encode", g, t);
      mpn::EncodeLiveSession(s.ExportState(), &snapshot);
    }
    mpn::GroupSession::State decoded;
    bool live = false;
    {
      Tracer::Span span(tr, "engine.store.decode", g, t);
      mpn::WireReader reader(snapshot.data());
      live = mpn::ReadSnapshotHeader(&reader) == mpn::SnapshotKind::kLive;
      decoded = mpn::DecodeLiveSession(&reader);
    }
    mpn::WireBuffer again;
    mpn::EncodeLiveSession(decoded, &again);
    if (!live || again.data() != snapshot.data()) ++stats->codec_mismatches;
    stats->max_state_bytes =
        std::max<uint64_t>(stats->max_state_bytes, s.StateBytesEstimate());
  }
  s.Finish();
  Outcome o;
  o.group = g;
  o.has_result = s.has_result() ? 1 : 0;
  o.po = s.current_po();
  o.updates = s.metrics().updates;
  o.packets = s.metrics().comm.TotalPackets();
  return o;
}

// Replays one captured recompute through each layer's entry point; returns
// false when a replay does not reproduce the recompute.
bool Replay(const Workload& w, const mpn::PackedRTree& tree,
            const Capture& c, mpn::MsrScratch* scratch, Tracer* tr,
            TraceReport* report) {
  const mpn::ServerConfig& server = w.options.sim.server;
  const mpn::Objective obj = server.objective;
  const bool tiled = server.method != mpn::Method::kCircle;
  Tracer::Span root(tr, "replay", c.session, c.t);
  bool ok = true;
  {
    Tracer::Span span(tr, "index.gnn", c.session, c.t);
    const auto top = mpn::FindGnn(&tree, c.locations, obj, 2);
    ok &= !top.empty() && top[0].id == c.po;
  }
  {
    const uint64_t nodes = tree.node_accesses();
    Tracer::Span span(tr, "mpn.circle_msr", c.session, c.t);
    const mpn::CircleMsrResult circle =
        mpn::ComputeCircleMsr(&tree, c.locations, obj);
    report->circle_node_accesses += tree.node_accesses() - nodes;
    if (!tiled) ok &= circle.po_id == c.po && circle.regions.size() == c.regions;
  }
  if (!tiled) return ok;
  mpn::TileMsrConfig config;
  config.alpha = server.alpha;
  config.split_level = server.split_level;
  config.directed = server.method != mpn::Method::kTile;
  config.scratch = scratch;
  mpn::MsrResult result;
  {
    Tracer::Span span(tr, "mpn.tile_msr", c.session, c.t);
    result = mpn::ComputeTileMsr(&tree, c.locations, obj, config, c.hints);
  }
  ok &= result.po_id == c.po && result.regions.size() == c.regions &&
        TileCount(result.regions) == c.tiles;
  Tracer::Span span(tr, "mpn.codec", c.session, c.t);
  for (const mpn::SafeRegion& region : result.regions) {
    if (region.is_circle()) continue;
    const mpn::TileRegion decoded =
        mpn::DecodeTileRegion(mpn::EncodeTileRegion(region.tiles()));
    if (decoded.tiles().size() != region.tiles().tiles().size()) {
      ++report->codec_mismatches;
    }
  }
  return ok;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, uint32_t session,
                   int64_t t)
    : tracer_(tracer), index_(-1) {
  if (!tracer_->enabled_) return;
  const int64_t parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, NowNs(), 0, parent, session, t});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->open_.pop_back();
}

void Tracer::Span::Rename(const char* name) {
  if (index_ >= 0) tracer_->spans_[static_cast<size_t>(index_)].name = name;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, Totals> summary;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = summary[spans_[i].name];
    ++t.count;
    t.self_s +=
        1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                   child_ns[i]);
  }
  return summary;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tsession\tt\n");
  for (const Record& r : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%u\t%lld\n", r.name,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.parent), r.session,
                 static_cast<long long>(r.t));
  }
  return std::fclose(f) == 0;
}

TraceReport TraceSessions(const Workload& w, const mpn::PackedRTree& tree,
                          const std::vector<uint32_t>& groups,
                          const std::vector<Outcome>& expected,
                          Tracer* tracer) {
  TraceReport report;
  report.sessions = groups.size();
  std::map<uint32_t, Outcome> want;
  for (const Outcome& o : expected) want[o.group] = o;

  // Each session is driven twice, spans off and on; the difference in
  // drive time is the tracing overhead. The order alternates from group to
  // group, so that neither drive always runs on the caches the other warmed.
  Tracer off(false);
  std::vector<Capture> captures, discarded;
  DriveStats stats;
  std::vector<Outcome> driven;
  for (size_t i = 0; i < groups.size(); ++i) {
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      mpn::Timer timer;
      if (traced) {
        driven.push_back(Drive(w, tree, groups[i], tracer, &captures, &stats));
        report.traced_s += timer.ElapsedSeconds();
      } else {
        Drive(w, tree, groups[i], &off, &discarded, &stats);
        report.untraced_s += timer.ElapsedSeconds();
        discarded.clear();
      }
    }
  }
  report.codec_mismatches = stats.codec_mismatches;
  for (const Outcome& o : driven) {
    const auto it = want.find(o.group);
    if (it == want.end() || !SameResult(o, it->second)) {
      ++report.drive_mismatches;
    }
  }

  mpn::MsrScratch scratch;
  report.recomputes = captures.size();
  for (const Capture& c : captures) {
    if (!Replay(w, tree, c, &scratch, tracer, &report)) {
      ++report.replay_mismatches;
    }
  }
  return report;
}

uint64_t MaxStateBytes(const Workload& w, const mpn::PackedRTree& tree,
                       const std::vector<uint32_t>& groups) {
  Tracer off(false);
  std::vector<Capture> captures;
  DriveStats stats;
  for (uint32_t g : groups) {
    Drive(w, tree, g, &off, &captures, &stats);
    captures.clear();
  }
  return stats.max_state_bytes;
}

void TraceClusterRound(const Workload& w, const mpn::PackedRTree& tree,
                       size_t r, Tracer* tracer, TraceReport* report) {
  mpn::ClusterOptions options;
  options.workers = w.workers;
  options.engine = w.options;
  mpn::ClusterEngine cluster(&w.pois, &tree, options);
  cluster.Start();
  cluster.Wait();
  for (size_t k = 0; k < w.waves; ++k) {
    const auto [begin, end] = w.Wave(r, k);
    for (size_t g = begin; g < end; ++g) {
      Tracer::Span span(tracer, "engine.cluster.admit",
                        static_cast<uint32_t>(g), -1);
      cluster.AdmitSession(w.Members(g), w.Tuning(g));
      ++report->admits;
    }
    Tracer::Span span(tracer, "engine.cluster.drain",
                      static_cast<uint32_t>(k), -1);
    cluster.Wait();
    ++report->drains;
  }
  cluster.Shutdown();
}

}  // namespace perfbench
