// Outside-in layer trace: spans recorded from the benchmark's own code
// around the public entry points of each layer.
//
// A span has a name, start and end (steady_clock ns), the span that caused
// it, and a notification id (session, t). Spans stay in memory and are
// written as TSV when the run ends. A span's self time is its duration
// minus its children's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "index/packed_rtree.h"
#include "serve.h"
#include "workload.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span; a disabled tracer records nothing.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint32_t session, int64_t t);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Renames the span before it ends (e.g. once a check's outcome is
    /// known).
    void Rename(const char* name);

   private:
    Tracer* tracer_;
    int64_t index_;
  };

  struct Totals {
    uint64_t count = 0;
    double self_s = 0.0;
  };
  /// Count and summed self time per span name.
  std::map<std::string, Totals> Summarize() const;
  size_t size() const { return spans_.size(); }
  /// Writes one TSV line per span: name, start_ns, end_ns, parent index,
  /// session, t. Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint32_t session;
    int64_t t;
  };
  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int64_t> open_;
};

/// What the traced run measured beyond the spans.
struct TraceReport {
  /// Drive-loop seconds with spans off / on (the tracing overhead).
  double untraced_s = 0.0;
  double traced_s = 0.0;
  uint64_t recomputes = 0;
  /// R-tree nodes the replayed ComputeCircleMsr calls touched (the Circle
  /// server path leaves MsrStats::rtree_node_accesses at zero).
  uint64_t circle_node_accesses = 0;
  uint64_t replay_mismatches = 0;
  uint64_t codec_mismatches = 0;
  uint64_t sessions = 0;
  /// Sessions whose phase-by-phase result differs from `expected`.
  uint64_t drive_mismatches = 0;
  /// Cluster rounds only: traced AdmitSession / Wait calls.
  uint64_t admits = 0;
  uint64_t drains = 0;
};

/// Drives each group of `groups` phase by phase on its own GroupSession
/// (AdvanceAndCheck, Recompute, InstallResult), round-trips an ExportState
/// snapshot through the session codec after every install, and replays
/// every recompute's input through the index and mpn entry points, each
/// under a span. Each replay must reproduce its recompute's meeting point
/// and region count, and each session must reproduce the outcome in
/// `expected` (matched by group). Each session is also driven once without
/// spans, for the overhead figure.
TraceReport TraceSessions(const Workload& w, const mpn::PackedRTree& tree,
                          const std::vector<uint32_t>& groups,
                          const std::vector<Outcome>& expected,
                          Tracer* tracer);

/// Largest StateBytesEstimate() of `groups` driven phase by phase (no
/// spans, no replays): one session snapshot's worth of resident bytes.
uint64_t MaxStateBytes(const Workload& w, const mpn::PackedRTree& tree,
                       const std::vector<uint32_t>& groups);

/// Serves round `r` of a cluster workload with a span around every
/// ClusterEngine::AdmitSession and Wait.
void TraceClusterRound(const Workload& w, const mpn::PackedRTree& tree,
                       size_t r, Tracer* tracer, TraceReport* report);

}  // namespace perfbench
