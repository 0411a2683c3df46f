#include "sim/simulator.h"

#include "engine/engine.h"

namespace mpn {

void SimMetrics::Merge(const SimMetrics& other) {
  timestamps += other.timestamps;
  updates += other.updates;
  result_changes += other.result_changes;
  comm.Merge(other.comm);
  server_seconds += other.server_seconds;
  msr.tiles_tried += other.msr.tiles_tried;
  msr.tiles_added += other.msr.tiles_added;
  msr.divide_calls += other.msr.divide_calls;
  msr.verify.calls += other.msr.verify.calls;
  msr.verify.accepted += other.msr.verify.accepted;
  msr.verify.tile_groups += other.msr.verify.tile_groups;
  msr.verify.focal_evals += other.msr.verify.focal_evals;
  msr.verify.memo_hits += other.msr.verify.memo_hits;
  msr.candidates.retrievals += other.msr.candidates.retrievals;
  msr.candidates.candidates_total += other.msr.candidates.candidates_total;
  msr.candidates.rejected_by_buffer +=
      other.msr.candidates.rejected_by_buffer;
  msr.rtree_node_accesses += other.msr.rtree_node_accesses;
}

Simulator::Simulator(const std::vector<Point>* pois, const PackedRTree* tree,
                     std::vector<const Trajectory*> group,
                     const SimOptions& options)
    : pois_(pois), tree_(tree), group_(std::move(group)), options_(options) {}

SimMetrics Simulator::Run() {
  EngineOptions opt;
  opt.threads = 1;
  opt.sim = options_;
  Engine engine(pois_, tree_, opt);
  engine.AdmitSession(group_);
  engine.Run();
  return engine.session_metrics(0);
}

SimMetrics RunGroups(const std::vector<Point>& pois, const PackedRTree* tree,
                     const std::vector<std::vector<const Trajectory*>>& groups,
                     const SimOptions& options) {
  EngineOptions opt;
  opt.threads = 1;
  opt.sim = options;
  Engine engine(&pois, tree, opt);
  for (const auto& group : groups) engine.AdmitSession(group);
  engine.Run();
  return engine.TotalMetrics();
}

}  // namespace mpn
