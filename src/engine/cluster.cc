#include "engine/cluster.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/digest.h"
#include "engine/session_codec.h"
#include "util/macros.h"
#include "util/timer.h"

namespace mpn {

namespace {

/// Cluster protocol frame types (first payload byte). Coordinator ->
/// worker: kAdmit, kRetire, kDrain, kShutdown; kPing on the heartbeat
/// channel. Worker -> coordinator: kDrainedOk, kShutdownAck,
/// kWorkerError; kPong on the heartbeat channel. See
/// docs/ARCHITECTURE.md §5c-§5d.
enum FrameType : uint8_t {
  kAdmit = 1,
  kRetire = 2,
  kDrain = 3,
  kShutdown = 4,
  kDrainedOk = 5,
  kShutdownAck = 6,
  kWorkerError = 7,
  kPing = 8,
  kPong = 9,
};

/// Byte offset of the SessionTuning::retire_at u64 inside a kAdmit frame
/// (tag u8 + id u32 + recompute_cost_factor double). RetireSession
/// min-merges retirements into this field of the stored frame — see
/// ReplayShardSnapshot.
constexpr size_t kAdmitRetireAtOffset = 1 + 4 + 8;

/// Coordinator-side per-operation I/O deadline (ms): bounds every send and
/// any *mid-frame* receive progress. A worker that stops moving bytes
/// inside an operation is killed and recovered. Worker-side channels stay
/// unbounded — deadlines protect the coordinator from workers, never the
/// reverse (a wedged coordinator means the cluster is gone anyway).
constexpr double kIoDeadlineMs = 10'000.0;

uint64_t ReadAdmitRetireAt(const WireBuffer& frame) {
  MPN_ASSERT(frame.size() >= kAdmitRetireAtOffset + 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(frame.data()[kAdmitRetireAtOffset + i])
         << (8 * i);
  }
  return v;
}

// SimMetrics serialization (WriteMetrics/ReadMetrics) moved to
// engine/session_codec.h, shared with the session store's spill snapshots.

/// Worker serving loop: one Engine over this shard's groups, fed by
/// frames until the coordinator shuts it down or closes the pipe. Runs in
/// the forked child; must not touch the coordinator's state or stdio.
/// Retire frames carry *global* ids (a replacement worker's local ids
/// restart from 0 while global ids do not), so the worker keeps each local
/// session's global id.
int WorkerMain(IpcChannel* ch, IpcChannel* hb,
               const std::vector<Point>* pois, const PackedRTree* tree,
               const EngineOptions& options) {
  try {
    // Decoded trajectories of the sessions not yet shipped in a drain
    // reply: sessions keep pointers into it, so entries must never move
    // (deque). Declared before the engine so it outlives it: on an error
    // or EOF exit ~Engine drains the sessions still in flight over them.
    std::deque<std::vector<Trajectory>> storage;
    Engine engine(pois, tree, options);
    engine.Start();
    // Heartbeat responder: a dedicated thread answers coordinator pings
    // even while this (main) thread blocks inside Engine::Wait during a
    // drain — so "busy recomputing" stays distinguishable from "hung".
    // SIGSTOP freezes every thread of the process, this one included,
    // which is exactly how a stopped worker fails its liveness probes.
    // The RAII joiner half-closes the channel (waking the thread with
    // EOF) and joins it on every exit path *before* `engine` is
    // destroyed, so the thread can never touch a dead engine.
    struct HeartbeatJoiner {
      IpcChannel* hb;
      std::thread thread;
      ~HeartbeatJoiner() {
        hb->ShutdownBoth();
        if (thread.joinable()) thread.join();
      }
    } heartbeat{hb, std::thread([hb, &engine] {
                  std::vector<uint8_t> ping;
                  for (;;) {
                    try {
                      if (!hb->Recv(&ping)) return;
                      WireReader r(ping);
                      if (r.GetU8() != kPing) return;
                      const uint64_t seq = r.GetU64();
                      WireBuffer pong;
                      pong.PutU8(kPong);
                      pong.PutU64(seq);
                      pong.PutU64(engine.events_processed());
                      if (!hb->Send(pong)) return;
                    } catch (const std::exception&) {
                      return;  // torn ping: the coordinator gave up on us
                    }
                  }
                })};
    // Global id of each local session. Ascending within an incarnation:
    // a shard's ids ascend, the pipe is FIFO, and a replay ascends too.
    std::vector<uint32_t> global_ids;
    std::vector<uint8_t> payload;
    // Transport retries already shipped in an earlier drain reply (the
    // coordinator folds the per-drain delta into its RecoveryStats).
    uint64_t reported_retries = 0;
    // Sessions whose results an earlier drain reply shipped: final since
    // that drain, and kept in the coordinator's results_.
    size_t shipped = 0;
    while (ch->Recv(&payload)) {
      WireReader r(payload);
      switch (r.GetU8()) {
        case kAdmit: {
          const uint32_t global_id = r.GetU32();
          SessionTuning tuning;
          tuning.recompute_cost_factor = r.GetDouble();
          tuning.retire_at = static_cast<size_t>(r.GetU64());
          tuning.mailbox_capacity = static_cast<size_t>(r.GetU64());
          const uint32_t m = r.GetU32();
          std::vector<Trajectory> trajs(m);
          for (uint32_t i = 0; i < m; ++i) {
            const uint32_t n = r.GetU32();
            trajs[i].positions.resize(n);
            for (uint32_t j = 0; j < n; ++j) {
              trajs[i].positions[j].x = r.GetDouble();
              trajs[i].positions[j].y = r.GetDouble();
            }
          }
          storage.push_back(std::move(trajs));
          std::vector<const Trajectory*> group;
          group.reserve(storage.back().size());
          for (const Trajectory& t : storage.back()) group.push_back(&t);
          const uint32_t local = engine.AdmitSession(std::move(group), tuning);
          if (local != global_ids.size()) {
            throw std::runtime_error("cluster worker: local id out of sync");
          }
          global_ids.push_back(global_id);
          break;
        }
        case kRetire: {
          const uint32_t global_id = r.GetU32();
          const uint64_t at = r.GetU64();
          const auto it =
              std::lower_bound(global_ids.begin(), global_ids.end(), global_id);
          if (it == global_ids.end() || *it != global_id) {
            throw std::runtime_error("cluster worker: retire for unknown id");
          }
          engine.RetireSession(static_cast<uint32_t>(it - global_ids.begin()),
                               static_cast<size_t>(at));
          break;
        }
        case kDrain: {
          engine.Wait();
          WireBuffer out;
          out.PutU8(kDrainedOk);
          const size_t sessions = engine.session_count();
          out.PutU32(static_cast<uint32_t>(sessions - shipped));
          for (uint32_t local = static_cast<uint32_t>(shipped);
               local < sessions; ++local) {
            out.PutU32(global_ids[local]);
            // Streamed: under a memory budget a spilled session's result
            // decodes into a stack-local, so the drain stays O(1) resident.
            engine.WithSessionResult(
                local, [&out](const SessionFinalResult& fr) {
                  WriteMetrics(&out, fr.metrics);
                  out.PutU8(fr.has_result ? 1 : 0);
                  out.PutU32(fr.po);
                  out.PutU64(fr.mailbox_peak);
                  out.PutU64(fr.stall_count);
                });
          }
          const std::vector<Scheduler::Slot> slots = engine.timeline_slots();
          out.PutU32(static_cast<uint32_t>(slots.size()));
          for (const Scheduler::Slot& slot : slots) {
            out.PutU64(slot.messages);
            out.PutU64(slot.recomputes);
            out.PutDouble(slot.seconds);
          }
          const uint64_t retries = ch->counters().retries;
          out.PutU64(retries - reported_retries);
          reported_retries = retries;
          // Session-store counters (cumulative for this incarnation; the
          // coordinator folds incarnations like slot_base/last_slots).
          const MemoryStats mem = engine.memory_stats();
          out.PutU64(mem.spilled_sessions);
          out.PutU64(mem.rehydrated_sessions);
          out.PutU64(mem.spilled_bytes);
          out.PutU64(mem.peak_resident_bytes);
          if (!ch->Send(out)) return 1;
          // The shipped sessions are final (Wait drained them) and their
          // results crossed: nothing reads their trajectories again.
          storage.erase(storage.begin(),
                        storage.begin() + static_cast<std::ptrdiff_t>(
                                              sessions - shipped));
          shipped = sessions;
          break;
        }
        case kShutdown: {
          engine.Shutdown();
          WireBuffer out;
          out.PutU8(kShutdownAck);
          ch->Send(out);
          return 0;
        }
        default:
          throw std::runtime_error("cluster worker: unknown frame type");
      }
    }
    return 0;  // coordinator closed the pipe: clean exit
  } catch (const std::exception& e) {
    WireBuffer out;
    out.PutU8(kWorkerError);
    out.PutString(e.what());
    ch->Send(out);  // best effort; the exit code says it all otherwise
    return 1;
  }
}

std::string ShardError(size_t shard, const std::string& detail) {
  return "mpn cluster: worker for shard " + std::to_string(shard) + " " +
         detail;
}

}  // namespace

ClusterEngine::ClusterEngine(const std::vector<Point>* pois,
                             const PackedRTree* tree,
                             const ClusterOptions& options)
    : pois_(pois), tree_(tree), options_(options) {
  MPN_ASSERT(pois_ != nullptr && tree_ != nullptr);
  if (options_.workers == 0) {
    throw std::invalid_argument("ClusterEngine: workers must be >= 1");
  }
  workers_.resize(options_.workers);
}

ClusterEngine::~ClusterEngine() { TeardownWorkers(); }

void ClusterEngine::RequireStarted() const {
  if (!started_) {
    throw std::logic_error("ClusterEngine: not started (call Start)");
  }
}

void ClusterEngine::RequireServing() const {
  if (stopped_) {
    throw std::logic_error(
        "ClusterEngine: AdmitSession/RetireSession after Shutdown");
  }
  RequireHealthy();
}

void ClusterEngine::RequireHealthy() const {
  if (failed_) {
    throw std::runtime_error(
        "ClusterEngine: a worker failed earlier; the cluster is poisoned "
        "(results of the last successful Wait remain readable)");
  }
}

void ClusterEngine::RequireShard(size_t shard, const char* what) const {
  if (shard >= options_.workers) {
    throw std::out_of_range(std::string("ClusterEngine::") + what +
                            ": shard " + std::to_string(shard) +
                            " out of range (" +
                            std::to_string(options_.workers) + " workers)");
  }
}

size_t ClusterEngine::ShardSessionCount(size_t shard) const {
  if (next_id_ <= shard) return 0;
  return (next_id_ - shard - 1) / options_.workers + 1;
}

uint32_t ClusterEngine::AdmitSession(
    const std::vector<const Trajectory*>& group, const SessionTuning& tuning) {
  std::lock_guard<std::mutex> lock(mu_);
  RequireServing();
  ValidateAdmission(group, tuning);
  const size_t shard = next_id_ % options_.workers;
  if (started_ && workers_[shard].lost) {
    throw std::runtime_error(workers_[shard].lost_reason);
  }
  const uint32_t id = next_id_++;
  // The snapshot keeps this frame until the session's first drain: size
  // it exactly rather than to the next growth step.
  size_t bytes = 1 + 4 + 8 + 8 + 8 + 4;
  for (const Trajectory* t : group) bytes += 4 + 16 * t->positions.size();
  WireBuffer frame;
  frame.Reserve(bytes);
  frame.PutU8(kAdmit);
  frame.PutU32(id);
  frame.PutDouble(tuning.recompute_cost_factor);
  frame.PutU64(static_cast<uint64_t>(tuning.retire_at));
  frame.PutU64(static_cast<uint64_t>(tuning.mailbox_capacity));
  frame.PutU32(static_cast<uint32_t>(group.size()));
  for (const Trajectory* t : group) {
    frame.PutU32(static_cast<uint32_t>(t->positions.size()));
    for (const Point& p : t->positions) {
      frame.PutDouble(p.x);
      frame.PutDouble(p.y);
    }
  }
  // Record intent in the snapshot BEFORE the first send: if the worker is
  // already dead, the recovery replay delivers this very frame — a second
  // send would duplicate it.
  std::deque<WireBuffer>& pending = workers_[shard].pending;
  pending.push_back(std::move(frame));
  if (started_ && !SendToShard(shard, pending.back())) {
    RecoverShard(shard);  // replay includes the new admit frame
  }
  return id;
}

void ClusterEngine::RetireSession(uint32_t id, size_t at_timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  RequireServing();
  if (id >= next_id_) {
    throw std::out_of_range("ClusterEngine::RetireSession: unknown id");
  }
  const size_t shard = id % options_.workers;
  const size_t shard_index = id / options_.workers;
  Worker& w = workers_[shard];
  if (started_ && w.lost) throw std::runtime_error(w.lost_reason);
  // Snapshot first (see AdmitSession): min-merged into the stored frame,
  // as the worker's RequestRetire min-merges it. A drained session is
  // final and never replayed, so there is nothing to record for it.
  if (shard_index >= w.drained_through) {
    WireBuffer& frame = w.pending[shard_index - w.drained_through];
    frame.PatchU64(kAdmitRetireAtOffset,
                   std::min(ReadAdmitRetireAt(frame),
                            static_cast<uint64_t>(at_timestamp)));
  }
  if (!started_) return;
  // Sessions final as of the shard's last drain before its current
  // incarnation were restored, not re-admitted: the incarnation does not
  // hold them, and retiring one is a no-op anyway (its timestamps are all
  // processed already).
  if (shard_index < w.restored_below) return;
  WireBuffer frame;
  frame.PutU8(kRetire);
  frame.PutU32(id);
  frame.PutU64(static_cast<uint64_t>(at_timestamp));
  if (!SendToShard(shard, frame)) {
    RecoverShard(shard);  // replay includes the new retire frame
  }
}

void ClusterEngine::ForkWorker(size_t shard) {
  Worker& w = workers_[shard];
  const TransportTuning& tt = options_.transport;
  IpcChannel parent_end, child_end, hb_parent, hb_child;
  IpcChannel::MakePair(&parent_end, &child_end);
  IpcChannel::MakePair(&hb_parent, &hb_child);
  // This incarnation gets the shard's next events up to and including the
  // first fatal one. A crash is fatal, so it can only end the batch: it
  // arms the worker's engine, and the rest arm its data channel.
  EngineOptions engine_options = options_.engine;
  std::vector<FaultPlan::Event> faults = fault_plan_.TakeIncarnation(shard);
  if (!faults.empty() && faults.back().kind == FaultKind::kCrash) {
    engine_options.crash_at_timestamp = faults.back().at;
    faults.pop_back();
  }
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("mpn cluster: fork failed");
  }
  if (pid == 0) {
    // Worker process. Drop every coordinator-side fd so a dead sibling
    // (or a closing coordinator) reliably surfaces as EOF, then serve.
    // Faults arm on the worker's end of the data channel: its frame-op
    // sequence (admit receives, drain receive, reply send, ...) is
    // deterministic because the serving loop is single-threaded.
    // Worker-side channels stay deadline-free: a slow coordinator must
    // never make a worker give up (see kIoDeadlineMs).
    parent_end.Close();
    hb_parent.Close();
    for (Worker& other : workers_) {
      other.channel.Close();
      other.heartbeat.Close();
    }
    for (const FaultPlan::Event& ev : faults) {
      child_end.ArmFault(ev.at, ev.kind);
    }
    const int code =
        WorkerMain(&child_end, &hb_child, pois_, tree_, engine_options);
    child_end.Close();
    hb_child.Close();
    // _Exit: no atexit handlers, no static destructors, no flushing of
    // stdio buffers inherited from the coordinator.
    std::_Exit(code);
  }
  child_end.Close();
  hb_child.Close();
  w.pid = pid;
  w.channel = std::move(parent_end);
  w.channel.set_io_deadline_ms(kIoDeadlineMs);
  w.heartbeat = std::move(hb_parent);
  w.heartbeat.set_io_deadline_ms(tt.heartbeat_timeout_ms);
  w.ping_seq = 0;
  w.last_progress = 0;
  w.reaped = false;
}

bool ClusterEngine::ReplayShardSnapshot(size_t shard, bool count_stats) {
  Worker& w = workers_[shard];
  // The queue starts at drained_through, and so does the replay: both are
  // 0 at Start, and RecoverShard sets restored_below just before.
  MPN_ASSERT(w.restored_below == w.drained_through);
  if (count_stats) stats_.sessions_restored += w.restored_below;
  for (const WireBuffer& frame : w.pending) {
    // Recorded retirements ride INSIDE the admit frame (RetireSession
    // folded them into the tuning's retire_at): a worker's engine starts
    // advancing a session the moment it is admitted, so a separate
    // kRetire frame behind the admit could lose the race against the
    // session finishing — the retirement would be a no-op and the digest
    // would diverge from the single-process run.
    if (!SendToShard(shard, frame)) return false;
    if (count_stats) {
      ++stats_.sessions_readmitted;
      ++stats_.frames_replayed;
    }
  }
  return true;
}

bool ClusterEngine::SendToShard(size_t shard, const WireBuffer& frame) {
  Worker& w = workers_[shard];
  const IoStatus st = w.channel.SendFrame(frame, kIoDeadlineMs);
  if (st == IoStatus::kOk) return true;
  if (st == IoStatus::kDeadline) {
    // The worker stopped draining its pipe within the deadline: count
    // the expiry, kill it (the stream is no longer trustworthy) and let
    // the caller run the normal recovery path.
    ++stats_.deadline_hits;
    if (w.pid > 0 && !w.reaped) kill(w.pid, SIGKILL);
  }
  if (!w.channel.last_error().empty()) {
    w.last_io_error = w.channel.last_error();
  }
  return false;
}

bool ClusterEngine::ProbeWorker(size_t shard) {
  Worker& w = workers_[shard];
  if (!w.heartbeat.valid()) return false;
  const double timeout = options_.transport.heartbeat_timeout_ms;
  try {
    WireBuffer ping;
    ping.PutU8(kPing);
    ping.PutU64(++w.ping_seq);
    if (w.heartbeat.SendFrame(ping, timeout) != IoStatus::kOk) return false;
    std::vector<uint8_t> payload;
    for (;;) {
      if (w.heartbeat.RecvFrame(&payload, timeout) != IoStatus::kOk) {
        return false;
      }
      WireReader r(payload);
      if (r.GetU8() != kPong) return false;
      const uint64_t seq = r.GetU64();
      const uint64_t progress = r.GetU64();
      if (seq == w.ping_seq) {
        w.last_progress = progress;
        return true;
      }
      // A stale pong answering a probe that already timed out: drain it
      // and keep waiting for ours.
    }
  } catch (const std::exception&) {
    return false;  // a torn pong is as good as no pong
  }
}

IoStatus ClusterEngine::RecvReplySliced(size_t shard,
                                        std::vector<uint8_t>* payload) {
  Worker& w = workers_[shard];
  const TransportTuning& tt = options_.transport;
  size_t misses = 0;
  uint64_t progress_mark = w.last_progress;
  Timer since_progress;
  for (;;) {
    const IoStatus st =
        w.channel.RecvFrame(payload, tt.heartbeat_interval_ms);
    if (st != IoStatus::kDeadline) return st;
    // The slice elapsed without a reply. Distinguish "busy recomputing"
    // (slow is fine, the pong proves life) from "hung" (SIGSTOPped or
    // wedged: pings go unanswered until the miss budget declares it).
    if (ProbeWorker(shard)) {
      misses = 0;
      if (w.last_progress != progress_mark) {
        progress_mark = w.last_progress;
        since_progress.Reset();
      }
    } else {
      ++stats_.heartbeat_misses;
      if (++misses >= tt.heartbeat_miss_budget) {
        w.last_io_error = "heartbeat miss budget exhausted";
        if (w.pid > 0 && !w.reaped) kill(w.pid, SIGKILL);
        return IoStatus::kClosed;
      }
    }
    if (tt.drain_deadline_ms > 0 &&
        since_progress.ElapsedMillis() > tt.drain_deadline_ms) {
      ++stats_.deadline_hits;
      w.last_io_error = "drain deadline expired without progress";
      if (w.pid > 0 && !w.reaped) kill(w.pid, SIGKILL);
      return IoStatus::kClosed;
    }
  }
}

void ClusterEngine::HarvestChannelCounters(Worker* w) {
  if (w->channel.valid()) stats_.retries += w->channel.counters().retries;
  if (w->heartbeat.valid()) {
    stats_.retries += w->heartbeat.counters().retries;
  }
}

void ClusterEngine::MarkShardLost(size_t shard) {
  Worker& w = workers_[shard];
  std::string ids;
  const size_t shard_sessions = ShardSessionCount(shard);
  for (size_t k = w.drained_through; k < shard_sessions; ++k) {
    if (!ids.empty()) ids += ", ";
    ids += std::to_string(shard + k * options_.workers);
  }
  w.pending.clear();  // a lost shard is never replayed
  w.lost = true;
  w.lost_reason = ShardError(
      shard, "lost after " + std::to_string(w.restarts) +
                 " restart(s): restart budget exhausted; groups lost: [" +
                 (ids.empty() ? std::string("none") : ids) + "]" +
                 (w.last_io_error.empty()
                      ? std::string()
                      : "; last transport error: " + w.last_io_error));
  ++stats_.shards_lost;
  throw std::runtime_error(w.lost_reason);
}

void ClusterEngine::RecoverShard(size_t shard) {
  Timer timer;
  for (;;) {
    Worker& w = workers_[shard];
    // The worker may be a zombie (crashed) or alive-but-wedged (its engine
    // deadlocked would also land here via a test kill); SIGKILL is
    // idempotent either way, and closing the channel first guarantees the
    // blocking reap cannot hang.
    if (w.pid > 0 && !w.reaped) kill(w.pid, SIGKILL);
    if (!w.channel.last_error().empty()) {
      w.last_io_error = w.channel.last_error();
    }
    HarvestChannelCounters(&w);
    w.channel.Close();
    w.heartbeat.Close();
    Reap(shard);
    const RecoveryOptions& recovery = options_.recovery;
    if (recovery.max_restarts == 0) {
      // Pre-elastic fail-stop: poison the cluster instead of recovering.
      failed_ = true;
      stats_.recovery_seconds += timer.ElapsedSeconds();
      throw std::runtime_error(ShardError(
          shard, "exited unexpectedly (recovery disabled)" +
                     (w.last_io_error.empty()
                          ? std::string()
                          : "; last transport error: " + w.last_io_error)));
    }
    if (w.restarts >= recovery.max_restarts) {
      stats_.recovery_seconds += timer.ElapsedSeconds();
      MarkShardLost(shard);
    }
    ++w.restarts;
    ++stats_.restarts;
    // Everything the dead incarnation did since its last successful drain
    // is discarded; finals below drained_through keep their coordinator-
    // held results and their slot contribution moves into slot_base.
    w.restored_below = w.drained_through;
    w.slot_base = w.last_slots;
    // Same fold for the session-store counters: sums accumulate across
    // incarnations, the peak is the max any incarnation reached.
    w.mem_base.spilled_sessions += w.last_mem.spilled_sessions;
    w.mem_base.rehydrated_sessions += w.last_mem.rehydrated_sessions;
    w.mem_base.spilled_bytes += w.last_mem.spilled_bytes;
    w.mem_base.peak_resident_bytes = std::max(
        w.mem_base.peak_resident_bytes, w.last_mem.peak_resident_bytes);
    w.last_mem = MemoryStats();
    ForkWorker(shard);
    if (ReplayShardSnapshot(shard, /*count_stats=*/true)) break;
    // The replacement died mid-replay (e.g. a crash armed at t=0 on a
    // replayed session): charge another restart attempt.
  }
  stats_.recovery_seconds += timer.ElapsedSeconds();
}

void ClusterEngine::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    throw std::logic_error("ClusterEngine::Start may be called once");
  }
  started_ = true;
  for (size_t shard = 0; shard < options_.workers; ++shard) {
    ForkWorker(shard);
  }
  // Initial delivery shares the recovery replay path (nothing is drained
  // yet, so every queued admission goes out); stats stay zero for it —
  // only real recoveries count. A worker dying this early (e.g. a crash
  // armed at t=0) is recovered like any other death.
  for (size_t shard = 0; shard < options_.workers; ++shard) {
    if (!ReplayShardSnapshot(shard, /*count_stats=*/false)) {
      RecoverShard(shard);  // loops until replayed, lost, or poisoned
    }
  }
}

bool ClusterEngine::SendDrainRecovering(size_t shard) {
  WireBuffer drain;
  drain.PutU8(kDrain);
  for (;;) {
    if (workers_[shard].lost) return false;
    if (SendToShard(shard, drain)) return true;
    try {
      RecoverShard(shard);
    } catch (const std::runtime_error&) {
      if (failed_) throw;  // poison latch: not a graceful degradation
      return false;        // shard lost; reason stored in lost_reason
    }
  }
}

bool ClusterEngine::RecvDrainRecovering(size_t shard) {
  for (;;) {
    if (workers_[shard].lost) return false;
    std::vector<uint8_t> payload;
    bool dead = false;
    try {
      dead = RecvReplySliced(shard, &payload) != IoStatus::kOk;
    } catch (const FrameError& e) {
      // Frame integrity failure (bad magic/version, CRC mismatch, torn
      // frame, mid-frame wedge): the stream is no longer trustworthy.
      // Count it and restart the worker — same path as a death.
      ++stats_.checksum_failures;
      workers_[shard].last_io_error = e.what();
      dead = true;
    }
    if (!dead && !payload.empty() && payload[0] == kWorkerError) {
      // The worker hit an internal error and exited; treat like a death —
      // deterministic errors (e.g. a failing correctness check) recur on
      // replay and exhaust the budget, transient ones recover.
      dead = true;
    }
    if (dead) {
      try {
        RecoverShard(shard);
      } catch (const std::runtime_error&) {
        if (failed_) throw;
        return false;
      }
      if (!SendDrainRecovering(shard)) return false;
      continue;  // replacement is recomputing; await its drain reply
    }
    ParseDrainReply(shard, payload);
    return true;
  }
}

void ClusterEngine::ParseDrainReply(size_t shard,
                                    const std::vector<uint8_t>& payload) {
  Worker& w = workers_[shard];
  WireReader r(payload);
  if (r.GetU8() != kDrainedOk) {
    failed_ = true;
    throw std::runtime_error(ShardError(shard, "sent an invalid reply"));
  }
  const size_t shard_sessions = ShardSessionCount(shard);
  // The reply carries the sessions admitted since the last successful
  // drain; a replacement incarnation's first reply starts at the same
  // index, because RecoverShard sets restored_below = drained_through.
  const uint32_t sessions = r.GetU32();
  if (sessions != shard_sessions - w.drained_through) {
    failed_ = true;
    throw std::runtime_error(ShardError(shard, "routed ids out of sync"));
  }
  for (uint32_t local = 0; local < sessions; ++local) {
    const uint32_t global_id = r.GetU32();
    const uint32_t expected = static_cast<uint32_t>(
        shard + (w.drained_through + local) * options_.workers);
    if (global_id != expected || global_id >= results_.size()) {
      failed_ = true;
      throw std::runtime_error(ShardError(shard, "routed ids out of sync"));
    }
    SessionFinalResult& res = results_[global_id];
    res.metrics = ReadMetrics(&r);
    res.has_result = r.GetU8() != 0;
    res.po = r.GetU32();
    res.mailbox_peak = static_cast<size_t>(r.GetU64());
    res.stall_count = static_cast<size_t>(r.GetU64());
  }
  // Effective slot totals = dead incarnations' drained history + this
  // incarnation's recomputed timeline (commutative per-slot sums, so the
  // split is invisible to the folded round stats).
  const uint32_t slot_count = r.GetU32();
  std::vector<Scheduler::Slot> slots = w.slot_base;
  if (slots.size() < slot_count) slots.resize(slot_count);
  for (uint32_t t = 0; t < slot_count; ++t) {
    slots[t].messages += r.GetU64();
    slots[t].recomputes += r.GetU64();
    slots[t].seconds += r.GetDouble();
  }
  w.last_slots = std::move(slots);
  // The worker ships its transport-retry delta with every drain so the
  // coordinator's RecoveryStats see both ends of each channel.
  stats_.retries += r.GetU64();
  // Session-store counters, cumulative for the current incarnation (a
  // replacement restarts from zero; RecoverShard folds the dead
  // incarnation's last report into mem_base).
  w.last_mem.spilled_sessions = r.GetU64();
  w.last_mem.rehydrated_sessions = r.GetU64();
  w.last_mem.spilled_bytes = r.GetU64();
  w.last_mem.peak_resident_bytes = r.GetU64();
  // Every session admitted so far is final now (Engine::Wait drains all),
  // so none of them can be replayed again. Popped only here, with the
  // whole reply parsed.
  w.pending.erase(w.pending.begin(),
                  w.pending.begin() + static_cast<std::ptrdiff_t>(sessions));
  w.drained_through = shard_sessions;
}

void ClusterEngine::Wait() {
  std::lock_guard<std::mutex> lock(mu_);
  RequireStarted();
  RequireHealthy();
  if (stopped_) return;  // results were frozen by Shutdown
  results_.resize(next_id_);

  // Phase 1: fan the drain request out to every healthy shard so workers
  // recompute concurrently; phase 2 collects replies (and recovers +
  // re-drains through any deaths). Shards that exhaust their budget are
  // collected, not fatal — healthy shards still refresh their results.
  std::vector<bool> draining(workers_.size(), false);
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    draining[shard] = SendDrainRecovering(shard);
  }
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    if (draining[shard]) RecvDrainRecovering(shard);
  }

  // Fold like Engine::RebuildRoundStats: slot totals in timestamp order
  // (bit-identical counter sequences for any worker count), then the
  // per-session mailbox marks in global session order. Lost shards
  // contribute their last drained history — consistent with their results_
  // entries staying frozen at the last successful drain.
  std::vector<Scheduler::Slot> slots;
  for (const Worker& w : workers_) {
    if (slots.size() < w.last_slots.size()) slots.resize(w.last_slots.size());
    for (size_t t = 0; t < w.last_slots.size(); ++t) {
      slots[t].messages += w.last_slots[t].messages;
      slots[t].recomputes += w.last_slots[t].recomputes;
      slots[t].seconds += w.last_slots[t].seconds;
    }
  }
  EngineRoundStats stats = EngineRoundStats::FromSlots(slots);
  for (const SessionFinalResult& res : results_) {
    stats.mailbox_peak_per_session.Add(static_cast<double>(res.mailbox_peak));
    stats.mailbox_stalls_per_session.Add(static_cast<double>(res.stall_count));
  }
  round_stats_ = stats;

  // Graceful degradation: report every lost shard (this drain's and
  // earlier ones') after the healthy shards' results landed.
  std::string lost;
  for (const Worker& w : workers_) {
    if (!w.lost) continue;
    if (!lost.empty()) lost += "; ";
    lost += w.lost_reason;
  }
  if (!lost.empty()) throw std::runtime_error(lost);
}

void ClusterEngine::Shutdown() {
  // A degraded Wait (lost shards) still stops the healthy workers
  // gracefully below, then re-throws; a poisoned cluster propagates
  // immediately (the protocol state is not trustworthy).
  std::exception_ptr degraded;
  try {
    Wait();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (failed_) throw;
    }
    degraded = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopped_) {
      stopped_ = true;
      WireBuffer bye;
      bye.PutU8(kShutdown);
      // Ack waits are bounded by the liveness window: a worker hung
      // between its drain reply and the shutdown ack must not wedge
      // Shutdown (the SIGKILL-on-timeout below loses nothing — every
      // result already crossed).
      const TransportTuning& tt = options_.transport;
      const double ack_deadline_ms =
          (tt.heartbeat_interval_ms + tt.heartbeat_timeout_ms) *
          static_cast<double>(tt.heartbeat_miss_budget);
      for (size_t shard = 0; shard < workers_.size(); ++shard) {
        Worker& w = workers_[shard];
        if (w.lost) continue;
        // A worker dying between its drain reply and the shutdown ack
        // loses nothing — every result already crossed — so transport
        // failures here are tolerated, not recovered.
        if (SendToShard(shard, bye)) {
          std::vector<uint8_t> payload;
          bool acked = false;
          try {
            const IoStatus st = w.channel.RecvFrame(&payload, ack_deadline_ms);
            if (st == IoStatus::kDeadline) {
              ++stats_.deadline_hits;
              if (w.pid > 0 && !w.reaped) kill(w.pid, SIGKILL);
            }
            acked = st == IoStatus::kOk;
          } catch (const FrameError&) {
            ++stats_.checksum_failures;  // torn ack: tolerated
          }
          if (acked) {
            WireReader r(payload);
            const uint8_t type = r.GetU8();
            // kWorkerError here means an injected fault (or a real one)
            // hit the shutdown exchange itself; the worker is exiting
            // either way and its results already crossed — tolerated.
            if (type != kShutdownAck && type != kWorkerError) {
              failed_ = true;
              throw std::runtime_error(
                  ShardError(shard, "sent an invalid reply"));
            }
          }
        }
        HarvestChannelCounters(&w);
        w.channel.Close();
        w.heartbeat.Close();
        Reap(shard);
      }
    }
  }
  if (degraded) std::rethrow_exception(degraded);
}

const SessionFinalResult& ClusterEngine::ResultChecked(uint32_t id) const {
  if (id >= results_.size()) {
    throw std::out_of_range(
        "ClusterEngine: unknown session id (results are valid after Wait)");
  }
  return results_[id];
}

const SimMetrics& ClusterEngine::session_metrics(uint32_t id) const {
  return ResultChecked(id).metrics;
}

uint32_t ClusterEngine::session_po(uint32_t id) const {
  return ResultChecked(id).po;
}

bool ClusterEngine::session_has_result(uint32_t id) const {
  return ResultChecked(id).has_result;
}

void ClusterEngine::WithSessionResult(
    uint32_t id,
    const std::function<void(const SessionFinalResult&)>& fn) const {
  fn(ResultChecked(id));
}

SimMetrics ClusterEngine::TotalMetrics() const {
  SimMetrics total;
  for (const SessionFinalResult& res : results_) total.Merge(res.metrics);
  return total;
}

uint64_t ClusterEngine::ResultDigest() const {
  Fnv1a fnv;
  for (const SessionFinalResult& res : results_) {
    AddSessionResultToDigest(&fnv, res.metrics, res.has_result, res.po);
  }
  return fnv.hash;
}

ClusterEngine::RecoveryStats ClusterEngine::recovery_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RecoveryStats s = stats_;
  // stats_ holds the counters of channels already closed (harvested just
  // before each Close); live channels contribute on the fly.
  for (const Worker& w : workers_) {
    if (w.channel.valid()) s.retries += w.channel.counters().retries;
    if (w.heartbeat.valid()) s.retries += w.heartbeat.counters().retries;
  }
  return s;
}

MemoryStats ClusterEngine::memory_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MemoryStats total;
  for (const Worker& w : workers_) {
    total.spilled_sessions +=
        w.mem_base.spilled_sessions + w.last_mem.spilled_sessions;
    total.rehydrated_sessions +=
        w.mem_base.rehydrated_sessions + w.last_mem.rehydrated_sessions;
    total.spilled_bytes += w.mem_base.spilled_bytes + w.last_mem.spilled_bytes;
    total.peak_resident_bytes += std::max(w.mem_base.peak_resident_bytes,
                                          w.last_mem.peak_resident_bytes);
  }
  return total;
}

bool ClusterEngine::shard_lost(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  RequireShard(shard, "shard_lost");
  return started_ && workers_[shard].lost;
}

void ClusterEngine::KillWorkerForTest(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  RequireStarted();
  RequireShard(shard, "KillWorkerForTest");
  if (!workers_[shard].reaped && workers_[shard].pid > 0) {
    kill(workers_[shard].pid, SIGKILL);
  }
}

void ClusterEngine::StopWorkerForTest(size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  RequireStarted();
  RequireShard(shard, "StopWorkerForTest");
  if (!workers_[shard].reaped && workers_[shard].pid > 0) {
    kill(workers_[shard].pid, SIGSTOP);
  }
}

void ClusterEngine::InjectFaultAt(size_t shard, size_t at, FaultKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    throw std::logic_error(
        "ClusterEngine::InjectFaultAt must be called before Start");
  }
  RequireShard(shard, "InjectFaultAt");
  FaultPlan::Event event;
  event.shard = shard;
  event.at = at;
  event.kind = kind;
  fault_plan_.events.push_back(event);
}

void ClusterEngine::Reap(size_t shard) {
  Worker& w = workers_[shard];
  if (w.reaped || w.pid <= 0) return;
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(w.pid, &status, 0);
    if (r == w.pid) break;
    if (r < 0 && errno == EINTR) continue;  // interrupted: retry
    break;  // ECHILD: collected elsewhere (or pid gone) — nothing to do
  }
  w.reaped = true;
}

void ClusterEngine::TeardownWorkers() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Worker& w : workers_) {
    // SIGKILL unconditionally: this is the abnormal path (Shutdown is
    // the graceful one), and a SIGSTOPped worker would never notice the
    // channel EOF — the blocking reap below must not hang on it.
    if (!w.reaped && w.pid > 0) kill(w.pid, SIGKILL);
    w.channel.Close();
    w.heartbeat.Close();
  }
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    Reap(shard);
  }
}

}  // namespace mpn
