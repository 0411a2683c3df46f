#include "engine/engine.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/digest.h"
#include "engine/session_store.h"
#include "util/macros.h"

namespace mpn {

/// Adapts the thread pool to the core's VerifyExecutor interface.
/// ThreadPool::ParallelFor already guarantees the worker-count-independent
/// chunk layout the interface demands.
class Engine::PoolExecutor : public VerifyExecutor {
 public:
  explicit PoolExecutor(ThreadPool* pool) : pool_(pool) {}

  void Run(size_t n, size_t grain,
           const std::function<void(size_t, size_t)>& body) override {
    pool_->ParallelFor(n, grain, body);
  }

 private:
  ThreadPool* pool_;
};

Table EngineRoundStats::ToTable() const {
  Table table({"metric", "rounds", "mean", "min", "max", "total"});
  const auto row = [&table](const char* name, const RunningStat& s) {
    table.AddRow({name, std::to_string(s.count()), FormatDouble(s.Mean()),
                  FormatDouble(s.Min()), FormatDouble(s.Max()),
                  FormatDouble(s.Sum())});
  };
  row("messages/round", messages_per_round);
  row("recomputes/round", recomputes_per_round);
  row("seconds/round", round_seconds);
  row("mailbox_peak/session", mailbox_peak_per_session);
  row("mailbox_stalls/session", mailbox_stalls_per_session);
  return table;
}

Engine::Engine(const std::vector<Point>* pois, const PackedRTree* tree,
               const EngineOptions& options)
    : pois_(pois), tree_(tree), options_(options) {
  MPN_ASSERT(pois_ != nullptr && tree_ != nullptr);
  const size_t threads =
      options_.threads == 0 ? ThreadPool::HardwareThreads() : options_.threads;
  table_ = std::make_unique<SessionTable>();
  pool_ = std::make_unique<ThreadPool>(threads);
  executor_ = std::make_unique<PoolExecutor>(pool_.get());
  scheduler_ = std::make_shared<Scheduler>(pool_.get(), table_.get());
  scheduler_->set_crash_at_timestamp(options_.crash_at_timestamp);
  // An explicit cap wins; otherwise the MPN_MEMORY_BUDGET environment
  // variable arms spilling (so existing binaries/tests can cross the
  // out-of-core path unmodified).
  if (options_.budget.bytes_cap == 0) {
    options_.budget.bytes_cap =
        ParseMemoryBudgetBytes(std::getenv("MPN_MEMORY_BUDGET"));
  }
  session_sim_options_ = options_.sim;
  if (options_.parallel_verify) {
    session_sim_options_.server.verify_fanout.executor = executor_.get();
    session_sim_options_.server.verify_fanout.min_candidates =
        options_.verify_min_candidates;
  }
  store_ = std::make_unique<SessionStore>(
      options_.budget,
      [this](uint32_t id, const std::vector<const Trajectory*>& group,
             const SessionTuning& tuning) {
        return std::make_unique<GroupSession>(id, pois_, tree_, group,
                                              session_sim_options_, tuning,
                                              &run_timer_);
      });
  scheduler_->set_store(store_.get());
  // Under a budget, run each session to completion before the next one
  // rehydrates — digest-neutral (sessions are independent), but it turns
  // the spill pattern from one round trip per (session, timestamp) into
  // roughly one per session.
  scheduler_->set_locality_priority(store_->enabled());
}

Engine::~Engine() {
  // Drain in-flight work (ignoring admission holds) so no event chain
  // re-posts into the pool while its destructor joins the workers.
  if (started_.load(std::memory_order_acquire)) {
    scheduler_->WaitIdle(/*ignore_holds=*/true);
  }
}

SessionRecord* Engine::FindChecked(uint32_t id) const {
  SessionRecord* r = table_->Find(id);
  MPN_ASSERT_MSG(r != nullptr, "unknown session id");
  return r;
}

uint32_t Engine::AdmitSession(std::vector<const Trajectory*> group,
                              const SessionTuning& tuning) {
  if (stopped_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "Engine::AdmitSession on a finished engine (Run/Shutdown already "
        "returned)");
  }
  const uint32_t id = table_->ReserveId();
  auto session = std::make_unique<GroupSession>(
      id, pois_, tree_, group, session_sim_options_, tuning, &run_timer_);
  auto record = std::make_unique<SessionRecord>(id, std::move(group), tuning,
                                                std::move(session));
  SessionRecord* r = table_->Insert(std::move(record));
  // Schedules and charges the new session (a zero-horizon one finalizes
  // and compacts inside Admit instead); then evict whatever no longer fits.
  scheduler_->Admit(r);
  store_->Rebalance();
  return id;
}

void Engine::RetireSession(uint32_t id, size_t at_timestamp) {
  SessionRecord* r = FindChecked(id);
  std::lock_guard<std::mutex> lock(r->mu);
  if (r->session != nullptr) {
    r->session->RequestRetire(at_timestamp);
    return;
  }
  if (r->finalized) return;  // already done — retirement is a no-op
  // Spilled live session: remember the earliest request; the store
  // applies it on rehydration, before the next event runs.
  if (at_timestamp < r->pending_retire_at) r->pending_retire_at = at_timestamp;
}

void Engine::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error("Engine::Run/Start may be called once");
  }
  run_timer_.Reset();
  scheduler_->Start();
}

void Engine::Wait() {
  if (!started_.load(std::memory_order_acquire)) {
    throw std::logic_error("Engine::Wait before Run/Start");
  }
  scheduler_->WaitIdle();
  const std::string error = scheduler_->error();
  if (!error.empty()) throw std::runtime_error(error);
  RebuildRoundStats();
}

void Engine::Shutdown() {
  Wait();
  stopped_.store(true, std::memory_order_release);
}

void Engine::Run() {
  Start();
  Shutdown();
}

void Engine::RebuildRoundStats() {
  EngineRoundStats stats;
  for (const Scheduler::Slot& slot : scheduler_->SnapshotSlots()) {
    stats.messages_per_round.Add(static_cast<double>(slot.messages));
    stats.recomputes_per_round.Add(static_cast<double>(slot.recomputes));
    stats.round_seconds.Add(slot.seconds);
    ++stats.rounds;
  }
  const Scheduler::MailboxMarks marks = scheduler_->SnapshotMailboxMarks();
  stats.mailbox_peak_per_session = marks.peak;
  stats.mailbox_stalls_per_session = marks.stalls;
  round_stats_ = stats;
}

SimMetrics Engine::TotalMetrics() const {
  SimMetrics total;
  table_->ForEachOrdered([&total, this](SessionRecord* r) {
    store_->WithResult(r, [&total](const SessionFinalResult& fr) {
      total.Merge(fr.metrics);
    });
  });
  return total;
}

uint64_t Engine::ResultDigest() const {
  Fnv1a fnv;
  table_->ForEachOrdered([&fnv, this](SessionRecord* r) {
    store_->WithResult(r, [&fnv](const SessionFinalResult& fr) {
      AddSessionResultToDigest(&fnv, fr.metrics, fr.has_result, fr.po);
    });
  });
  return fnv.hash;
}

// --- legacy per-session accessors -----------------------------------------
//
// The by-value accessors stream through the store (no pinning); the
// by-reference ones must hand out pointers into the record's state, so
// they rehydrate-and-pin: the session stays resident for the rest of the
// run. Budget-friendly iteration goes through WithSessionResult instead.

const SimMetrics& Engine::session_metrics(uint32_t id) const {
  SessionRecord* r = FindChecked(id);
  const SimMetrics* out = nullptr;
  {
    std::lock_guard<std::mutex> lock(r->mu);
    store_->EnsureResidentLocked(r, /*pin=*/true);
    out = r->final_result != nullptr ? &r->final_result->metrics
                                     : &r->session->metrics();
  }
  store_->Rebalance();  // pinning may have pushed residency over the cap
  return *out;
}

const std::vector<double>& Engine::session_advance_seconds(uint32_t id) const {
  SessionRecord* r = FindChecked(id);
  const std::vector<double>* out = nullptr;
  {
    std::lock_guard<std::mutex> lock(r->mu);
    store_->EnsureResidentLocked(r, /*pin=*/true);
    out = r->final_result != nullptr ? &r->final_result->advance_seconds
                                     : &r->session->advance_seconds();
  }
  store_->Rebalance();
  return *out;
}

uint32_t Engine::session_po(uint32_t id) const {
  uint32_t po = 0;
  store_->WithResult(FindChecked(id),
                     [&po](const SessionFinalResult& fr) { po = fr.po; });
  return po;
}

bool Engine::session_has_result(uint32_t id) const {
  bool has = false;
  store_->WithResult(
      FindChecked(id),
      [&has](const SessionFinalResult& fr) { has = fr.has_result; });
  return has;
}

size_t Engine::session_mailbox_peak(uint32_t id) const {
  size_t peak = 0;
  store_->WithResult(
      FindChecked(id),
      [&peak](const SessionFinalResult& fr) { peak = fr.mailbox_peak; });
  return peak;
}

size_t Engine::session_stall_count(uint32_t id) const {
  size_t stalls = 0;
  store_->WithResult(
      FindChecked(id),
      [&stalls](const SessionFinalResult& fr) { stalls = fr.stall_count; });
  return stalls;
}

void Engine::WithSessionResult(
    uint32_t id,
    const std::function<void(const SessionFinalResult&)>& fn) const {
  store_->WithResult(FindChecked(id), fn);
}

MemoryStats Engine::memory_stats() const { return store_->stats(); }

}  // namespace mpn
