#include "engine/engine.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "engine/digest.h"
#include "engine/session_store.h"
#include "util/macros.h"

namespace mpn {

EngineRoundStats EngineRoundStats::FromSlots(
    const std::vector<Scheduler::Slot>& slots) {
  EngineRoundStats stats;
  for (const Scheduler::Slot& slot : slots) {
    stats.messages_per_round.Add(static_cast<double>(slot.messages));
    stats.recomputes_per_round.Add(static_cast<double>(slot.recomputes));
    stats.round_seconds.Add(slot.seconds);
    ++stats.rounds;
  }
  return stats;
}

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
  // The factory reads options_.sim, so mid-run rehydration rebuilds
  // sessions with exactly the admission-time options.
  store_ = std::make_unique<SessionStore>(
      options_.budget,
      [this](uint32_t id, const std::vector<const Trajectory*>& group,
             const SessionTuning& tuning) {
        return std::make_unique<GroupSession>(id, pois_, tree_, group,
                                              options_.sim, tuning,
                                              &run_timer_);
      });
  scheduler_ =
      std::make_shared<Scheduler>(pool_.get(), table_.get(), store_.get());
  scheduler_->set_crash_at_timestamp(options_.crash_at_timestamp);
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
  if (r == nullptr) throw std::out_of_range("Engine: unknown session id");
  return r;
}

uint32_t Engine::AdmitSession(std::vector<const Trajectory*> group,
                              const SessionTuning& tuning) {
  if (stopped_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "Engine::AdmitSession on a finished engine (Shutdown already "
        "returned)");
  }
  ValidateAdmission(group, tuning);
  const uint32_t id = table_->ReserveId();
  auto session = std::make_unique<GroupSession>(
      id, pois_, tree_, group, options_.sim, tuning, &run_timer_);
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
    throw std::logic_error("Engine::Start may be called once");
  }
  run_timer_.Reset();
  scheduler_->Start();
}

void Engine::Wait() {
  if (!started_.load(std::memory_order_acquire)) {
    throw std::logic_error("Engine::Wait before Start");
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

void Engine::RebuildRoundStats() {
  EngineRoundStats stats =
      EngineRoundStats::FromSlots(scheduler_->SnapshotSlots());
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

void Engine::WithSessionResult(
    uint32_t id,
    const std::function<void(const SessionFinalResult&)>& fn) const {
  store_->WithResult(FindChecked(id), fn);
}

MemoryStats Engine::memory_stats() const { return store_->stats(); }

}  // namespace mpn
