#include "util/thread_pool.h"

#include <atomic>
#include <algorithm>

#include "util/macros.h"

namespace mpn {

/// Shared state of one ParallelFor call. Lives in a shared_ptr because
/// helper tasks may still sit in the queue after the call returned (they
/// become no-ops once every chunk is claimed).
struct ThreadPool::ForState {
  size_t n = 0;
  size_t grain = 1;
  size_t chunk_count = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  std::atomic<size_t> next_chunk{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t done = 0;                          // finished chunks (guarded by mu)
  std::vector<std::exception_ptr> errors;   // per chunk, guarded by mu
};

ThreadPool::ThreadPool(size_t threads) {
  const size_t count = std::max<size_t>(1, threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Post(TaskFn fn, void* a, void* b, uint64_t priority) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MPN_ASSERT_MSG(!stop_, "Post on a stopped ThreadPool");
    queue_.push(Task{priority, next_seq_++, fn, a, b});
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task{};
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = queue_.top();
      queue_.pop();
    }
    task.fn(task.a, task.b);
  }
}

void ThreadPool::DrainChunks(const std::shared_ptr<ForState>& state) {
  for (;;) {
    const size_t chunk =
        state->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= state->chunk_count) return;
    const size_t begin = chunk * state->grain;
    const size_t end = std::min(state->n, begin + state->grain);
    std::exception_ptr error;
    try {
      (*state->body)(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->errors[chunk] = error;
      if (++state->done == state->chunk_count) state->done_cv.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  MPN_ASSERT(grain >= 1);
  if (n == 0) return;
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->grain = grain;
  state->chunk_count = (n + grain - 1) / grain;
  state->body = &body;
  state->errors.resize(state->chunk_count);

  // One chunk: no sharing worth the synchronization.
  if (state->chunk_count == 1) {
    body(0, n);
    return;
  }

  // Helper tasks race the caller and each other for chunks; late-running
  // ones no-op. Urgent priority: the chunks are sub-work of a caller that
  // is already executing, so they must not queue behind unrelated tasks.
  const size_t helpers = std::min(workers_.size(), state->chunk_count - 1);
  for (size_t i = 0; i < helpers; ++i) {
    PostBoxed([state]() { DrainChunks(state); }, kUrgentPriority);
  }
  DrainChunks(state);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(
        lock, [&state]() { return state->done == state->chunk_count; });
  }
  for (const std::exception_ptr& e : state->errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace mpn
