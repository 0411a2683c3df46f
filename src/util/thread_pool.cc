#include "util/thread_pool.h"

#include <algorithm>

#include "util/macros.h"

namespace mpn {

// The pool whose worker this thread is, and its index there (WorkerLoop).
static thread_local const ThreadPool* tl_pool = nullptr;
static thread_local size_t tl_worker = 0;

ThreadPool::ThreadPool(size_t threads) {
  const size_t count = std::max<size_t>(1, threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
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

size_t ThreadPool::CurrentWorker() const {
  MPN_ASSERT_MSG(tl_pool == this, "CurrentWorker off this pool's workers");
  return tl_worker;
}

void ThreadPool::WorkerLoop(size_t index) {
  tl_pool = this;
  tl_worker = index;
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

}  // namespace mpn
