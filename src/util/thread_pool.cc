#include "util/thread_pool.h"

#include <algorithm>

#include "util/macros.h"

namespace mpn {

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

}  // namespace mpn
