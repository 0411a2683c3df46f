// Fixed-size thread pool for the concurrent server engine.
//
// One execution primitive: Post(fn, a, b, priority) enqueues a
// fire-and-forget call fn(a, b) into a priority queue (smaller priority
// value runs first; equal priorities run in submission order). A queue
// entry is a plain function pointer plus its two argument pointers, so
// posting allocates nothing: the event-driven scheduler posts every session
// event and recomputation this way. `fn` is noexcept by type — a task that
// can fail catches inside its body, where it knows what failed (the
// scheduler records the session's error for Engine::Wait).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace mpn {

/// Fixed-size worker pool. Threads are started in the constructor and
/// joined in the destructor; tasks still queued at destruction are drained
/// before shutdown completes.
class ThreadPool {
 public:
  /// A posted task: called once as fn(a, b) on a worker.
  using TaskFn = void (*)(void* a, void* b) noexcept;

  /// Starts `threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t threads);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t thread_count() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

  /// Enqueues the call fn(a, b). Smaller `priority` runs first; ties run in
  /// submission order. Allocates nothing beyond the queue's own growth.
  void Post(TaskFn fn, void* a, void* b, uint64_t priority);

  /// Index in [0, thread_count()) of the worker running the caller, so a
  /// task can write per-worker state without a lock. Asserts that the
  /// caller is one of this pool's workers.
  size_t CurrentWorker() const;

 private:
  /// One queued task with its ordering key: trivially copyable, so the
  /// heap moves 40-byte entries and never runs a destructor.
  struct Task {
    uint64_t priority;
    uint64_t seq;
    TaskFn fn;
    void* a;
    void* b;
  };
  static_assert(std::is_trivially_copyable_v<Task> && sizeof(Task) <= 40);
  /// Min-heap order: smallest (priority, seq) on top.
  struct TaskOrder {
    bool operator()(const Task& a, const Task& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  void WorkerLoop(size_t index);

  std::vector<std::thread> workers_;
  std::priority_queue<Task, std::vector<Task>, TaskOrder> queue_;
  uint64_t next_seq_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mpn
