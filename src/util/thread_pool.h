// Fixed-size thread pool for the concurrent server engine.
//
// Three execution primitives:
//
//  * Post(fn, a, b, priority) — enqueues a fire-and-forget call fn(a, b)
//    into a priority queue (smaller priority value runs first; equal
//    priorities run in submission order). A queue entry is a plain
//    function pointer plus its two argument pointers, so posting
//    allocates nothing: the event-driven scheduler posts every session
//    event and recomputation this way. `fn` is noexcept by type — a task
//    that can fail catches inside its body, where it knows what failed
//    (the scheduler records the session's error for Engine::Wait).
//  * Submit(fn)     — enqueues a task at the default priority and returns a
//    std::future for its result; exceptions thrown by the task propagate
//    through the future.
//  * ParallelFor    — partitions [0, n) into fixed-size chunks and runs a
//    body over each, using the pool AND the calling thread. The chunk
//    layout depends only on (n, grain), never on the worker count, so any
//    per-chunk accumulation a caller merges in chunk order is bit-identical
//    across thread counts. The caller claims chunks itself while it waits,
//    so nested ParallelFor calls from inside pool tasks cannot deadlock
//    even when every worker is busy: a saturated pool degrades to the
//    caller running all chunks inline. Helper tasks run at kUrgentPriority
//    so a ParallelFor issued from inside a running task is never starved
//    by queued work.
//
// Submit and the ParallelFor helpers box their callable in one heap object
// each and post a trampoline that runs and frees it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mpn {

/// Fixed-size worker pool. Threads are started in the constructor and
/// joined in the destructor; tasks still queued at destruction are drained
/// before shutdown completes.
class ThreadPool {
 public:
  /// Runs before anything else in the queue (ParallelFor helpers: sub-work
  /// of a job that is already executing).
  static constexpr uint64_t kUrgentPriority = 0;
  /// Priority of plain Submit calls; prioritized work should sort below
  /// this to preempt the default lane.
  static constexpr uint64_t kDefaultPriority = uint64_t{1} << 63;

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
  void Post(TaskFn fn, void* a, void* b, uint64_t priority = kDefaultPriority);

  /// Enqueues `fn` at the default priority and returns a future for its
  /// result. Exceptions thrown by the task are rethrown by future::get.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> future = task.get_future();
    PostBoxed(std::move(task), kDefaultPriority);
    return future;
  }

  /// Runs body(begin, end) over every chunk [k*grain, min(n, (k+1)*grain))
  /// of [0, n). Blocks until all chunks completed. The first exception
  /// (lowest chunk index) is rethrown here. `grain` must be >= 1. The
  /// calling thread claims chunks alongside the workers, which is what
  /// makes calls from inside a pool task (nested ones included)
  /// deadlock-free.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

 private:
  struct ForState;  // shared chunk-claiming state of one ParallelFor

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

  /// Posts a heap-allocated copy of `fn`; the trampoline runs and frees it.
  /// `fn` must not throw.
  template <typename F>
  void PostBoxed(F&& fn, uint64_t priority) {
    using Box = std::decay_t<F>;
    Post(
        [](void* box, void*) noexcept {
          const std::unique_ptr<Box> owned(static_cast<Box*>(box));
          (*owned)();
        },
        new Box(std::forward<F>(fn)), nullptr, priority);
  }

  void WorkerLoop();
  /// Claims and runs chunks until none remain. Returns once every chunk is
  /// claimed (not necessarily finished).
  static void DrainChunks(const std::shared_ptr<ForState>& state);

  std::vector<std::thread> workers_;
  std::priority_queue<Task, std::vector<Task>, TaskOrder> queue_;
  uint64_t next_seq_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace mpn
