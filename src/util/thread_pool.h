// One small fixed-size thread pool: a priority task queue over dedicated
// workers, plus a blocking parallel-for on top of it.
//
// Submit is the fire-and-forget side, under the shard pool's refreshes:
// it enqueues a task and returns immediately; completion is whatever side
// effect the task performs (the shard pool pushes a done event).
//
// ParallelFor is the fork-join side, built for the per-level edge sweep of
// the PC-stable skeleton search: the caller hands over `count` independent
// work items, the caller and the workers claim contiguous index ranges from
// a shared atomic counter, and ParallelFor returns once every item ran.
// Because the caller participates, ThreadPool(0) degenerates to an inline
// loop and a pool is always safe to use regardless of hardware.
#ifndef UNICORN_UTIL_THREAD_POOL_H_
#define UNICORN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace unicorn {

/// Workers pull the highest-priority queued task (FIFO among equal
/// priorities), concurrently across workers. Tasks must not throw: a task
/// that could fail must capture its own error (the shard pool wraps
/// refreshes in a catch-all and ships the std::exception_ptr through its
/// done queue).
/// Thread-safety: Submit, Drain and ParallelFor may be called from any
/// thread. The destructor drains outstanding tasks before joining.
class ThreadPool {
 public:
  /// Starts `workers` threads (negative counts as 0). A non-empty `name`
  /// labels worker i as "<name>/<i>" for the trace layer
  /// (obs::trace::SetThreadName), so spans recorded on pool threads land on
  /// named Perfetto tracks; it has no effect on execution.
  explicit ThreadPool(int workers, std::string name = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` and returns immediately. Higher `priority` runs first;
  /// ties run in submission order. No preemption: a long low-priority task
  /// already on a worker keeps it, so priority bounds queueing delay, not
  /// latency. The shard pool submits refreshes at minus-the-shard's-row-count
  /// (shortest-job-first) so a cheap refresh never convoys behind big ones.
  /// A pool without workers runs `task` inline before returning.
  void Submit(std::function<void()> task, int64_t priority = 0);

  /// Blocks until every task submitted so far has finished running. Must not
  /// be called from one of this pool's tasks (it would wait for itself).
  void Drain();

  /// Runs body(i) exactly once for every i in [0, count) on the calling
  /// thread plus every worker, and blocks until all items finished. Items
  /// run in unspecified order and concurrently; they must be independent,
  /// and body must not throw. Each thread claims contiguous index ranges,
  /// sized from `count` and the number of participating threads (about 64
  /// claims per thread), so neighbouring items, and whatever per-item
  /// output they write, mostly stay on one thread. Workers join through
  /// helper tasks (one per worker, at most count - 1) queued ahead of every
  /// other task; the caller waits only for items a helper actually claimed
  /// and runs every other item itself. So ParallelFor may be called from
  /// inside one of this pool's tasks (a busy pool just runs the items
  /// inline), and a helper that starts after the batch ended finds no item
  /// left and never touches `body`.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  struct QueuedTask {
    int64_t priority = 0;
    uint64_t seq = 0;  // submission order, the FIFO tie-break
    std::function<void()> task;
  };
  static bool TaskAfter(const QueuedTask& a, const QueuedTask& b);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: task available or shutdown
  std::condition_variable idle_cv_;  // Drain: queue empty and nothing running
  std::vector<QueuedTask> tasks_;    // max-heap: priority, then earliest seq
  uint64_t next_seq_ = 0;
  size_t running_ = 0;  // tasks currently executing on workers
  bool stop_ = false;
  // Declared last: workers start in the constructor and use everything above.
  std::vector<std::thread> workers_;
};

}  // namespace unicorn

#endif  // UNICORN_UTIL_THREAD_POOL_H_
