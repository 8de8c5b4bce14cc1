// Small fixed-size thread pools: a blocking parallel-for (ThreadPool) and a
// fire-and-forget task queue (TaskPool).
//
// ThreadPool was built for the per-level edge sweep of the PC-stable skeleton
// search: the caller hands over `count` independent work items, workers pull
// indices from a shared atomic counter, and ParallelFor returns once every
// item ran. The calling thread participates, so ThreadPool(1) degenerates to
// an inline loop and a pool is always safe to use regardless of hardware.
//
// TaskPool is the asynchronous sibling under the campaign scheduler's shard
// refreshes: Submit enqueues a task and returns immediately; completion is
// whatever side effect the task performs (the shard pool pushes a done event).
#ifndef UNICORN_UTIL_THREAD_POOL_H_
#define UNICORN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace unicorn {

/// Snapshot of the CPU resources actually available to this process: the
/// affinity mask (cgroup- and taskset-aware), the distinct physical cores
/// behind it, and whether hyperthread siblings share those cores.
struct CpuTopology {
  int logical_cpus = 0;       // CPUs in the process affinity mask
  int physical_cores = 0;     // distinct (package, core) pairs; 0 = unknown
  bool smt_siblings = false;  // some physical core backs >1 allowed CPU
  /// Lowest-numbered allowed logical CPU of each distinct physical core, in
  /// CPU-id order — the pin targets that never straddle hyperthread siblings.
  std::vector<int> core_leaders;
};

/// Reads the process affinity mask and sysfs core/package ids. Cheap enough
/// to call at every pool construction; no caching. Non-Linux builds report
/// hardware_concurrency with unknown core structure.
CpuTopology DetectCpuTopology();

/// Pin targets for a pool that will run `total_threads` busy threads, or
/// empty when the pool should not pin at all. Pinning only pays off when
/// every pool thread can own a whole physical core: if the core structure is
/// unknown, or `total_threads` exceeds the distinct physical cores (the pool
/// would oversubscribe, and a pinned thread cannot migrate away from the
/// contention it causes — the failure mode behind the measured
/// sweep_rt4_pinned regression on small containers), the plan is empty and
/// the pool falls back to OS scheduling. Otherwise the plan is one logical
/// CPU per physical core (`core_leaders`), so pinned threads never share a
/// core with each other's hyperthread sibling.
std::vector<int> PlanPinning(const CpuTopology& topo, int total_threads);

/// Shared knobs of both pool flavors. Plain value type.
struct ThreadPoolOptions {
  /// ThreadPool: workers + the calling thread; TaskPool: worker count.
  int num_threads = 1;
  /// Pin each worker to one CPU via the OS affinity call, following
  /// PlanPinning above: topology is detected at pool construction and the
  /// request is silently skipped when the pool would oversubscribe the
  /// physical cores or the topology is unreadable (pinned_workers() reports
  /// what actually happened). Best-effort and off by default: pinning helps
  /// steady refresh sweeps on large hosts but hurts whenever the pool shares
  /// cores with other busy threads. Non-Linux builds ignore it.
  bool pin_threads = false;
  /// Observability label for the pool's workers: worker i registers as
  /// "<name>/<i>" with the trace layer (obs::trace::SetThreadName), so spans
  /// recorded on pool threads land on named Perfetto tracks. Empty = workers
  /// stay unnamed. No effect on execution.
  std::string name;
};

class ThreadPool {
 public:
  using Options = ThreadPoolOptions;

  // `num_threads` <= 1 keeps no worker threads (ParallelFor runs inline).
  explicit ThreadPool(int num_threads);
  explicit ThreadPool(const Options& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs body(i) for every i in [0, count). Blocks until all items finished.
  // The body must not call ParallelFor on the same pool. Items run in
  // unspecified order and concurrently; they must be independent.
  void ParallelFor(size_t count, const std::function<void(size_t)>& body);

  // Worker threads plus the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Workers actually pinned (0 when pin_threads was off or PlanPinning
  // declined; the caller thread is never pinned).
  int pinned_workers() const { return pinned_workers_; }

 private:
  void WorkerLoop();
  void RunBatch();

  int pinned_workers_ = 0;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new batch or shutdown
  std::condition_variable done_cv_;   // caller: batch finished
  const std::function<void(size_t)>* body_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
  size_t active_ = 0;       // workers still inside the current batch
  uint64_t generation_ = 0;  // bumped per batch so workers never re-run one
  bool stop_ = false;
};

/// Fire-and-forget task queue over dedicated workers (the calling thread
/// never participates — that is the point: the caller stays free to service
/// its own event loop while tasks run). Workers pull the highest-priority
/// queued task (FIFO among equal priorities), concurrently across workers.
/// Tasks must not throw: a task that could fail must capture its own error
/// (the shard pool wraps refreshes in a catch-all and ships the
/// std::exception_ptr through its done queue).
/// Thread-safety: Submit/Drain may be called from any thread. The destructor
/// drains outstanding tasks before joining.
class TaskPool {
 public:
  using Options = ThreadPoolOptions;

  /// At least one worker is always kept, so Submit never runs inline.
  explicit TaskPool(const Options& options);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `task` and returns immediately. Higher `priority` runs first;
  /// ties run in submission order. No preemption: a long low-priority task
  /// already on a worker keeps it, so priority bounds queueing delay, not
  /// latency. The shard pool submits refreshes at minus-the-shard's-row-count
  /// (shortest-job-first) so a cheap refresh never convoys behind big ones.
  void Submit(std::function<void()> task, int64_t priority = 0);

  /// Blocks until every task submitted so far has finished running.
  void Drain();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Workers actually pinned (0 when pin_threads was off or PlanPinning
  /// declined).
  int pinned_workers() const { return pinned_workers_; }

 private:
  void WorkerLoop();

  int pinned_workers_ = 0;

  struct QueuedTask {
    int64_t priority = 0;
    uint64_t seq = 0;  // submission order, the FIFO tie-break
    std::function<void()> task;
  };
  static bool TaskAfter(const QueuedTask& a, const QueuedTask& b);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: task available or shutdown
  std::condition_variable idle_cv_;  // Drain: queue empty and nothing running
  std::vector<QueuedTask> tasks_;    // max-heap: priority, then earliest seq
  uint64_t next_seq_ = 0;
  size_t running_ = 0;  // tasks currently executing on workers
  bool stop_ = false;
};

}  // namespace unicorn

#endif  // UNICORN_UTIL_THREAD_POOL_H_
