#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <utility>

#include "obs/trace.h"

namespace unicorn {

namespace {

// Each participant claims about this many index ranges over a sweep: enough
// that uneven items even out across threads, few enough that the shared
// counter is touched a few hundred times, not once per item.
constexpr size_t kClaimsPerParticipant = 64;

// One ParallelFor call's shared state. Owned jointly by the caller and every
// helper task, so a helper that runs after the caller returned still has a
// live counter to find exhausted.
struct ParallelForBatch {
  const std::function<void(size_t)>* body = nullptr;
  size_t count = 0;
  size_t grain = 1;  // indices per claim
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t finished = 0;  // items completed, under mu

  // Claims contiguous ranges of `grain` indices and runs them until the
  // counter is exhausted. `body` is called only for a claimed item, and
  // every claimed item is finished before the caller may return, so it
  // never dangles. The fields are read once into locals: they share a cache
  // line with the contended counter.
  void Run() {
    const size_t n = count;
    const size_t g = grain;
    const std::function<void(size_t)>* const f = body;
    size_t ran = 0;
    for (size_t begin = next.fetch_add(g, std::memory_order_relaxed); begin < n;
         begin = next.fetch_add(g, std::memory_order_relaxed)) {
      const size_t end = std::min(n, begin + g);
      for (size_t i = begin; i < end; ++i) {
        (*f)(i);
      }
      ran += end - begin;
    }
    if (ran > 0) {
      std::lock_guard<std::mutex> lock(mu);
      finished += ran;
      if (finished == count) {
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int workers, std::string name) {
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, name, i] {
      // Trace-plane label, applied on the worker before it pulls work.
      if (!name.empty()) {
        obs::trace::SetThreadName(name + "/" + std::to_string(i));
      }
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

// Heap "less": the top is the highest priority, earliest submission on ties.
bool ThreadPool::TaskAfter(const QueuedTask& a, const QueuedTask& b) {
  if (a.priority != b.priority) {
    return a.priority < b.priority;
  }
  return a.seq > b.seq;
}

void ThreadPool::Submit(std::function<void()> task, int64_t priority) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(QueuedTask{priority, next_seq_++, std::move(task)});
    std::push_heap(tasks_.begin(), tasks_.end(), TaskAfter);
  }
  work_cv_.notify_one();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return tasks_.empty() && running_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stop requested and queue drained
      }
      std::pop_heap(tasks_.begin(), tasks_.end(), TaskAfter);
      task = std::move(tasks_.back().task);
      tasks_.pop_back();
      ++running_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0 && tasks_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& body) {
  if (workers_.empty() || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }
  auto batch = std::make_shared<ParallelForBatch>();
  batch->body = &body;
  batch->count = count;
  const size_t helpers = std::min(workers_.size(), count - 1);
  batch->grain = std::max<size_t>(1, count / ((helpers + 1) * kClaimsPerParticipant));
  for (size_t h = 0; h < helpers; ++h) {
    Submit([batch] { batch->Run(); }, std::numeric_limits<int64_t>::max());
  }
  batch->Run();  // the caller pulls items too
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&] { return batch->finished == count; });
}

}  // namespace unicorn
