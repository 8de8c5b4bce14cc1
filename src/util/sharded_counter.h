// A counter that many threads bump on hot paths without sharing a cache line.
//
// Each counter keeps kCounterShards cache-line-padded cells. A thread takes
// its cell index once, on first use, in round-robin order over the process's
// threads, so the few threads of one parallel sweep land in different cells
// (a hash of the thread id would put two of four threads in one of eight
// cells more often than not). Updates are relaxed atomics: no lock, no fence.
// Value() sums the cells; it is exact once the writers are done, and
// otherwise not a consistent cut across concurrent writers.
#ifndef UNICORN_UTIL_SHARDED_COUNTER_H_
#define UNICORN_UTIL_SHARDED_COUNTER_H_

#include <atomic>
#include <cstddef>

namespace unicorn {

inline constexpr size_t kCounterShards = 8;
inline constexpr size_t kCacheLine = 64;

// The calling thread's cell index in [0, kCounterShards), fixed per thread.
size_t CounterShard();

class ShardedCounter {
 public:
  void Add(long long delta) {
    cells_[CounterShard()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  long long Value() const {
    long long total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  // Zeroes every cell; not linearizable against concurrent writers.
  void Reset() {
    for (Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLine) Cell {
    std::atomic<long long> value{0};
  };
  Cell cells_[kCounterShards];
};

}  // namespace unicorn

#endif  // UNICORN_UTIL_SHARDED_COUNTER_H_
