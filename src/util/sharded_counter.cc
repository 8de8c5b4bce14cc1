#include "util/sharded_counter.h"

namespace unicorn {

size_t CounterShard() {
  // Round-robin over threads in first-use order; the hot path is a
  // thread_local read.
  static std::atomic<size_t> next{0};
  static thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

}  // namespace unicorn
