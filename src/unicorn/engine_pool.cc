#include "unicorn/engine_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace unicorn {

namespace {

// Entry budget of the shared CI cache before coarse eviction kicks in
// (~80 bytes/entry, so it stays near 20 MB). Entries are pure memoization,
// so eviction costs re-evaluation, never correctness.
constexpr size_t kSharedCacheEntries = 1 << 18;

// Process-wide shard-pool instruments (see FleetMetrics for the pattern).
struct PoolMetrics {
  obs::Counter* refreshes;
  obs::Counter* refresh_batches;
  obs::Gauge* running_refreshes;
  obs::Histogram* refresh_seconds;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return PoolMetrics{registry.Counter("pool.refreshes"),
                       registry.Counter("pool.refresh_batches"),
                       registry.Gauge("pool.running_refreshes"),
                       registry.Histogram("pool.refresh_seconds")};
  }();
  return metrics;
}

}  // namespace

EngineShardPool::EngineShardPool(std::vector<Variable> variables, ShardPoolOptions options)
    : variables_(std::move(variables)),
      options_(std::move(options)),
      shared_cache_(kSharedCacheEntries) {}

size_t EngineShardPool::ShardForGroup(const std::string& group) {
  const auto it = group_index_.find(group);
  if (it != group_index_.end()) {
    return it->second;
  }
  const size_t index = shards_.size();
  shards_.push_back(
      std::make_unique<CausalModelEngine>(variables_, options_.model, options_.engine));
  // All shards consult one process-wide CI cache (fingerprint-keyed; see
  // stats/ci_cache.h). Sharing kicks in lazily, from the second shard on: a
  // lone shard runs uncached, because with nobody to share with the
  // process-wide cache would only accumulate unreachable entries.
  if (shards_.size() >= 2) {
    shards_.back()->ShareCICache(&shared_cache_, static_cast<uint32_t>(index));
    if (shards_.size() == 2) {
      shards_.front()->ShareCICache(&shared_cache_, 0);
    }
  }
  group_index_.emplace(group, index);
  return index;
}

void EngineShardPool::RefreshShards(std::vector<size_t> shards, uint64_t seed) {
  if (PendingAsyncRefreshes() > 0) {
    throw std::logic_error("EngineShardPool::RefreshShards: asynchronous refreshes outstanding");
  }
  // Dedup (two policies of one group may both mark their shard dirty) and
  // drop empty shards — a refresh needs at least one row.
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  shards.erase(std::remove_if(shards.begin(), shards.end(),
                              [&](size_t s) { return shard(s).data().NumRows() == 0; }),
               shards.end());
  if (shards.empty()) {
    return;
  }

  using Clock = std::chrono::steady_clock;
  obs::trace::Span span("pool.refresh_batch", "pool");
  span.SetArg("shards", static_cast<double>(shards.size()));
  Metrics().refresh_batches->Increment();
  const auto start = Clock::now();
  const size_t width = static_cast<size_t>(std::max(1, options_.refresh_threads));
  if (shards.size() == 1 || width == 1) {
    for (const size_t s : shards) {
      shard(s).Refresh(seed);
    }
  } else {
    // Engines are mutually independent and the shared cache is concurrent,
    // so the only cross-shard coupling is memoization — pure, deterministic
    // reuse. The token is the shard's batch position, so the rethrown error
    // is the first in shard order whatever order the refreshes finish in.
    for (size_t i = 0; i < shards.size(); ++i) {
      StartRefreshAsync(shards[i], seed, i);
    }
    std::vector<std::exception_ptr> errors(shards.size());
    ShardRefreshDone done;
    while (WaitRefreshDone(&done)) {
      errors[done.token] = done.error;
    }
    for (const std::exception_ptr& error : errors) {
      if (error != nullptr) {
        std::rethrow_exception(error);
      }
    }
  }
  ++refresh_batches_;
  // Observed concurrency is the batch width clamped to the workers that
  // actually ran it — a serial pool refreshing 16 dirty shards must report
  // 1, not 16, or the bench's no-serialization acceptance check would pass
  // on a regressed (serialized) refresh path.
  max_concurrent_ = std::max(max_concurrent_, std::min(shards.size(), width));
  batch_wall_seconds_ += std::chrono::duration<double>(Clock::now() - start).count();
}

void EngineShardPool::StartRefreshAsync(size_t shard_index, uint64_t seed, uint64_t token) {
  if (refresh_pool_ == nullptr) {
    refresh_pool_ = std::make_unique<ThreadPool>(std::max(1, options_.refresh_threads), "refresh");
  }
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    if (!busy_shards_.insert(shard_index).second) {
      throw std::logic_error(
          "EngineShardPool::StartRefreshAsync: the shard's refresh is outstanding");
    }
  }
  // Shortest-job-first: refresh cost grows superlinearly with the shard's
  // row count, so small shards jump the queue. Without this, a light
  // tenant's millisecond refresh convoys behind multi-second refreshes of
  // big shards and its policy (plus the fleet capacity it was feeding)
  // stalls for the whole backlog. Cross-shard dispatch order carries no
  // semantics — a shard has at most one refresh outstanding.
  const int64_t priority = -static_cast<int64_t>(shard(shard_index).data().NumRows());
  refresh_pool_->Submit(
      [this, shard_index, seed, token] { RunAsyncRefresh(shard_index, seed, token); },
      priority);
}

void EngineShardPool::RunAsyncRefresh(size_t shard_index, uint64_t seed, uint64_t token) {
  using Clock = std::chrono::steady_clock;
  const std::atomic<size_t>* gauge = nullptr;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    ++async_running_;
    // Every running job is a distinct shard (one outstanding refresh per
    // shard), i.e. a distinct objective group: the gauge high-water mark IS
    // the widest cross-policy refresh batch.
    widest_async_ = std::max(widest_async_, async_running_);
    gauge = in_flight_gauge_;
  }
  const bool overlapped_at_start =
      gauge != nullptr && gauge->load(std::memory_order_relaxed) > 0;
  Metrics().running_refreshes->Add(1.0);
  obs::trace::Begin("pool.refresh", "pool");
  const auto start = Clock::now();
  ShardRefreshDone done;
  done.shard = shard_index;
  done.token = token;
  // Engine-internal refresh seconds for this job (0 for an empty-shard
  // skip). This, not the job's wall time, is what the overlap ledger
  // credits: wall also contains dispatch overhead outside the refresh,
  // which used to nudge overlap_seconds past the summed
  // refresh_seconds it is a fraction of (overlap_fraction 1.0000004).
  double engine_seconds = 0.0;
  try {
    CausalModelEngine& engine = shard(shard_index);
    if (engine.data().NumRows() > 0) {  // RefreshShards' empty-shard guard
      const double before = engine.stats().total_seconds;
      engine.Refresh(seed);
      engine_seconds = engine.stats().total_seconds - before;
    }
  } catch (...) {
    done.error = std::current_exception();
  }
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const bool overlapped_at_end =
      gauge != nullptr && gauge->load(std::memory_order_relaxed) > 0;
  const double overlap_credit =
      (overlapped_at_start ? 0.5 : 0.0) + (overlapped_at_end ? 0.5 : 0.0);
  // The span carries the ledger's own trapezoid sample: overlap_credit is
  // the fraction of this refresh counted as hidden behind in-flight
  // measurement — scaled by engine-seconds-over-wall so that sum(dur *
  // overlap_credit) over "pool.refresh" spans in a trace REPRODUCES
  // ShardPoolStats::overlap_seconds — the overlap ledger as derived trace
  // data (tools/trace_report recomputes it; the pipeline bench gates the
  // two against each other).
  obs::trace::End("overlap_credit",
                  wall > 0.0 ? overlap_credit * engine_seconds / wall : 0.0, "shard",
                  static_cast<double>(shard_index));
  Metrics().running_refreshes->Add(-1.0);
  Metrics().refreshes->Increment();
  Metrics().refresh_seconds->Record(wall);

  {
    std::lock_guard<std::mutex> lock(async_mu_);
    --async_running_;
    // Trapezoid sample of "refresh time hidden behind in-flight
    // measurement": full credit when measurements were in flight at both
    // ends of the refresh, half when only at one. Credits engine-internal
    // refresh seconds so the ledger can never exceed the refresh_seconds
    // aggregate it is reported as a fraction of.
    overlap_seconds_ += engine_seconds * overlap_credit;
    async_done_.push_back(std::move(done));
  }
  async_cv_.notify_all();
}

void EngineShardPool::PopRefreshDone(ShardRefreshDone* out) {
  *out = std::move(async_done_.front());
  async_done_.pop_front();
  busy_shards_.erase(out->shard);
}

bool EngineShardPool::TryPopRefreshDone(ShardRefreshDone* out) {
  std::lock_guard<std::mutex> lock(async_mu_);
  if (async_done_.empty()) {
    return false;
  }
  PopRefreshDone(out);
  return true;
}

bool EngineShardPool::WaitRefreshDone(ShardRefreshDone* out) {
  std::unique_lock<std::mutex> lock(async_mu_);
  if (busy_shards_.empty()) {
    return false;
  }
  async_cv_.wait(lock, [&] { return !async_done_.empty(); });
  PopRefreshDone(out);
  return true;
}

size_t EngineShardPool::PendingAsyncRefreshes() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  return busy_shards_.size();
}

void EngineShardPool::DrainAsyncRefreshes() {
  ShardRefreshDone discarded;
  while (WaitRefreshDone(&discarded)) {
  }
}

void EngineShardPool::SetInFlightGauge(const std::atomic<size_t>* gauge) {
  std::lock_guard<std::mutex> lock(async_mu_);
  in_flight_gauge_ = gauge;
}

ShardPoolStats EngineShardPool::stats() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  if (!busy_shards_.empty()) {
    throw std::logic_error("EngineShardPool::stats: asynchronous refreshes outstanding");
  }
  ShardPoolStats stats;
  stats.shards = shards_.size();
  for (const auto& shard : shards_) {
    const EngineStats& s = shard->stats();
    stats.refreshes += s.refreshes;
    stats.tests_requested += s.total_tests_requested;
    stats.tests_evaluated += s.total_tests_evaluated;
    stats.cache_hits += s.total_cache_hits;
    stats.cross_shard_hits += s.total_cross_shard_hits;
    stats.refresh_seconds += s.total_seconds;
  }
  stats.refresh_batches = refresh_batches_;
  stats.max_concurrent_refreshes = max_concurrent_;
  stats.batch_wall_seconds = batch_wall_seconds_;
  stats.widest_cross_policy_batch = widest_async_;
  // Overlap is a sub-portion of the summed refresh time by construction
  // (the ledger credits engine-internal seconds, each weighted <= 1).
  // Rounding in the per-shard float sums can still leave the aggregate a
  // few ulps past the bound, so clamp the report; anything beyond rounding
  // is a real accounting bug.
  assert(overlap_seconds_ <= stats.refresh_seconds * (1.0 + 1e-9) &&
         "overlap ledger exceeds summed refresh seconds");
  stats.overlap_seconds = std::min(overlap_seconds_, stats.refresh_seconds);
  return stats;
}

}  // namespace unicorn
