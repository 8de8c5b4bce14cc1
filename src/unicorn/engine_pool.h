// The sharded reasoning plane: per-objective-group CausalModelEngine shards
// over one shared, concurrent CI-result cache.
//
// PR 2-4 scaled the *experiment* plane (batched broker, backend fleet,
// recorded-transfer replay); this layer scales the *reasoning* plane. A
// many-policy campaign used to serialize every policy on one shared engine —
// one table, one refresh per round — so adding policies made each policy's
// rounds slower. The pool instead assigns policies to objective groups, each
// group owns its own engine shard (its own table, streaming moments,
// warm-start state, per-shard EngineStats), and dirty shards refresh *in
// parallel* on the pool's util/thread_pool.
//
// What stays shared is the CI-result cache: all shards consult one
// process-wide CICache keyed on each shard's table fingerprint, so shards
// whose tables are bit-identical at refresh time (transfer campaigns seeded
// from the same source recording, replicated policies absorbing a common
// bootstrap) reuse each other's p-values. Cross-shard hits are accounted
// separately from shard-local ones, so "the shared cache bought X% of the
// tests" is a reportable number, not a belief.
//
// Determinism contract: a shard's refresh is the exact same computation a
// standalone engine would run — the shared cache is pure memoization of a
// deterministic test, so shard results are bit-identical to a monolithic
// engine fed the same rows, for any refresh_threads (pinned by
// tests/engine_pool_test.cc).
#ifndef UNICORN_UNICORN_ENGINE_POOL_H_
#define UNICORN_UNICORN_ENGINE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/ci_cache.h"
#include "unicorn/model_learner.h"
#include "util/thread_pool.h"

namespace unicorn {

struct ShardPoolOptions {
  // Statistical and engine knobs every shard is built with. `engine.num_threads`
  // is the *per-shard* skeleton sweep; with many shards refreshing in
  // parallel, keep it at 1 and spend the cores on refresh_threads instead.
  CausalModelOptions model;
  EngineOptions engine;
  // Worker threads for parallel shard refreshes (1 = refresh dirty shards
  // one after another). Results are bit-identical for any value.
  int refresh_threads = 1;
};

// Fleet-style aggregate over every shard's EngineStats, plus the pool-level
// refresh-concurrency ledger. Cross-shard cache hits are reported separately
// so the shared-cache dividend is visible next to the ordinary hit rate.
struct ShardPoolStats {
  size_t shards = 0;
  size_t refreshes = 0;                 // summed over shards
  long long tests_requested = 0;
  long long tests_evaluated = 0;
  long long cache_hits = 0;             // shard-local + cross-shard
  long long cross_shard_hits = 0;       // hits on entries another shard stored
  double refresh_seconds = 0.0;         // per-shard refresh time, summed
  // Parallel-refresh ledger: batches dispatched through RefreshShards, the
  // observed refresh concurrency (widest batch clamped to the refresh
  // threads that actually ran it — a serial pool reports 1 however many
  // shards were dirty), and the wall time the batches actually took
  // (refresh_seconds / batch_wall_seconds = the speedup parallel shard
  // refreshes bought).
  size_t refresh_batches = 0;
  size_t max_concurrent_refreshes = 0;
  double batch_wall_seconds = 0.0;
  // Refresh-worker ledger, fed by every refresh that runs on the pool's
  // workers: StartRefreshAsync (the pipelined campaign scheduler's path)
  // and the multi-shard batches of RefreshShards, which start theirs the
  // same way. `widest_cross_policy_batch` is the most shard refreshes ever
  // observed running at once on the workers — each running job is a
  // distinct shard (a shard refreshes once at a time), i.e. a distinct
  // objective group, so this is exactly the widest cross-policy refresh
  // batch the pool achieved. `overlap_seconds` is engine-internal refresh
  // time spent while the registered in-flight gauge (SetInFlightGauge: the
  // scheduler's count of measurement rows on the fleet) was nonzero —
  // refresh compute hidden behind device service time. Sampled at job start
  // and end (trapezoid), so it is a coarse estimate, not an integral; it is
  // always <= refresh_seconds (clamped against float rounding), so
  // overlap_seconds / refresh_seconds is a true fraction. Without a
  // registered gauge (every caller but the pipelined scheduler) a refresh
  // earns no overlap.
  size_t widest_cross_policy_batch = 0;
  double overlap_seconds = 0.0;

  double CacheHitRate() const {
    return tests_requested == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(tests_requested);
  }
  double CrossShardHitRate() const {
    return tests_requested == 0
               ? 0.0
               : static_cast<double>(cross_shard_hits) / static_cast<double>(tests_requested);
  }
};

/// One finished asynchronous shard refresh (see
/// EngineShardPool::StartRefreshAsync). Value type.
struct ShardRefreshDone {
  size_t shard = 0;
  uint64_t token = 0;          ///< the caller's correlation tag, round-tripped
  std::exception_ptr error;    ///< null on success
};

// Owns the engine shards of a campaign (one per objective group, created on
// first use) and the shared CI cache they consult.
//
// Thread-safety: shard creation and RefreshShards are driven by one thread
// (the campaign runner); the concurrency lives *inside* RefreshShards, which
// fans the listed shards out over the pool's refresh workers. Different
// shards may also be refreshed concurrently by external threads as long as no
// shard is refreshed twice at once — engines never touch each other, and the
// shared cache is concurrent. Shard references stay valid for the pool's
// lifetime.
class EngineShardPool {
 public:
  EngineShardPool(std::vector<Variable> variables, ShardPoolOptions options = {});

  // Joins the refresh workers before the members they signal go away:
  // refresh_pool_ is declared above async_mu_/async_cv_, so the default
  // reverse-order destruction would tear down the condition variable while a
  // worker could still be inside its final notify_all.
  ~EngineShardPool() { refresh_pool_.reset(); }

  // Index of the shard owning `group`, creating the shard on first use.
  // Must not be called while asynchronous refreshes are outstanding (shard
  // storage may grow; workers hold references into it).
  size_t ShardForGroup(const std::string& group);

  size_t num_shards() const { return shards_.size(); }
  CausalModelEngine& shard(size_t index) { return *shards_[index]; }
  const CausalModelEngine& shard(size_t index) const { return *shards_[index]; }

  CICache& shared_cache() { return shared_cache_; }

  // Refreshes every listed shard with `seed` and returns when all are done.
  // Shards without rows are skipped (same guard the single-engine runner
  // applied); duplicate indices are refreshed once. One shard, or a pool
  // with refresh_threads <= 1, refreshes inline on the calling thread;
  // a wider batch starts every shard with StartRefreshAsync and waits for
  // their done events, so it runs refresh_threads wide.
  // Precondition: no asynchronous refresh is outstanding (their done events
  // would mix with the batch's); otherwise throws std::logic_error.
  // Failure: after the whole batch finished, the error of the first failed
  // shard (in shard order) is rethrown; the other shards did refresh.
  void RefreshShards(std::vector<size_t> shards, uint64_t seed);

  // --- asynchronous refreshes (the pipelined campaign scheduler) -----------
  //
  // StartRefreshAsync enqueues one shard refresh and returns immediately;
  // the refresh runs on the pool's refresh workers (max(1, refresh_threads)
  // of them, created lazily), and completion surfaces as a ShardRefreshDone
  // carrying the caller's `token`. Refreshes of distinct shards run
  // concurrently — that concurrency is the cross-policy refresh coalescing
  // the ledger reports. A shard refreshes once at a time: starting a shard
  // whose done event has not been popped yet throws std::logic_error (the
  // caller orders a shard's refreshes, e.g. the pipelined scheduler's
  // per-shard queue).
  // An empty shard skips the engine refresh but still delivers its done
  // event (mirroring RefreshShards' guard).
  //
  // Contract: between StartRefreshAsync(shard, ...) and popping its done
  // event, the caller must not touch that shard's engine (no absorb, no
  // Propose reading it) and must not call RefreshShards on it. Exceptions
  // from the refresh are captured in ShardRefreshDone::error, never thrown
  // from the worker.
  //
  // Thread-safety: Start/TryPop/WaitRefreshDone/Drain are driven by one
  // scheduler thread; the workers run concurrently underneath. stats() may
  // be called while asynchronous refreshes are in flight — shards currently
  // refreshing are aggregated from their last completed snapshot.
  void StartRefreshAsync(size_t shard, uint64_t seed, uint64_t token);
  // Non-blocking: false when no done event is queued right now.
  bool TryPopRefreshDone(ShardRefreshDone* out);
  // Blocking: false only when no asynchronous refresh is outstanding.
  bool WaitRefreshDone(ShardRefreshDone* out);
  // Started (or queued) asynchronous refreshes whose done event has not been
  // popped yet.
  size_t PendingAsyncRefreshes() const;
  // Waits for every outstanding asynchronous refresh and discards the done
  // events (exception-path cleanup; errors are intentionally swallowed —
  // the caller is already unwinding on the first one).
  void DrainAsyncRefreshes();
  // Registers the in-flight measurement gauge the overlap ledger samples
  // (nullptr to unregister). Call only while no asynchronous refresh is
  // outstanding; the gauge must stay valid until unregistered.
  void SetInFlightGauge(const std::atomic<size_t>* gauge);

  // Aggregate of every shard's EngineStats plus the pool refresh ledger.
  ShardPoolStats stats() const;

 private:
  // Per-shard asynchronous bookkeeping, all under async_mu_.
  struct AsyncShardState {
    bool busy = false;  // a refresh was started and its done event not popped
    EngineStats snapshot;     // engine stats at the last completed refresh
    bool has_snapshot = false;
  };

  // Runs one shard refresh on a worker: executes, snapshots stats, and
  // delivers the done event.
  void RunAsyncRefresh(size_t shard_index, uint64_t seed, uint64_t token);
  // Pops the oldest done event and releases its shard. Requires async_mu_
  // held and a queued event.
  void PopRefreshDone(ShardRefreshDone* out);

  std::vector<Variable> variables_;
  ShardPoolOptions options_;
  CICache shared_cache_;
  std::vector<std::unique_ptr<CausalModelEngine>> shards_;
  std::unordered_map<std::string, size_t> group_index_;
  // Pool-level refresh ledger (see ShardPoolStats).
  size_t refresh_batches_ = 0;
  size_t max_concurrent_ = 0;
  double batch_wall_seconds_ = 0.0;

  // Asynchronous refresh plumbing (see the async section above).
  std::unique_ptr<ThreadPool> refresh_pool_;  // lazily created
  mutable std::mutex async_mu_;
  std::condition_variable async_cv_;      // done event available
  std::unordered_map<size_t, AsyncShardState> async_shards_;
  std::deque<ShardRefreshDone> async_done_;
  size_t async_outstanding_ = 0;  // started, done event not yet popped
  size_t async_running_ = 0;      // jobs executing right now (distinct shards)
  size_t widest_async_ = 0;
  double overlap_seconds_ = 0.0;
  const std::atomic<size_t>* in_flight_gauge_ = nullptr;
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_ENGINE_POOL_H_
