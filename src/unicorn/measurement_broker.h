// The measurement plane (paper §4 Stage II/V: the operation the active
// learning loop budgets).
//
// Every Unicorn loop — debugging, optimization, transfer, and the benches —
// used to call PerformanceTask::measure one configuration at a time from the
// reasoning thread. The broker makes measurement a first-class batched
// subsystem: it accepts batches of configuration requests, deduplicates
// repeat configurations through a canonical-config hash cache (within a
// batch and across a whole campaign), and executes them on a BackendFleet —
// several MeasurementBackends (in-process, simulated Jetson devices,
// recorded replays) with per-backend queues, least-loaded + capability-aware
// routing, typed-failure retry, and circuit breaking (src/unicorn/backend/).
// A broker built from a task alone measures on a fleet of one
// InProcessBackend running task.measure on BrokerOptions::num_threads
// workers. An exception from task.measure fails only its own request, with
// no retry, and leaves the broker usable.
//
// Synchronous MeasureBatch submits the batch and waits until it finished,
// returning rows in deterministic request order. Because harness tasks
// measure as a pure function of the configuration (per-call RNG derived
// from the config hash), a batch of N — on any fleet of homogeneous
// backends, with or without injected transient failures — is bit-identical
// to N serial calls: the dedup cache sits in front of the fleet and every
// row lands at its request index.
//
// The asynchronous path (SubmitBatch + WaitBatch) hands out whole batches
// as they finish: the broker assembles each batch's rows in request order,
// so a campaign can absorb one policy's batch while another's is still in
// flight instead of blocking every policy on a per-round barrier. The
// finish order is run-to-run stable only on a fleet with one worker; with
// more, it follows thread timing.
//
// Environments: every request optionally carries an environment tag. The
// tag restricts routing to exactly-matching backends (see BackendFleet) —
// the transfer campaigns' source/target split. A tag that no backend
// carries fails its request as "no eligible backend"; that includes every
// non-empty tag sent to a task-only broker, whose one backend is untagged.
// The dedup cache is keyed on (environment, configuration), because the
// same configuration measures differently on different hardware; SaveCache
// persists the tag as the table's provenance column.
#ifndef UNICORN_UNICORN_MEASUREMENT_BROKER_H_
#define UNICORN_UNICORN_MEASUREMENT_BROKER_H_

#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "unicorn/backend/backend_fleet.h"
#include "unicorn/backend/measurement_table.h"
#include "unicorn/task.h"
#include "util/hash.h"

namespace unicorn {

struct BrokerOptions {
  // Workers of the in-process backend a task-only broker measures on (< 1
  // clamps to 1). Ignored when the broker is given a fleet — concurrency
  // then comes from its backends.
  int num_threads = 1;
  // Serve repeat configurations from the canonical-config cache instead of
  // re-measuring. Sound whenever task.measure is deterministic per
  // configuration (every harness task is); disable only for baselines where
  // each request must hit the system.
  bool dedup_cache = true;
};

// EngineStats-style accounting of the measurement plane.
struct BrokerStats {
  size_t requests = 0;    // configurations requested (incl. duplicates)
  size_t measured = 0;    // measurements actually dispatched
  size_t cache_hits = 0;  // requests served without measuring
  size_t batches = 0;     // MeasureBatch + SubmitBatch calls
  size_t largest_batch = 0;
  // Wall-clock of synchronous measuring fan-outs, recorded once per batch on
  // the calling thread — the number end-to-end speedup claims divide by.
  // Accounts only the *blocking* drains: an asynchronous SubmitBatch round
  // whose completions arrive while the caller is off doing other work adds
  // nothing here, which made busy/batch_wall overstate utilization under the
  // pipelined scheduler. Use active_wall_seconds as the denominator instead.
  double batch_wall_seconds = 0.0;
  // Wall-clock during which at least one broker request was genuinely
  // outstanding on the fleet — the union of [first submit, last resolve]
  // intervals, accumulated at the 1->0 transition of outstanding work. On
  // the synchronous path it is bounded by batch_wall_seconds (pinned by
  // measurement_broker_test); on the async path it keeps counting while the
  // caller overlaps other work, so busy/active is the honest utilization.
  double active_wall_seconds = 0.0;
  // Per-measurement time summed across fleet backend workers. With
  // N-way concurrency this exceeds the wall clock by up to Nx — keeping the
  // two separate is what makes utilization (busy/wall) reportable instead of
  // silently overstating the fan-out wall time.
  double busy_seconds = 0.0;
  size_t failures = 0;  // requests whose measurement ultimately failed

  double CacheHitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(cache_hits) / static_cast<double>(requests);
  }
  // Busy time per second of wall with outstanding measurement work — >1
  // means real concurrency, and the async path no longer inflates it (see
  // active_wall_seconds).
  double Utilization() const {
    return active_wall_seconds > 0.0 ? busy_seconds / active_wall_seconds : 0.0;
  }
};

// Handle for an asynchronous batch.
struct BatchTicket {
  uint64_t id = 0;
  size_t size = 0;
};

// One finished asynchronous batch.
struct BatchResult {
  uint64_t id = 0;  // BatchTicket::id
  // One row per request, in request order; a failed request's row is empty.
  std::vector<std::vector<double>> rows;
  // The error of the first failed request in request order; "" when every
  // request succeeded.
  std::string error;
};

class MeasurementBroker {
 public:
  // Measures on a fleet of one untagged InProcessBackend running
  // task.measure on options.num_threads workers.
  explicit MeasurementBroker(PerformanceTask task, BrokerOptions options = {});
  // Measures through the given backend fleet. `task` still provides the
  // variable/option metadata (and must match what the backends measure).
  MeasurementBroker(PerformanceTask task, std::unique_ptr<BackendFleet> fleet,
                    BrokerOptions options = {});

  const PerformanceTask& task() const { return task_; }

  // Measures one configuration (a batch of one, through the cache).
  // `environment` non-empty routes it to exactly-matching fleet backends.
  std::vector<double> Measure(const std::vector<double>& config,
                              const std::string& environment = "");

  // Measures a batch, returning rows in request order. Duplicate
  // (environment, configuration) requests — within the batch or already
  // measured by this broker — are measured once and counted as cache hits.
  // `environments` is parallel to `configs` (or empty: every request
  // untagged); a size mismatch throws std::invalid_argument. A request that
  // ultimately fails (retries exhausted, no eligible backend, task.measure
  // threw) throws std::runtime_error carrying its error once the whole batch
  // drained: the synchronous contract has no partial result. Batches of
  // earlier SubmitBatch calls that finish meanwhile stay queued for
  // WaitBatch.
  std::vector<std::vector<double>> MeasureBatch(
      const std::vector<std::vector<double>>& configs,
      const std::vector<std::string>& environments = {});

  // --- asynchronous path ---------------------------------------------------
  //
  // Submits a batch without waiting; it comes back whole from WaitBatch once
  // its last request resolves. Cache hits fill their rows at submit, so a
  // batch served entirely from cache is finished at once; a configuration
  // already in flight is not re-submitted — its row is written into every
  // batch waiting on it. `environments` as in MeasureBatch.
  BatchTicket SubmitBatch(const std::vector<std::vector<double>>& configs,
                          const std::vector<std::string>& environments = {});

  // Blocks for the next finished batch, in finish order: WaitBatchFor with
  // no deadline. False when nothing is outstanding. A failed request leaves
  // its row empty and sets BatchResult::error (the async path reports
  // failures instead of throwing). Not thread-safe — one thread drains the
  // stream, like every other broker entry point.
  bool WaitBatch(BatchResult* out);

  // Timed WaitBatch: false when no batch finished within `timeout_seconds`
  // as well as when nothing is outstanding (check OutstandingRequests() to
  // tell the two apart). Lets the pipelined campaign scheduler multiplex
  // this stream with the shard pool's refresh-done events without stalling
  // on either. Same single-consumer contract as WaitBatch.
  bool WaitBatchFor(BatchResult* out, double timeout_seconds);

  // Requests submitted asynchronously and not yet handed out.
  size_t OutstandingRequests() const;

  // --- cache persistence (cross-campaign table sharing) --------------------
  //
  // Saves the dedup cache — every (configuration, row) this broker ever
  // measured — as a MeasurementTable CSV, in insertion order (the same
  // format RecordedBackend replays and CausalModelEngine::SeedFromFile
  // seeds from). Measured rows insert as their completions drain, so the
  // order is run-to-run stable only on a fleet with one worker. Each
  // entry's environment tag is persisted as the table's provenance column.
  // False on I/O failure.
  bool SaveCache(const std::string& path) const;

  const BrokerStats& stats() const { return stats_; }
  // Fleet-side ledger (dispatch/retry/circuit-break accounting).
  FleetStats fleet_stats() const { return fleet_->stats(); }

 private:
  struct Waiter {
    uint64_t batch = 0;
    size_t index = 0;
  };

  // Cache/in-flight key: the same configuration measured in two
  // environments is two distinct rows.
  struct EnvConfig {
    std::string environment;
    std::vector<double> config;
    bool operator==(const EnvConfig& other) const {
      return environment == other.environment && config == other.config;
    }
  };
  struct EnvConfigHash {
    size_t operator()(const EnvConfig& key) const {
      return static_cast<size_t>(
          HashDoubles(key.config, std::hash<std::string>{}(key.environment)));
    }
  };

  // A submitted batch whose rows are still being assembled.
  struct PendingBatch {
    BatchResult result;
    size_t remaining = 0;  // requests not yet resolved
    size_t first_failed = std::numeric_limits<size_t>::max();  // owner of result.error
  };

  static const std::string& EnvOf(const std::vector<std::string>& environments, size_t i);
  const std::vector<double>* CachedRow(const std::vector<double>& config,
                                       const std::string& environment) const;
  void InsertCache(const std::vector<double>& config, const std::string& environment,
                   std::vector<double> row);
  // Waits up to `timeout_seconds` (infinite: no deadline) for one fleet
  // completion and resolves it: cache/in-flight bookkeeping, then its row
  // (or error) goes into every batch waiting on it, and each batch that
  // this finishes moves to finished_. False when nothing arrived.
  bool ResolveFleetCompletion(double timeout_seconds);
  // Hands out a finished batch.
  void TakeFinished(std::deque<BatchResult>::iterator batch, BatchResult* out);

  PerformanceTask task_;
  BrokerOptions options_;
  std::unique_ptr<BackendFleet> fleet_;

  // Dedup cache in insertion order (see SaveCache). Entry::provenance
  // carries the environment tag.
  std::vector<MeasurementTable::Entry> cache_entries_;
  std::unordered_map<EnvConfig, size_t, EnvConfigHash> cache_index_;

  // Async bookkeeping: fleet ticket -> requests waiting on it, which
  // (environment, config) requests are in flight (so repeats attach
  // instead of re-submit), batches still assembling, and finished batches
  // not yet handed out, in finish order.
  std::unordered_map<uint64_t, std::vector<Waiter>> fleet_waiters_;
  std::unordered_map<EnvConfig, uint64_t, EnvConfigHash> in_flight_;
  std::unordered_map<uint64_t, PendingBatch> pending_;
  std::deque<BatchResult> finished_;
  uint64_t next_batch_ = 1;
  size_t outstanding_requests_ = 0;
  // Opens when fleet_waiters_ goes empty -> nonempty (first Submit of a
  // burst), closes into stats_.active_wall_seconds when it drains to empty.
  std::chrono::steady_clock::time_point active_since_{};

  BrokerStats stats_;
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_MEASUREMENT_BROKER_H_
