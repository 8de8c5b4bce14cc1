#include "unicorn/measurement_broker.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "unicorn/backend/in_process_backend.h"

namespace unicorn {
namespace {

using Clock = std::chrono::steady_clock;

// Process-wide broker instruments, resolved once (registry lookup locks).
// All broker instances share them: the registry is the fleet-wide view, the
// per-instance BrokerStats ledger stays the per-broker one.
struct BrokerMetrics {
  obs::Counter* requests;
  obs::Counter* measured;
  obs::Counter* cache_hits;
  obs::Counter* failures;
  obs::Counter* batches;
  obs::Histogram* batch_size;
};

const BrokerMetrics& Metrics() {
  static const BrokerMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return BrokerMetrics{registry.Counter("broker.requests"),
                         registry.Counter("broker.measured"),
                         registry.Counter("broker.cache_hits"),
                         registry.Counter("broker.failures"),
                         registry.Counter("broker.batches"),
                         registry.Histogram("broker.batch_size")};
  }();
  return metrics;
}

std::unique_ptr<BackendFleet> InProcessFleet(const PerformanceTask& task, int num_threads) {
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  backends.push_back(std::make_unique<InProcessBackend>(task, "in-process", num_threads));
  // A configuration task.measure throws on would throw again on a retry, and
  // says nothing about the health of the one backend: fail just that
  // request, first time, and never retire the backend.
  FleetOptions options;
  options.max_attempts = 1;
  options.circuit_break_after = std::numeric_limits<int>::max();
  return std::make_unique<BackendFleet>(std::move(backends), options);
}

}  // namespace

MeasurementBroker::MeasurementBroker(PerformanceTask task, BrokerOptions options)
    : MeasurementBroker(task, InProcessFleet(task, options.num_threads), options) {}

MeasurementBroker::MeasurementBroker(PerformanceTask task, std::unique_ptr<BackendFleet> fleet,
                                     BrokerOptions options)
    : task_(std::move(task)), options_(options), fleet_(std::move(fleet)) {}

std::vector<double> MeasurementBroker::Measure(const std::vector<double>& config,
                                               const std::string& environment) {
  return MeasureBatch({config}, environment.empty()
                                    ? std::vector<std::string>{}
                                    : std::vector<std::string>{environment})
      .front();
}

const std::string& MeasurementBroker::EnvOf(const std::vector<std::string>& environments,
                                            size_t i) {
  static const std::string kUntagged;
  return environments.empty() ? kUntagged : environments[i];
}

const std::vector<double>* MeasurementBroker::CachedRow(const std::vector<double>& config,
                                                        const std::string& environment) const {
  if (!options_.dedup_cache) {
    return nullptr;
  }
  const auto it = cache_index_.find(EnvConfig{environment, config});
  return it == cache_index_.end() ? nullptr : &cache_entries_[it->second].row;
}

void MeasurementBroker::InsertCache(const std::vector<double>& config,
                                    const std::string& environment, std::vector<double> row) {
  const auto [it, inserted] =
      cache_index_.emplace(EnvConfig{environment, config}, cache_entries_.size());
  if (inserted) {
    cache_entries_.push_back(MeasurementTable::Entry{config, std::move(row), environment});
  }
}

std::vector<std::vector<double>> MeasurementBroker::MeasureBatch(
    const std::vector<std::vector<double>>& configs,
    const std::vector<std::string>& environments) {
  if (!environments.empty() && environments.size() != configs.size()) {
    throw std::invalid_argument("MeasureBatch: environments must be empty or match configs");
  }

  // The sync path rides the async one: submit, then resolve fleet
  // completions until this batch has finished. Batches of earlier
  // SubmitBatch calls that finish meanwhile stay queued for WaitBatch.
  obs::trace::Span span("broker.batch", "broker");
  span.SetArg("requests", static_cast<double>(configs.size()));
  const auto start = Clock::now();
  const uint64_t id = SubmitBatch(configs, environments).id;
  while (pending_.count(id) != 0) {
    if (!ResolveFleetCompletion(std::numeric_limits<double>::infinity())) {
      throw std::runtime_error("measurement completion stream ended mid-batch");
    }
  }
  BatchResult result;
  TakeFinished(std::find_if(finished_.begin(), finished_.end(),
                            [&](const BatchResult& batch) { return batch.id == id; }),
               &result);
  stats_.batch_wall_seconds += std::chrono::duration<double>(Clock::now() - start).count();
  if (!result.error.empty()) {
    throw std::runtime_error("batch measurement failed permanently: " + result.error);
  }
  return std::move(result.rows);
}

BatchTicket MeasurementBroker::SubmitBatch(const std::vector<std::vector<double>>& configs,
                                           const std::vector<std::string>& environments) {
  if (!environments.empty() && environments.size() != configs.size()) {
    throw std::invalid_argument("SubmitBatch: environments must be empty or match configs");
  }
  ++stats_.batches;
  stats_.requests += configs.size();
  stats_.largest_batch = std::max(stats_.largest_batch, configs.size());
  Metrics().batches->Increment();
  Metrics().requests->Add(configs.size());
  Metrics().batch_size->Record(static_cast<double>(configs.size()));
  obs::trace::Span span("broker.submit", "broker");
  span.SetArg("requests", static_cast<double>(configs.size()));
  BatchTicket ticket{next_batch_++, configs.size()};
  outstanding_requests_ += configs.size();
  PendingBatch batch;
  batch.result.id = ticket.id;
  batch.result.rows.resize(configs.size());
  batch.remaining = configs.size();
  size_t submitted = 0;
  for (size_t i = 0; i < configs.size(); ++i) {
    const std::string& env = EnvOf(environments, i);
    if (const std::vector<double>* row = CachedRow(configs[i], env)) {
      batch.result.rows[i] = *row;
      --batch.remaining;
      ++stats_.cache_hits;
      continue;
    }
    if (options_.dedup_cache) {
      const auto in_flight = in_flight_.find(EnvConfig{env, configs[i]});
      if (in_flight != in_flight_.end()) {
        // Already on a backend (this batch or an earlier one): wait on the
        // same fleet ticket instead of measuring twice.
        fleet_waiters_[in_flight->second].push_back(Waiter{ticket.id, i});
        ++stats_.cache_hits;
        continue;
      }
    }
    // Opening the active-wall window BEFORE Submit keeps the (blocking)
    // submit time inside it — the fleet is already measuring while Submit
    // waits for queue space.
    if (fleet_waiters_.empty()) {
      active_since_ = Clock::now();
    }
    const uint64_t fleet_ticket = fleet_->Submit(configs[i], env);
    fleet_waiters_[fleet_ticket].push_back(Waiter{ticket.id, i});
    if (options_.dedup_cache) {
      in_flight_.emplace(EnvConfig{env, configs[i]}, fleet_ticket);
    }
    ++stats_.measured;
    ++submitted;
  }
  Metrics().measured->Add(submitted);
  Metrics().cache_hits->Add(configs.size() - submitted);
  if (batch.remaining == 0) {
    finished_.push_back(std::move(batch.result));
  } else {
    pending_.emplace(ticket.id, std::move(batch));
  }
  return ticket;
}

bool MeasurementBroker::ResolveFleetCompletion(double timeout_seconds) {
  FleetCompletion done;
  if (!fleet_->WaitCompletionFor(&done, timeout_seconds)) {
    return false;
  }
  stats_.busy_seconds += done.measure_seconds;
  const auto waiters_it = fleet_waiters_.find(done.ticket);
  if (waiters_it == fleet_waiters_.end()) {
    return true;  // a completion nobody asked for (impossible by construction)
  }
  const std::vector<Waiter> waiters = std::move(waiters_it->second);
  fleet_waiters_.erase(waiters_it);
  if (fleet_waiters_.empty()) {
    // Last outstanding fleet request resolved: close the active-wall window
    // opened by the first Submit of this burst. This runs on whichever
    // thread drains the stream, synchronous or pipelined alike — which is
    // exactly what batch_wall_seconds (caller-thread blocking time) missed
    // on overlapped SubmitBatch rounds.
    stats_.active_wall_seconds +=
        std::chrono::duration<double>(Clock::now() - active_since_).count();
  }
  if (options_.dedup_cache) {
    in_flight_.erase(EnvConfig{done.environment, done.config});
  }

  const bool ok = done.outcome.status == MeasureStatus::kOk;
  if (ok && options_.dedup_cache) {
    InsertCache(done.config, done.environment, done.outcome.row);
  }
  if (!ok) {
    stats_.failures += waiters.size();
    Metrics().failures->Add(waiters.size());
  }
  for (const Waiter& waiter : waiters) {
    const auto batch_it = pending_.find(waiter.batch);
    PendingBatch& batch = batch_it->second;
    if (ok) {
      batch.result.rows[waiter.index] = done.outcome.row;
    } else if (waiter.index < batch.first_failed) {
      batch.first_failed = waiter.index;
      batch.result.error = done.outcome.error;
    }
    if (--batch.remaining == 0) {
      finished_.push_back(std::move(batch.result));
      pending_.erase(batch_it);
    }
  }
  return true;
}

void MeasurementBroker::TakeFinished(std::deque<BatchResult>::iterator batch, BatchResult* out) {
  *out = std::move(*batch);
  finished_.erase(batch);
  outstanding_requests_ -= out->rows.size();
}

bool MeasurementBroker::WaitBatch(BatchResult* out) {
  return WaitBatchFor(out, std::numeric_limits<double>::infinity());
}

bool MeasurementBroker::WaitBatchFor(BatchResult* out, double timeout_seconds) {
  const auto start = Clock::now();
  while (finished_.empty()) {
    const double left =
        timeout_seconds - std::chrono::duration<double>(Clock::now() - start).count();
    if (fleet_waiters_.empty() || !ResolveFleetCompletion(left)) {
      return false;  // nothing outstanding, or timed out
    }
  }
  TakeFinished(finished_.begin(), out);
  return true;
}

size_t MeasurementBroker::OutstandingRequests() const { return outstanding_requests_; }

bool MeasurementBroker::SaveCache(const std::string& path) const {
  return SaveMeasurementTable(path, task_.option_vars.size(), task_.variables.size(),
                              cache_entries_);
}

}  // namespace unicorn
