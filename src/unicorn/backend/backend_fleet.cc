#include "unicorn/backend/backend_fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace unicorn {
namespace {

using Clock = std::chrono::steady_clock;

// Exclusion is a 64-bit mask; fleets larger than that simply stop excluding
// the overflow backends (routing still works, retries may revisit them).
uint64_t BackendBit(size_t slot) { return slot < 64 ? (uint64_t{1} << slot) : 0; }

// Process-wide fleet instruments (shared across BackendFleet instances; the
// per-instance FleetStats ledger stays per-fleet). The gauges are the live
// view the ISSUE's satellite asks for: queue depth / in-flight / busy time
// sampleable DURING a run, not just at campaign end.
struct FleetMetrics {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* retries;
  obs::Counter* rerouted;
  obs::Counter* failed;
  obs::Counter* circuit_breaks;
  obs::Gauge* queue_depth;
  obs::Gauge* in_flight;
  obs::Gauge* busy_seconds;
  obs::Histogram* queue_wait_seconds;
  obs::Histogram* service_seconds;
};

const FleetMetrics& Metrics() {
  static const FleetMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return FleetMetrics{registry.Counter("fleet.submitted"),
                        registry.Counter("fleet.completed"),
                        registry.Counter("fleet.retries"),
                        registry.Counter("fleet.rerouted"),
                        registry.Counter("fleet.failed"),
                        registry.Counter("fleet.circuit_breaks"),
                        registry.Gauge("fleet.queue_depth"),
                        registry.Gauge("fleet.in_flight"),
                        registry.Gauge("fleet.busy_seconds"),
                        registry.Histogram("fleet.queue_wait_seconds"),
                        registry.Histogram("fleet.service_seconds")};
  }();
  return metrics;
}

}  // namespace

BackendFleet::BackendFleet(std::vector<std::unique_ptr<MeasurementBackend>> backends,
                           FleetOptions options)
    : options_(options) {
  slots_.reserve(backends.size());
  for (auto& backend : backends) {
    auto slot = std::make_unique<Slot>();
    slot->counters.name = backend->name();
    slot->counters.environment = backend->environment();
    slot->backend = std::move(backend);
    slots_.push_back(std::move(slot));
  }
  for (size_t s = 0; s < slots_.size(); ++s) {
    // At least one worker per slot: a zero-worker backend would still be
    // routable and swallow requests forever.
    const int workers = std::max(1, slots_[s]->backend->concurrency());
    for (int w = 0; w < workers; ++w) {
      workers_.emplace_back([this, s] { WorkerLoop(s); });
    }
  }
}

BackendFleet::~BackendFleet() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& slot : slots_) {
      slot->work_cv.notify_all();
    }
    space_cv_.notify_all();
    completion_cv_.notify_all();
  }
  for (auto& worker : workers_) {
    worker.join();
  }
}

int BackendFleet::Route(const Request& request, bool respect_excluded,
                        bool respect_capacity) const {
  int best = -1;
  size_t best_load = std::numeric_limits<size_t>::max();
  for (size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = *slots_[s];
    if (slot.broken) {
      continue;
    }
    if (respect_excluded && (request.excluded & BackendBit(s)) != 0) {
      continue;
    }
    if (respect_capacity && slot.queue.size() >= options_.queue_capacity) {
      continue;
    }
    // Environment-aware routing: a tagged request binds to exactly-matching
    // backends (a recorded source row must come from the source recording,
    // a target measurement from a target device); untagged goes anywhere.
    if (!request.environment.empty() &&
        slot.backend->environment() != request.environment) {
      continue;
    }
    if (!slot.backend->Supports(request.config)) {
      continue;
    }
    const size_t load = slot.queue.size() + slot.in_flight;
    if (load < best_load) {  // ties go to the lowest index
      best_load = load;
      best = static_cast<int>(s);
    }
  }
  return best;
}

void BackendFleet::Enqueue(size_t slot_index, Request request) {
  Slot& slot = *slots_[slot_index];
  ++slot.counters.dispatched;
  request.enqueued = Clock::now();
  slot.queue.push_back(std::move(request));
  slot.counters.max_queue_depth = std::max(slot.counters.max_queue_depth, slot.queue.size());
  Metrics().queue_depth->Add(1.0);
  slot.work_cv.notify_one();
}

bool BackendFleet::Redispatch(Request request, size_t from_slot) {
  int target = Route(request, /*respect_excluded=*/true, /*respect_capacity=*/false);
  if (target < 0) {
    // Everything preferable is excluded: retrying on an excluded backend
    // (fresh attempt number, fresh failure draw) beats giving up.
    target = Route(request, /*respect_excluded=*/false, /*respect_capacity=*/false);
  }
  if (target < 0) {
    CompleteFailure(request, -1,
                    MeasureOutcome::Permanent("no eligible backend (all circuit-broken, "
                                              "excluded, environment-mismatched, or "
                                              "unsupporting)"),
                    0.0);
    return false;
  }
  if (static_cast<size_t>(target) != from_slot) {
    ++totals_.rerouted;
    Metrics().rerouted->Increment();
  }
  Enqueue(static_cast<size_t>(target), std::move(request));
  return true;
}

void BackendFleet::CompleteOk(const Request& request, size_t slot_index,
                              std::vector<double> row, double seconds) {
  ++slots_[slot_index]->counters.completed;
  ++totals_.completed;
  Metrics().completed->Increment();
  FleetCompletion done;
  done.ticket = request.ticket;
  done.config = request.config;
  done.environment = request.environment;
  done.outcome = MeasureOutcome::Ok(std::move(row));
  done.attempts = request.attempt;
  done.backend = static_cast<int>(slot_index);
  done.measure_seconds = seconds;
  --outstanding_;
  completions_.push_back(std::move(done));
  completion_cv_.notify_one();
}

void BackendFleet::CompleteFailure(const Request& request, int slot_index,
                                   MeasureOutcome outcome, double seconds) {
  ++totals_.failed;
  Metrics().failed->Increment();
  FleetCompletion done;
  done.ticket = request.ticket;
  done.config = request.config;
  done.environment = request.environment;
  done.outcome = std::move(outcome);
  done.attempts = request.attempt;
  done.backend = slot_index;
  done.measure_seconds = seconds;
  --outstanding_;
  completions_.push_back(std::move(done));
  completion_cv_.notify_one();
}

void BackendFleet::BreakCircuit(size_t slot_index) {
  Slot& slot = *slots_[slot_index];
  slot.broken = true;
  slot.counters.circuit_broken = true;
  ++totals_.circuit_breaks;
  Metrics().circuit_breaks->Increment();
  obs::trace::Instant("fleet.circuit_break", "fleet", "backend",
                      static_cast<double>(slot_index));
  // Nothing queued behind a retired backend is lost: migrate every pending
  // request (no attempt spent — they were never measured here).
  std::deque<Request> pending;
  pending.swap(slot.queue);
  for (auto& request : pending) {
    request.excluded |= BackendBit(slot_index);
    Redispatch(std::move(request), slot_index);
  }
  space_cv_.notify_all();
}

uint64_t BackendFleet::Submit(std::vector<double> config, std::string environment) {
  std::unique_lock<std::mutex> lock(mu_);
  Request request;
  const uint64_t ticket = next_ticket_++;
  request.ticket = ticket;
  request.config = std::move(config);
  request.environment = std::move(environment);
  ++totals_.submitted;
  ++outstanding_;
  Metrics().submitted->Increment();
  for (;;) {
    if (stop_) {
      CompleteFailure(request, -1, MeasureOutcome::Permanent("fleet shut down"), 0.0);
      return ticket;
    }
    const int target = Route(request, /*respect_excluded=*/true, /*respect_capacity=*/true);
    if (target >= 0) {
      Enqueue(static_cast<size_t>(target), std::move(request));
      return ticket;
    }
    if (Route(request, /*respect_excluded=*/true, /*respect_capacity=*/false) < 0) {
      // Not a capacity problem: no backend can ever serve this request.
      CompleteFailure(request, -1,
                      MeasureOutcome::Permanent("no eligible backend (all circuit-broken, "
                                                "environment-mismatched, or unsupporting)"),
                      0.0);
      return ticket;
    }
    space_cv_.wait(lock);  // eligible backends exist but their queues are full
  }
}

bool BackendFleet::WaitCompletion(FleetCompletion* out) {
  return WaitCompletionFor(out, std::numeric_limits<double>::infinity());
}

bool BackendFleet::WaitCompletionFor(FleetCompletion* out, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  // Every submitted request lands on completions_ as outstanding_ drops, so
  // an empty stream with nothing outstanding can never fill again.
  const auto ready = [&] { return stop_ || outstanding_ == 0 || !completions_.empty(); };
  if (std::isinf(timeout_seconds)) {
    completion_cv_.wait(lock, ready);
  } else if (!completion_cv_.wait_for(
                 lock, std::chrono::duration<double>(std::max(0.0, timeout_seconds)), ready)) {
    return false;
  }
  if (completions_.empty()) {
    return false;
  }
  *out = std::move(completions_.front());
  completions_.pop_front();
  return true;
}

size_t BackendFleet::Outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

FleetStats BackendFleet::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats stats = totals_;
  stats.backends.reserve(slots_.size());
  for (const auto& slot : slots_) {
    BackendCounters counters = slot->counters;
    counters.queue_depth = slot->queue.size();
    counters.in_flight = slot->in_flight;
    stats.backends.push_back(std::move(counters));
  }
  return stats;
}

void BackendFleet::WorkerLoop(size_t slot_index) {
  Slot& slot = *slots_[slot_index];
  obs::trace::SetThreadName("fleet/" + slot.backend->name());
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    slot.work_cv.wait(lock, [&] { return stop_ || !slot.queue.empty(); });
    if (stop_) {
      return;
    }
    Request request = std::move(slot.queue.front());
    slot.queue.pop_front();
    ++slot.in_flight;
    space_cv_.notify_all();
    lock.unlock();

    const double queue_wait =
        std::chrono::duration<double>(Clock::now() - request.enqueued).count();
    Metrics().queue_depth->Add(-1.0);
    Metrics().in_flight->Add(1.0);
    Metrics().queue_wait_seconds->Record(queue_wait);
    obs::trace::Begin("fleet.service", "fleet");
    const auto start = Clock::now();
    MeasureOutcome outcome = slot.backend->Measure(request.config, request.attempt);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    obs::trace::End("queue_wait_ms", queue_wait * 1e3, "attempt",
                    static_cast<double>(request.attempt));
    Metrics().in_flight->Add(-1.0);
    Metrics().busy_seconds->Add(seconds);
    Metrics().service_seconds->Record(seconds);

    lock.lock();
    --slot.in_flight;
    slot.counters.busy_seconds += seconds;
    if (stop_) {
      return;  // shutdown mid-flight: the outcome is abandoned with the rest
    }
    switch (outcome.status) {
      case MeasureStatus::kOk:
        CompleteOk(request, slot_index, std::move(outcome.row), seconds);
        break;
      case MeasureStatus::kTransient:
      case MeasureStatus::kPermanent: {
        if (outcome.status == MeasureStatus::kTransient) {
          ++slot.counters.transient_failures;
        } else {
          ++slot.counters.permanent_failures;
          if (!slot.broken &&
              slot.counters.permanent_failures >=
                  static_cast<size_t>(options_.circuit_break_after)) {
            BreakCircuit(slot_index);
          }
        }
        if (request.attempt >= options_.max_attempts) {
          outcome.error += " (gave up after " + std::to_string(request.attempt) + " attempts)";
          CompleteFailure(request, static_cast<int>(slot_index), std::move(outcome), seconds);
          break;
        }
        ++request.attempt;
        request.excluded |= BackendBit(slot_index);
        ++totals_.retries;
        Metrics().retries->Increment();
        obs::trace::Instant("fleet.retry", "fleet", "attempt",
                            static_cast<double>(request.attempt));
        Redispatch(std::move(request), slot_index);
        break;
      }
    }
  }
}

}  // namespace unicorn
