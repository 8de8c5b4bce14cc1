// The fleet dispatcher: several measurement backends behind one submit/
// completion interface — the experiment plane as the paper actually ran it
// (a rack of Jetson boards), not an idealized serial oracle.
//
// Each backend gets a bounded work queue and `concurrency()` worker threads.
// Submission routes to the least-loaded backend that supports the
// configuration, matches the request's environment tag, is not
// circuit-broken, and is not in the request's excluded set; Submit blocks
// when every eligible queue is full (bounded backpressure toward the
// caller). Failures are typed:
//
//   transient  — the attempt is retried, preferably on a different backend
//                (the failing backend joins the request's excluded set),
//                with a fresh global attempt number, up to max_attempts;
//   permanent  — counts toward the backend's circuit breaker; at
//                circuit_break_after permanent failures the backend is
//                retired and everything still in its queue is rerouted, so
//                no queued request is lost.
//
// Every outcome lands on one completion stream (a deque under the fleet's
// lock) tagged with the submit ticket; callers reassemble order from
// tickets. The FleetStats
// ledger tracks per-backend dispatched/completed/failure counts, queue
// depths, and busy time.
//
// Environment-aware routing: a request submitted with a non-empty
// environment is eligible only for backends whose environment() matches it
// exactly; an untagged request may land on any backend. This is how a
// transfer campaign pins its fresh requests to live target devices, and
// how requests tagged with a recorded environment reach the RecordedBackend
// replaying that recording instead of live hardware.
//
// Determinism: routing reacts to live queue depths, so WHICH backend
// measures a configuration depends on timing — but with homogeneous
// backends (same task/Environment) and pure per-configuration measurement,
// the ROWS are identical no matter how requests are routed or retried. The
// broker's fleet-backed MeasureBatch builds its bit-identical-to-serial
// guarantee on exactly that, writing each row at its request index.
#ifndef UNICORN_UNICORN_BACKEND_BACKEND_FLEET_H_
#define UNICORN_UNICORN_BACKEND_BACKEND_FLEET_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "unicorn/backend/backend.h"

namespace unicorn {

/// Fleet-wide knobs, fixed at construction. Plain value type.
struct FleetOptions {
  /// Per-backend queue bound; Submit blocks while every eligible backend's
  /// queue is full. Internal re-dispatches (retries, circuit-break
  /// migration) bypass the bound rather than risk deadlocking a worker.
  size_t queue_capacity = 64;
  /// Total measurement tries per request across all backends.
  int max_attempts = 4;
  /// Permanent failures a backend may produce before it is retired.
  int circuit_break_after = 3;
};

/// Per-backend slice of the FleetStats ledger. Snapshot value type: returned
/// by BackendFleet::stats(), never shared live.
struct BackendCounters {
  std::string name;
  std::string environment;        ///< routing tag ("" = untagged)
  size_t dispatched = 0;          ///< requests enqueued to this backend
  size_t completed = 0;           ///< successful measurements
  size_t transient_failures = 0;  ///< attempts lost to transient faults here
  size_t permanent_failures = 0;  ///< permanent faults here
  size_t queue_depth = 0;         ///< at snapshot time
  size_t max_queue_depth = 0;     ///< high-water mark
  size_t in_flight = 0;           ///< measuring right now, at snapshot time
  double busy_seconds = 0.0;      ///< wall time inside Measure on this backend
  bool circuit_broken = false;
};

/// Consistent snapshot of the fleet ledger (see BackendFleet::stats()).
struct FleetStats {
  std::vector<BackendCounters> backends;
  size_t submitted = 0;
  size_t completed = 0;       ///< requests that ultimately succeeded
  size_t retries = 0;         ///< re-dispatches after a failed attempt
  size_t rerouted = 0;        ///< re-dispatches that moved to another backend
  size_t failed = 0;          ///< requests that ultimately failed
  size_t circuit_breaks = 0;  ///< backends retired

  size_t TotalMeasured() const {
    size_t total = 0;
    for (const auto& b : backends) {
      total += b.completed + b.transient_failures + b.permanent_failures;
    }
    return total;
  }
};

/// One finished request on the completion stream. Value type.
struct FleetCompletion {
  uint64_t ticket = 0;
  std::vector<double> config;
  std::string environment;  ///< the tag the request was submitted with
  MeasureOutcome outcome;   ///< kOk with the row, or the final typed failure
  int attempts = 0;         ///< measurement tries spent
  int backend = -1;         ///< backend index of the final outcome (-1: none)
  double measure_seconds = 0.0;  ///< busy time of the final attempt
};

/// The dispatcher. Thread-safety: Submit and stats() may be called from any
/// thread concurrently with the worker threads; WaitCompletion is
/// single-consumer (exactly one thread drains the stream). The destructor
/// must not race a concurrent Submit/WaitCompletion by the owner's design.
class BackendFleet {
 public:
  BackendFleet(std::vector<std::unique_ptr<MeasurementBackend>> backends,
               FleetOptions options = {});
  /// Stops workers; outstanding requests are abandoned (their completions
  /// never surface — drain before destroying if you need them).
  ~BackendFleet();

  BackendFleet(const BackendFleet&) = delete;
  BackendFleet& operator=(const BackendFleet&) = delete;

  /// Routes and enqueues one request, returning its ticket. `environment`
  /// non-empty restricts routing to exactly-matching backends. Blocks while
  /// every eligible backend's queue is at capacity.
  /// Failure: a request no backend can serve (all broken, unsupported, or
  /// environment-mismatched) never blocks and never throws — it completes
  /// immediately with a typed permanent failure on the stream.
  /// Thread-safety: safe from multiple threads.
  uint64_t Submit(std::vector<double> config, std::string environment = "");

  /// Blocks for the next completed request: WaitCompletionFor with no
  /// deadline. Returns false when nothing is outstanding (every submitted
  /// request already streamed out) or the fleet is shutting down.
  /// Thread-safety: single-consumer — one thread drains the stream.
  bool WaitCompletion(FleetCompletion* out);

  /// Timed WaitCompletion: false when nothing completed within
  /// `timeout_seconds` (as well as when nothing is outstanding — callers
  /// that must distinguish check Outstanding()); an infinite timeout waits
  /// without a deadline. The broker's timed batch wait rides on it.
  /// Thread-safety: single-consumer, same as WaitCompletion.
  bool WaitCompletionFor(FleetCompletion* out, double timeout_seconds);

  size_t Outstanding() const;
  const MeasurementBackend& backend(size_t i) const { return *slots_[i]->backend; }

  /// Consistent snapshot of every counter (one lock acquisition).
  /// Thread-safety: safe from any thread.
  FleetStats stats() const;

 private:
  struct Request {
    uint64_t ticket = 0;
    std::vector<double> config;
    std::string environment;  // "" = any backend may serve it
    int attempt = 1;          // the try number the next dispatch will be
    uint64_t excluded = 0;    // bitmask of backends this request should avoid
    // Stamped by Enqueue; the worker's queue-wait observation (the time the
    // request sat in this backend's queue, reset on every re-dispatch).
    std::chrono::steady_clock::time_point enqueued{};
  };

  struct Slot {
    std::unique_ptr<MeasurementBackend> backend;
    std::deque<Request> queue;
    std::condition_variable work_cv;
    size_t in_flight = 0;
    BackendCounters counters;
    bool broken = false;
  };

  void WorkerLoop(size_t slot_index);
  // All of the below require mu_ held.
  int Route(const Request& request, bool respect_excluded, bool respect_capacity) const;
  void Enqueue(size_t slot_index, Request request);
  bool Redispatch(Request request, size_t from_slot);
  void CompleteOk(const Request& request, size_t slot_index, std::vector<double> row,
                  double seconds);
  void CompleteFailure(const Request& request, int slot_index, MeasureOutcome outcome,
                       double seconds);
  void BreakCircuit(size_t slot_index);

  const FleetOptions options_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;       // submitters waiting for queue space
  std::condition_variable completion_cv_;  // the consumer waiting on completions_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> workers_;
  std::deque<FleetCompletion> completions_;  // finished, not yet handed out
  uint64_t next_ticket_ = 1;
  size_t outstanding_ = 0;  // submitted, not yet on the completion stream
  FleetStats totals_;       // fleet-level counters (backends[] filled on demand)
  bool stop_ = false;
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_BACKEND_BACKEND_FLEET_H_
