// Lock-cheap process-wide metrics registry: named counters, gauges, and
// log-bucketed histograms, updatable from any thread on hot paths.
//
// Design
//   * Counters and histograms are sharded: a Counter is a util
//     ShardedCounter, and a histogram keeps one cache-line-aligned shard per
//     ShardedCounter cell, picked by the same per-thread round-robin index
//     (util/sharded_counter.h), so concurrent updates from different threads
//     almost never contend on a cache line. Updates are relaxed atomics — no
//     locks, no fences on the hot path. Shards are merged only on snapshot.
//   * Gauges are a single atomic double (last-writer-wins Set, CAS Add):
//     gauges track "current level" (queue depth, in-flight rows), where a
//     total ordering per update is the semantics, not a cost to shard away.
//   * Histograms use geometric (log-spaced) buckets, 8 per octave, covering
//     [1e-9, ~1.8e10). Percentile(q) returns the upper boundary of the
//     bucket holding the rank-q sample, so values recorded exactly on a
//     bucket boundary report exact percentiles (pinned in obs_metrics_test).
//   * Instruments are created once via MetricsRegistry::Global().Counter(...)
//     etc. and cached by the caller as a raw pointer; the registry owns them
//     for process lifetime (pointers never dangle). Lookup takes a mutex —
//     do it at setup, not per event.
//
// Compile-out: with UNICORN_NO_OBS defined every instrument method is an
// inline empty body on a shared static dummy, so instrumented call sites
// compile to nothing and the registry costs zero bytes of hot-path work.
#ifndef UNICORN_OBS_METRICS_H_
#define UNICORN_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/sharded_counter.h"

namespace unicorn {
namespace obs {

#ifndef UNICORN_NO_OBS

/// Monotonic event count. Add/Increment are wait-free relaxed atomics on a
/// per-thread shard; Value() merges the shards (approximate only in the
/// sense that it is not a consistent cut across concurrent writers).
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t delta) { count_.Add(static_cast<long long>(delta)); }
  uint64_t Value() const { return static_cast<uint64_t>(count_.Value()); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  ShardedCounter count_;
};

/// Current-level instrument (queue depth, busy seconds so far). Set is a
/// plain store; Add is a CAS loop (rare enough on our paths that contention
/// is a non-issue, and gauges want a single authoritative cell).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram. Record() is two relaxed fetch_adds (bucket count
/// + sum cell) on the caller's shard. Buckets are geometric with 8 per
/// octave starting at kMinValue; values below the range clamp into bucket 0
/// and values above into the last bucket.
class Histogram {
 public:
  static constexpr double kMinValue = 1e-9;
  static constexpr int kBucketsPerOctave = 8;
  // 64 octaves * 8 ≈ [1e-9, 1.8e10): nanoseconds through centuries when the
  // unit is seconds, which covers every duration this system records.
  static constexpr size_t kNumBuckets = 64 * kBucketsPerOctave;

  void Record(double value);

  /// Snapshot of the merged shards. `counts[i]` pairs with `UpperBound(i)`.
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<uint64_t> counts;
    /// Upper boundary of the bucket containing the nearest-rank q-quantile
    /// (q in [0,1]). 0 when empty.
    double Percentile(double q) const;
    double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  };
  Snapshot TakeSnapshot() const;

  /// Upper boundary of bucket `i`; exposed so tests can place samples
  /// exactly on boundaries.
  static double UpperBound(size_t i);
  /// Bucket index whose (lower, upper] range contains `value`.
  static size_t BucketFor(double value);

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  struct alignas(kCacheLine) Shard {
    std::atomic<uint64_t> counts[kNumBuckets];
    std::atomic<uint64_t> sum_bits{0};  // double accumulated via CAS on bits
    Shard() {
      for (auto& c : counts) {
        c.store(0, std::memory_order_relaxed);
      }
    }
  };
  Shard shards_[kCounterShards];
};

/// Process-wide instrument namespace. Instruments are interned by name and
/// live forever; Counter/Gauge/Histogram lookups lock a mutex (setup cost),
/// returned pointers are safe to cache and use lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  obs::Counter* Counter(const std::string& name);
  obs::Gauge* Gauge(const std::string& name);
  obs::Histogram* Histogram(const std::string& name);

  /// JSON object: {"counters":{name:value,...},"gauges":{...},
  /// "histograms":{name:{"count","sum","mean","p50","p95","p99","max"}}}.
  /// Names are emitted sorted, so output is deterministic given the values.
  std::string SnapshotJson() const;
  bool WriteJsonFile(const std::string& path) const;

  /// Test hook: zero every registered instrument (names stay interned).
  /// Not linearizable against concurrent writers — call it quiescent.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<obs::Counter>> counters_;
  std::map<std::string, std::unique_ptr<obs::Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<obs::Histogram>> histograms_;
};

#else  // UNICORN_NO_OBS: every instrument is an inline no-op.

class Counter {
 public:
  void Increment() {}
  void Add(uint64_t) {}
  uint64_t Value() const { return 0; }
};

class Gauge {
 public:
  void Set(double) {}
  void Add(double) {}
  double Value() const { return 0.0; }
};

class Histogram {
 public:
  static constexpr double kMinValue = 1e-9;
  static constexpr int kBucketsPerOctave = 8;
  static constexpr size_t kNumBuckets = 64 * kBucketsPerOctave;
  void Record(double) {}
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<uint64_t> counts;
    double Percentile(double) const { return 0.0; }
    double Mean() const { return 0.0; }
  };
  Snapshot TakeSnapshot() const { return Snapshot(); }
  static double UpperBound(size_t) { return 0.0; }
  static size_t BucketFor(double) { return 0; }
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global() {
    static MetricsRegistry registry;
    return registry;
  }
  obs::Counter* Counter(const std::string&) { return &counter_; }
  obs::Gauge* Gauge(const std::string&) { return &gauge_; }
  obs::Histogram* Histogram(const std::string&) { return &histogram_; }
  std::string SnapshotJson() const {
    return "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
  }
  bool WriteJsonFile(const std::string&) const { return true; }
  void ResetForTest() {}

 private:
  obs::Counter counter_;
  obs::Gauge gauge_;
  obs::Histogram histogram_;
};

#endif  // UNICORN_NO_OBS

}  // namespace obs
}  // namespace unicorn

#endif  // UNICORN_OBS_METRICS_H_
