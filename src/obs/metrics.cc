#include "obs/metrics.h"

#ifndef UNICORN_NO_OBS

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace unicorn {
namespace obs {

namespace {

// Precomputed bucket upper boundaries: bounds[i] = kMinValue * 2^(i/8).
// Computed once with pow so UpperBound(i) and BucketFor agree bit-for-bit
// (BucketFor compares against this exact table, never recomputes logs).
const double* BucketBounds() {
  static const double* bounds = [] {
    static double table[Histogram::kNumBuckets];
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      table[i] = Histogram::kMinValue *
                 std::pow(2.0, static_cast<double>(i) /
                                   static_cast<double>(Histogram::kBucketsPerOctave));
    }
    return table;
  }();
  return bounds;
}

void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  double old_value;
  uint64_t new_bits;
  do {
    std::memcpy(&old_value, &old_bits, sizeof(double));
    const double new_value = old_value + delta;
    std::memcpy(&new_bits, &new_value, sizeof(double));
  } while (!bits->compare_exchange_weak(old_bits, new_bits, std::memory_order_relaxed));
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(double));
  return value;
}

void AppendJsonNumber(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // JSON has no inf/nan literals; clamp to null (never expected in practice).
  if (std::isfinite(value)) {
    out->append(buf);
  } else {
    out->append("null");
  }
}

}  // namespace

double Histogram::UpperBound(size_t i) {
  if (i >= kNumBuckets) {
    i = kNumBuckets - 1;
  }
  return BucketBounds()[i];
}

size_t Histogram::BucketFor(double value) {
  const double* bounds = BucketBounds();
  if (!(value > bounds[0])) {
    return 0;  // includes NaN, negatives, zero, and the first boundary itself
  }
  if (value > bounds[kNumBuckets - 1]) {
    return kNumBuckets - 1;
  }
  // Jump near the right bucket from the exponent, then fix up against the
  // exact table: log2-based estimates can be off by one at boundaries and
  // "exact at boundaries" is a tested contract.
  const double octaves = std::log2(value / kMinValue);
  size_t i = static_cast<size_t>(
      std::max(0.0, octaves * static_cast<double>(kBucketsPerOctave) - 1.0));
  i = std::min(i, kNumBuckets - 1);
  while (i > 0 && value <= bounds[i - 1]) {
    --i;
  }
  while (i + 1 < kNumBuckets && value > bounds[i]) {
    ++i;
  }
  return i;
}

void Histogram::Record(double value) {
  Shard& shard = shards_[CounterShard()];
  shard.counts[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&shard.sum_bits, value);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.counts.assign(kNumBuckets, 0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      snap.counts[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
    snap.sum += BitsToDouble(shard.sum_bits.load(std::memory_order_relaxed));
  }
  for (const uint64_t c : snap.counts) {
    snap.count += c;
  }
  return snap;
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count) (at least 1). All-samples-in-one-bucket therefore
  // reports that bucket's upper bound for every q — the boundary-exactness
  // contract.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      return UpperBound(i);
    }
  }
  return UpperBound(kNumBuckets - 1);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

obs::Counter* MetricsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot.reset(new obs::Counter());
  }
  return slot.get();
}

obs::Gauge* MetricsRegistry::Gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot.reset(new obs::Gauge());
  }
  return slot.get();
}

obs::Histogram* MetricsRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot.reset(new obs::Histogram());
  }
  return slot.get();
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\"").append(name).append("\":");
    AppendJsonNumber(&out, static_cast<double>(counter->Value()));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\"").append(name).append("\":");
    AppendJsonNumber(&out, gauge->Value());
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    out.append("\"").append(name).append("\":{\"count\":");
    AppendJsonNumber(&out, static_cast<double>(snap.count));
    out.append(",\"sum\":");
    AppendJsonNumber(&out, snap.sum);
    out.append(",\"mean\":");
    AppendJsonNumber(&out, snap.Mean());
    out.append(",\"p50\":");
    AppendJsonNumber(&out, snap.Percentile(0.50));
    out.append(",\"p95\":");
    AppendJsonNumber(&out, snap.Percentile(0.95));
    out.append(",\"p99\":");
    AppendJsonNumber(&out, snap.Percentile(0.99));
    out.append(",\"max\":");
    AppendJsonNumber(&out, snap.Percentile(1.0));
    out.push_back('}');
  }
  out.append("}}");
  return out;
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  const std::string json = SnapshotJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter->count_.Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    (void)name;
    gauge->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, histogram] : histograms_) {
    (void)name;
    for (auto& shard : histogram->shards_) {
      for (auto& c : shard.counts) {
        c.store(0, std::memory_order_relaxed);
      }
      shard.sum_bits.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace obs
}  // namespace unicorn

#endif  // UNICORN_NO_OBS
