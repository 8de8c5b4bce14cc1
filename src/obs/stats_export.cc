#include "obs/stats_export.h"

#include <cmath>
#include <cstdio>

namespace unicorn {
namespace obs {

namespace {

double D(size_t v) { return static_cast<double>(v); }
double D(long long v) { return static_cast<double>(v); }

}  // namespace

StatsFields Fields(const BrokerStats& stats) {
  return {
      {"requests", D(stats.requests)},
      {"measured", D(stats.measured)},
      {"cache_hits", D(stats.cache_hits)},
      {"cache_hit_rate", stats.CacheHitRate()},
      {"batches", D(stats.batches)},
      {"largest_batch", D(stats.largest_batch)},
      {"batch_wall_seconds", stats.batch_wall_seconds},
      {"active_wall_seconds", stats.active_wall_seconds},
      {"busy_seconds", stats.busy_seconds},
      {"utilization", stats.Utilization()},
      {"failures", D(stats.failures)},
  };
}

StatsFields Fields(const EngineStats& stats) {
  return {
      {"warm", stats.warm ? 1.0 : 0.0},
      {"tests_requested", D(stats.tests_requested)},
      {"tests_evaluated", D(stats.tests_evaluated)},
      {"cache_hits", D(stats.cache_hits)},
      {"cross_shard_hits", D(stats.cross_shard_hits)},
      {"pairs_total", D(stats.pairs_total)},
      {"pairs_reused", D(stats.pairs_reused)},
      {"refresh_seconds", stats.refresh_seconds},
      {"refreshes", D(stats.refreshes)},
      {"adopted_refreshes", D(stats.adopted_refreshes)},
      {"total_tests_requested", D(stats.total_tests_requested)},
      {"total_tests_evaluated", D(stats.total_tests_evaluated)},
      {"total_cache_hits", D(stats.total_cache_hits)},
      {"total_cross_shard_hits", D(stats.total_cross_shard_hits)},
      {"cache_hit_rate", stats.CacheHitRate()},
      {"total_seconds", stats.total_seconds},
  };
}

StatsFields Fields(const ShardPoolStats& stats) {
  return {
      {"shards", D(stats.shards)},
      {"refreshes", D(stats.refreshes)},
      {"tests_requested", D(stats.tests_requested)},
      {"tests_evaluated", D(stats.tests_evaluated)},
      {"cache_hits", D(stats.cache_hits)},
      {"cross_shard_hits", D(stats.cross_shard_hits)},
      {"cache_hit_rate", stats.CacheHitRate()},
      {"cross_shard_hit_rate", stats.CrossShardHitRate()},
      {"refresh_seconds", stats.refresh_seconds},
      {"refresh_batches", D(stats.refresh_batches)},
      {"max_concurrent_refreshes", D(stats.max_concurrent_refreshes)},
      {"batch_wall_seconds", stats.batch_wall_seconds},
      {"widest_cross_policy_batch", D(stats.widest_cross_policy_batch)},
      {"overlap_seconds", stats.overlap_seconds},
  };
}

StatsFields Fields(const FleetStats& stats) {
  StatsFields fields = {
      {"submitted", D(stats.submitted)},
      {"completed", D(stats.completed)},
      {"retries", D(stats.retries)},
      {"rerouted", D(stats.rerouted)},
      {"failed", D(stats.failed)},
      {"circuit_breaks", D(stats.circuit_breaks)},
      {"total_measured", D(stats.TotalMeasured())},
  };
  for (const BackendCounters& backend : stats.backends) {
    const std::string prefix = "backend." + backend.name + ".";
    fields.emplace_back(prefix + "dispatched", D(backend.dispatched));
    fields.emplace_back(prefix + "completed", D(backend.completed));
    fields.emplace_back(prefix + "transient_failures", D(backend.transient_failures));
    fields.emplace_back(prefix + "permanent_failures", D(backend.permanent_failures));
    fields.emplace_back(prefix + "queue_depth", D(backend.queue_depth));
    fields.emplace_back(prefix + "max_queue_depth", D(backend.max_queue_depth));
    fields.emplace_back(prefix + "in_flight", D(backend.in_flight));
    fields.emplace_back(prefix + "busy_seconds", backend.busy_seconds);
    fields.emplace_back(prefix + "circuit_broken", backend.circuit_broken ? 1.0 : 0.0);
  }
  return fields;
}

std::string DumpStatsJson(const StatsFields& fields) {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : fields) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(name);
    out.append("\":");
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out.append(buf);
  }
  out.push_back('}');
  return out;
}

void PublishStats(MetricsRegistry* registry, const std::string& prefix,
                  const StatsFields& fields) {
  if (registry == nullptr) {
    return;
  }
  for (const auto& [name, value] : fields) {
    registry->Gauge(prefix + "." + name)->Set(value);
  }
}

}  // namespace obs
}  // namespace unicorn
