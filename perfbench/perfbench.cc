// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>]
//
// The workload is set up several times (setup_s is the median), then timed
// campaigns run back to back, in whole passes over the seed's variants, until
// `--seconds` have passed and every p90 has at least ten samples beyond it.
// With --trace 0 the
// campaigns are untraced and the end-to-end metrics are reported; with
// --trace 1 untraced and traced campaigns alternate and the per-layer
// metrics are reported (span self times from the traced ones; the Chrome
// trace of the last traced campaign goes to --trace-out). Every campaign's
// signature must equal the first one of its variant — traced or not — and
// workload-specific oracles are checked at the end. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace trace = unicorn::obs::trace;

constexpr int kSetups = 3;
constexpr size_t kMinSamples = 100;  // p90 with ten samples beyond it
constexpr double kMaxLoopSeconds = 140.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// Campaigns of one kind (untraced or traced) and what was observed in them.
struct Bucket {
  std::vector<CampaignOutcome> outcomes;
  Observations obs;
  long long sim_calls = 0;
  double sim_s = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

template <typename F>
double Sum(const std::vector<const CampaignOutcome*>& outcomes, F field) {
  double total = 0.0;
  for (const CampaignOutcome* o : outcomes) {
    total += field(*o);
  }
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> Walls(const Bucket& bucket) {
  std::vector<double> walls;
  for (const CampaignOutcome& o : bucket.outcomes) {
    walls.push_back(o.wall_s);
  }
  return walls;
}

// End-to-end metrics, from the untraced campaigns.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s, const Bucket& plain,
                             const std::map<size_t, CampaignOutcome>& first_of,
                             std::vector<std::string>* errors) {
  const Percentile refresh90 = NearestRank(plain.obs.refresh_s, 90.0, 10);
  const Percentile round90 = NearestRank(plain.obs.round_s, 90.0, 10);
  if (!refresh90.ok || !round90.ok) {
    errors->push_back("fewer than ten samples beyond a p90");
  }
  // Per-campaign outputs are deterministic per variant: average the variants.
  double measured = 0.0;
  for (const auto& [variant, outcome] : first_of) {
    (void)variant;
    measured += static_cast<double>(outcome.broker.measured);
  }
  const double variants = static_cast<double>(std::max<size_t>(1, first_of.size()));
  return {
      {"setup_s", Median(setup_s), "s"},
      {"campaign_s", Median(Walls(plain)), "s"},
      {"refresh_p50_s", Median(plain.obs.refresh_s), "s"},
      {"refresh_p90_s", refresh90.value, "s"},
      {"round_p50_s", Median(plain.obs.round_s), "s"},
      {"round_p90_s", round90.value, "s"},
      {"measurements", measured / variants, "count"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Per-layer metrics: decorator and stats-struct numbers from every campaign
// of the run, span self times from the traced ones; totals are per campaign.
std::vector<Metric> PerLayer(const Bucket& plain, const Bucket& traced,
                             const std::map<std::string, SpanTime>& spans, int threads_peak) {
  std::vector<const CampaignOutcome*> all;
  for (const Bucket* b : {&plain, &traced}) {
    for (const CampaignOutcome& o : b->outcomes) {
      all.push_back(&o);
    }
  }
  Observations obs = plain.obs;
  obs.Merge(traced.obs);
  const double n = static_cast<double>(all.size());
  const double n_traced = static_cast<double>(std::max<size_t>(1, traced.outcomes.size()));
  const auto mean = [&](auto field) { return Sum(all, field) / n; };
  const auto span_self = [&](const std::string& key) {
    const auto it = spans.find(key);
    return it == spans.end() ? 0.0 : it->second.self_s / n_traced;
  };
  const auto span_total = [&](const std::string& key) {
    const auto it = spans.find(key);
    return it == spans.end() ? 0.0 : it->second.total_s / n_traced;
  };
  double skeleton_deep = 0.0;
  for (const auto& [key, time] : spans) {
    if (key.rfind("skeleton.level#", 0) == 0 && std::atoi(key.c_str() + 15) >= 2) {
      skeleton_deep += time.self_s / n_traced;
    }
  }
  const double l0 = span_self("skeleton.level#0");
  const double l1 = span_self("skeleton.level#1");
  const double pds = span_total("fci.possible_dsep");
  const double entropic = span_total("engine.entropic");
  const double refresh_span = span_total("engine.refresh");

  double fleet_busy = 0.0, fleet_capacity = 0.0, max_queue = 0.0, widest = 0.0;
  for (const CampaignOutcome* o : all) {
    for (const auto& backend : o->fleet.backends) {
      fleet_busy += backend.busy_seconds;
      fleet_capacity += o->wall_s;
      max_queue = std::max(max_queue, static_cast<double>(backend.max_queue_depth));
    }
    widest = std::max({widest, static_cast<double>(o->pool.widest_cross_policy_batch),
                       static_cast<double>(o->pool.max_concurrent_refreshes)});
  }
  const double untraced_wall = Median(Walls(plain));
  return {
      {"stats.ci_tests_requested", mean([](auto& o) { return double(o.pool.tests_requested); }),
       "count"},
      {"stats.ci_tests_evaluated", mean([](auto& o) { return double(o.pool.tests_evaluated); }),
       "count"},
      {"stats.ci_cache_hit_rate",
       Ratio(Sum(all, [](auto& o) { return double(o.pool.cache_hits); }),
             Sum(all, [](auto& o) { return double(o.pool.tests_requested); })),
       "fraction"},
      {"stats.ci_cross_shard_hits",
       mean([](auto& o) { return double(o.pool.cross_shard_hits); }), "count"},
      {"stats.ci_cache_entries", mean([](auto& o) { return double(o.ci_cache_entries); }),
       "count"},
      {"causal.skeleton_l0_s", l0, "s"},
      {"causal.skeleton_l1_s", l1, "s"},
      {"causal.skeleton_deep_s", skeleton_deep, "s"},
      {"causal.orient_s", span_self("fci.orient"), "s"},
      {"causal.pds_s", pds, "s"},
      {"causal.entropic_s", entropic, "s"},
      {"causal.skeleton_share", Ratio(l0 + l1 + skeleton_deep, refresh_span), "fraction"},
      {"causal.pds_entropic_share", Ratio(pds + entropic, refresh_span), "fraction"},
      {"engine.refreshes", mean([](auto& o) { return double(o.pool.refreshes); }), "count"},
      {"engine.warm_refresh_p50_s", Median(obs.warm_refresh_s), "s"},
      {"engine.full_refresh_p50_s", Median(obs.full_refresh_s), "s"},
      {"engine.pairs_reused_frac",
       Ratio(static_cast<double>(obs.pairs_reused), static_cast<double>(obs.pairs_total)),
       "fraction"},
      {"engine.sync_rows_s", span_self("engine.sync_rows"), "s"},
      {"engine.absorb_s", obs.absorb_s / n, "s"},
      {"pool.refresh_s", mean([](auto& o) { return o.pool.refresh_seconds; }), "s"},
      {"pool.overlap_frac",
       Ratio(Sum(all, [](auto& o) { return o.pool.overlap_seconds; }),
             Sum(all, [](auto& o) { return o.pool.refresh_seconds; })),
       "fraction"},
      {"pool.widest_batch", widest, "count"},
      {"pool.refresh_wait_p90_s", NearestRank(obs.refresh_wait_s, 90.0, 10).value, "s"},
      {"campaign.rounds", static_cast<double>(obs.rounds) / n, "count"},
      {"campaign.propose_s", obs.propose_s / n, "s"},
      {"broker.requests", mean([](auto& o) { return double(o.broker.requests); }), "count"},
      {"broker.measured", mean([](auto& o) { return double(o.broker.measured); }), "count"},
      {"broker.cache_hit_rate",
       Ratio(Sum(all, [](auto& o) { return double(o.broker.cache_hits); }),
             Sum(all, [](auto& o) { return double(o.broker.requests); })),
       "fraction"},
      {"broker.failed", Sum(all, [](auto& o) { return double(o.broker.failures); }), "count"},
      {"broker.active_wall_s", mean([](auto& o) { return o.broker.active_wall_seconds; }), "s"},
      {"broker.utilization",
       Ratio(Sum(all, [](auto& o) { return o.broker.busy_seconds; }),
             Sum(all, [](auto& o) { return o.broker.active_wall_seconds; })),
       "fraction"},
      {"fleet.submitted", mean([](auto& o) { return double(o.fleet.submitted); }), "count"},
      {"fleet.retries", mean([](auto& o) { return double(o.fleet.retries); }), "count"},
      {"fleet.rerouted", mean([](auto& o) { return double(o.fleet.rerouted); }), "count"},
      {"fleet.failed", Sum(all, [](auto& o) { return double(o.fleet.failed); }), "count"},
      {"fleet.utilization", Ratio(fleet_busy, fleet_capacity), "fraction"},
      {"fleet.service_p50_s", Median(obs.service_s), "s"},
      {"fleet.max_queue_depth", max_queue, "count"},
      {"persist.table_load_s", mean([](auto& o) { return o.table_load_s; }), "s"},
      {"persist.cache_load_s", mean([](auto& o) { return o.cache_load_s; }), "s"},
      {"persist.table_save_s", mean([](auto& o) { return o.table_save_s; }), "s"},
      {"persist.cache_save_s", mean([](auto& o) { return o.cache_save_s; }), "s"},
      {"persist.bytes", mean([](auto& o) { return o.persist_bytes; }), "bytes"},
      {"sim.measure_calls", static_cast<double>(plain.sim_calls + traced.sim_calls) / n,
       "count"},
      {"sim.measure_s", (plain.sim_s + traced.sim_s) / n, "s"},
      {"proc.threads_peak", static_cast<double>(threads_peak), "count"},
      {"obs.trace_overhead_frac",
       untraced_wall > 0.0 ? Median(Walls(traced)) / untraced_wall - 1.0 : 0.0, "fraction"},
  };
}

int Run(const Args& args) {
  ThreadSampler sampler;
  Recorder recorder;
  SimCounter sim;
  const Probes probes{&recorder, &sim};

  // Set-up, several times: setup_s is the median, and every repetition must
  // produce the same inputs.
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  uint64_t setup_digest = 0;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    const auto start = Clock::now();
    workload = MakeWorkload(args.workload, args.seed, /*small=*/false, args.work_dir, probes);
    setup_s.push_back(SecondsSince(start));
    if (workload == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    if (k > 0 && workload->SetupDigest() != setup_digest) {
      errors.push_back("repeated set-up produced different inputs");
    }
    setup_digest = workload->SetupDigest();
  }
  recorder.Take();

  Bucket plain, traced;
  std::map<std::string, SpanTime> spans;
  std::map<size_t, uint64_t> signature_of;
  std::map<size_t, CampaignOutcome> first_of;  // first campaign of each variant
  uint64_t dropped_events = 0;
  const auto loop_start = Clock::now();
  // A pass runs every variant of the seed once (twice in trace runs, which
  // pair an untraced and a traced campaign of each variant). The loop stops
  // only at the end of a pass, so every run aggregates the same variants.
  const size_t pass = workload->variants() * (args.trace ? 2 : 1);
  for (size_t i = 0;; ++i) {
    const size_t variant = (args.trace ? i / 2 : i) % workload->variants();
    const bool is_traced = args.trace && i % 2 == 1;
    if (is_traced) {
      trace::Clear();
      trace::SetEnabled(true);
    }
    const long long calls_before = sim.calls.load();
    const long long nanos_before = sim.nanos.load();
    CampaignOutcome outcome = workload->RunCampaign(variant);
    Bucket& bucket = is_traced ? traced : plain;
    if (is_traced) {
      trace::SetEnabled(false);
      for (const auto& [key, time] : SpanTimes(trace::Collect())) {
        SpanTime& total = spans[key];
        total.total_s += time.total_s;
        total.self_s += time.self_s;
      }
      dropped_events += trace::DroppedEvents();
      if (!args.trace_out.empty() && !trace::WriteFile(args.trace_out)) {
        errors.push_back("cannot write the trace file");
      }
    }
    bucket.obs.Merge(recorder.Take());
    bucket.sim_calls += sim.calls.load() - calls_before;
    bucket.sim_s += static_cast<double>(sim.nanos.load() - nanos_before) * 1e-9;

    const auto known = signature_of.emplace(variant, outcome.signature);
    if (known.second) {
      first_of.emplace(variant, outcome);
    } else if (known.first->second != outcome.signature) {
      errors.push_back(std::string(is_traced ? "traced" : "untraced") +
                       " campaign did not reproduce the signature of variant " +
                       std::to_string(variant));
    }
    if (outcome.broker.failures > 0) {
      errors.push_back("a measurement request failed");
    }
    errors.insert(errors.end(), outcome.errors.begin(), outcome.errors.end());
    std::printf("campaign %zu: variant %zu%s, %.3f s, %zu refreshes, %zu measured\n", i, variant,
                is_traced ? " (traced)" : "", outcome.wall_s, outcome.pool.refreshes,
                outcome.broker.measured);
    bucket.outcomes.push_back(std::move(outcome));

    Observations basis = plain.obs;
    if (args.trace) {
      basis.Merge(traced.obs);
    }
    const bool enough = basis.refresh_s.size() >= kMinSamples &&
                        basis.round_s.size() >= kMinSamples &&
                        basis.refresh_wait_s.size() >= kMinSamples;
    const double elapsed = SecondsSince(loop_start);
    if (((i + 1) % pass == 0 && elapsed >= args.seconds && enough) ||
        elapsed >= kMaxLoopSeconds) {
      break;
    }
  }
  const std::vector<std::string> oracle_errors =
      workload->CheckOracle(0, signature_of.at(0));
  errors.insert(errors.end(), oracle_errors.begin(), oracle_errors.end());

  long long attempted = 0, failed = 0;
  for (const Bucket* b : {&plain, &traced}) {
    for (const CampaignOutcome& o : b->outcomes) {
      attempted += static_cast<long long>(o.broker.requests);
      failed += static_cast<long long>(o.broker.failures);
    }
  }
  const std::vector<Metric> metrics =
      args.trace ? PerLayer(plain, traced, spans, sampler.Peak())
                 : EndToEnd(setup_s, plain, first_of, &errors);

  std::printf("FINGERPRINT %s\n", FingerprintJson().c_str());
  std::printf("workload %s seed %llu: %zu untraced + %zu traced campaigns, %zu refreshes, "
              "%zu rounds, trace events dropped %llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain.outcomes.size(), traced.outcomes.size(),
              plain.obs.refresh_s.size() + traced.obs.refresh_s.size(),
              plain.obs.round_s.size() + traced.obs.round_s.size(),
              static_cast<unsigned long long>(dropped_events));
  // Repair and optimization quality, per instance mean. Deterministic per
  // seed but too seed-dependent for a bounded metric, so reported here only.
  double repair_gain = 0.0, opt_gain = 0.0;
  for (const auto& [variant, outcome] : first_of) {
    (void)variant;
    repair_gain += outcome.repair_gain_pct / static_cast<double>(first_of.size());
    opt_gain += outcome.opt_gain_pct / static_cast<double>(first_of.size());
  }
  std::printf("repair_gain_pct %.4f, opt_gain_pct %.4f (0 without optimize tenants)\n",
              repair_gain, opt_gain);
  for (const std::string& error : errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(errors.empty(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
