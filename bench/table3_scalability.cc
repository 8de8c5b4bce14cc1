// Table 3: scalability. SQLite with 34 vs 242 options (and 288 events),
// Deepstream with 53 options and 19 vs 288 events. Reports causal paths,
// evaluated queries, average node degree, discovery and query-evaluation
// times, and the gain of the resulting fix.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/common.h"
#include "causal/effects.h"
#include "obs/cli.h"
#include "obs/stats_export.h"
#include "unicorn/measurement_broker.h"
#include "unicorn/model_learner.h"
#include "util/text_table.h"

namespace unicorn {
namespace {

using Clock = std::chrono::steady_clock;

struct ScalabilityRow {
  std::string label;
  size_t options = 0;
  size_t events = 0;
  size_t paths = 0;
  size_t queries = 0;
  double degree = 0.0;
  double gain = 0.0;
  double discovery_s = 0.0;
  double query_eval_s = 0.0;
  double total_s = 0.0;
};

ScalabilityRow RunScenario(const std::string& label, SystemId id, const SystemSpec& spec,
                           uint64_t seed) {
  auto model = std::make_shared<SystemModel>(BuildSystem(id, spec));
  ScalabilityRow row;
  row.label = label;
  row.options = model->OptionIndices().size();
  row.events = model->EventIndices().size();

  const auto total_start = Clock::now();
  Rng rng(seed);
  const FaultCuration curation =
      CurateFaults(*model, Xavier(), DefaultWorkload(), 600, &rng, 0.97);
  const auto faults = bench::SelectFaults(*model, curation, bench::FaultKind::kLatency, 1);

  // Discovery: learn the causal performance model on the curated data
  // (capped at 200 rows — the loop never sees more than this in practice).
  std::vector<size_t> rows_idx;
  for (size_t r = 0; r < std::min<size_t>(200, curation.samples.NumRows()); ++r) {
    rows_idx.push_back(r);
  }
  const DataTable data = curation.samples.SelectRows(rows_idx);
  CausalModelOptions model_options;
  model_options.fci.skeleton.alpha = 0.1;
  model_options.fci.skeleton.max_cond_size = 1;
  model_options.fci.skeleton.max_subsets = 8;
  model_options.fci.max_pds_cond_size = 1;
  model_options.fci.use_possible_dsep = row.options < 100;  // cap the n^2 stage
  model_options.entropic.latent.restarts = 1;
  model_options.entropic.latent.iterations = 20;
  const auto discovery_start = Clock::now();
  const LearnedModel learned = LearnCausalPerformanceModel(data, model_options);
  row.discovery_s = std::chrono::duration<double>(Clock::now() - discovery_start).count();
  row.degree = learned.admg.AverageDegree();

  // Query evaluation: rank paths and score the interventional queries a
  // debugging round would issue (one ACE per edge on each extracted path).
  const CausalEffectEstimator estimator(learned.admg, data);
  const auto query_start = Clock::now();
  const auto paths = estimator.RankPaths(curation.objective_vars, 10000);
  row.paths = paths.size();
  for (const auto& ranked : paths) {
    row.queries += ranked.nodes.size() - 1;  // one do-query per edge
  }
  row.query_eval_s = std::chrono::duration<double>(Clock::now() - query_start).count();

  // One debugging run for the gain column.
  if (!faults.empty()) {
    const PerformanceTask task = MakeSimulatedTask(model, Xavier(), DefaultWorkload(), seed + 1);
    DebugOptions debug_options = bench::BenchDebugOptions();
    debug_options.max_iterations = 15;
    debug_options.model = model_options;
    UnicornDebugger debugger(task, debug_options);
    const DebugResult result = debugger.Debug(faults[0].config,
                                              GoalsForFault(curation, faults[0]));
    const size_t obj = faults[0].objectives[0];
    row.gain = Gain(faults[0].measurement[obj], result.fixed_measurement[obj]);
  }
  row.total_s = std::chrono::duration<double>(Clock::now() - total_start).count();
  return row;
}

void BM_Discovery242Options(benchmark::State& state) {
  SystemSpec spec;
  spec.num_events = 19;
  spec.extended_options = true;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kSqlite, spec));
  Rng rng(31);
  std::vector<std::vector<double>> configs;
  for (int i = 0; i < 100; ++i) {
    configs.push_back(model->SampleConfig(&rng));
  }
  const DataTable data = model->MeasureMany(configs, Xavier(), DefaultWorkload(), &rng);
  CausalModelOptions options;
  options.fci.skeleton.max_cond_size = 1;
  options.fci.skeleton.max_subsets = 8;
  options.fci.use_possible_dsep = false;
  options.entropic.latent.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LearnCausalPerformanceModel(data, options));
  }
}
BENCHMARK(BM_Discovery242Options)->Iterations(1);

// Incremental engine vs. from-scratch relearning: a 40-iteration
// UnicornDebugger::Debug run on the largest seeded system model (SQLite with
// 242 options and 288 events), once with the stateful engine (warm starts +
// threaded sweep) and once with every iteration relearning from scratch (the
// seed's behavior: no warm start, serial sweep).
// Goals are set near the distribution's floor so neither run terminates
// early and both execute exactly max_iterations model refreshes.
// Smoke mode (CI) shrinks the system and the budget so the binary proves it
// still runs end-to-end in seconds. `json` (optional) additionally records
// the headline numbers machine-readably.
void RunIncrementalComparison(bool smoke, bench::JsonResults* json = nullptr) {
  SystemSpec spec;
  spec.num_events = smoke ? 19 : 288;
  spec.extended_options = true;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kSqlite, spec));
  std::printf("\n=== Incremental engine vs from-scratch (SQLite %zu opts / %zu events) ===\n",
              model->OptionIndices().size(), model->EventIndices().size());

  Rng rng(700);
  const FaultCuration curation =
      CurateFaults(*model, Xavier(), DefaultWorkload(), smoke ? 300 : 600, &rng, 0.97);
  const auto faults = bench::SelectFaults(*model, curation, bench::FaultKind::kLatency, 1);
  if (faults.empty()) {
    std::printf("(no curated latency fault; skipping)\n");
    return;
  }
  // Near-unreachable goals keep the loop running for the full budget.
  const auto goals = GoalsForFault(curation, faults[0], 0.02);

  DebugOptions base = bench::BenchDebugOptions();
  base.max_iterations = smoke ? 8 : 40;
  base.stall_termination = 1000;
  base.model.fci.skeleton.alpha = 0.1;
  base.model.fci.skeleton.max_cond_size = 1;
  base.model.fci.skeleton.max_subsets = 8;
  base.model.fci.max_pds_cond_size = 1;
  base.model.fci.use_possible_dsep = false;  // cap the n^2 stage at this size
  base.model.entropic.latent.restarts = 1;
  base.model.entropic.latent.iterations = 20;

  struct LoopCost {
    double seconds = 0.0;
    double per_refresh = 0.0;
  };
  auto run = [&](const char* label, const DebugOptions& options, uint64_t seed) {
    const PerformanceTask task = MakeSimulatedTask(model, Xavier(), DefaultWorkload(), seed);
    UnicornDebugger debugger(task, options);
    const auto start = Clock::now();
    DebugResult result = debugger.Debug(faults[0].config, goals);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    const EngineStats& stats = result.engine_stats;
    std::printf("%-14s %6.2fs end-to-end | engine %s\n", label, seconds,
                obs::DumpStatsJson(stats).c_str());
    std::printf("  per-iteration CI tests:");
    for (size_t i = 0; i < result.tests_per_iteration.size(); ++i) {
      std::printf(" %lld", result.tests_per_iteration[i]);
    }
    std::printf("\n");
    LoopCost cost;
    cost.seconds = seconds;
    cost.per_refresh =
        stats.refreshes > 0 ? stats.total_seconds / static_cast<double>(stats.refreshes) : 0.0;
    return cost;
  };

  DebugOptions scratch = base;
  scratch.engine = EngineOptions{};  // exact relearn every iteration
  scratch.engine.num_threads = 1;

  DebugOptions incremental = base;
  incremental.engine.stale_epsilon = 0.05;
  incremental.engine.full_refresh_every = 8;
  incremental.engine.num_threads = 4;

  const LoopCost t_scratch = run("from-scratch", scratch, 900);
  // Serial incremental too: the speedup comes from warm starts, not from
  // threads (which only help further on multicore hosts).
  DebugOptions incremental_serial = incremental;
  incremental_serial.engine.num_threads = 1;
  const LoopCost t_serial = run("incr-serial", incremental_serial, 900);
  const LoopCost t_incremental = run("incremental", incremental, 900);
  std::printf("end-to-end speedup: %.2fx (acceptance target: >= 2x); "
              "per-refresh discovery: %.3fs -> %.3fs (%.2fx)\n",
              t_incremental.seconds > 0.0 ? t_scratch.seconds / t_incremental.seconds : 0.0,
              t_scratch.per_refresh, t_incremental.per_refresh,
              t_incremental.per_refresh > 0.0 ? t_scratch.per_refresh / t_incremental.per_refresh
                                              : 0.0);
  if (json != nullptr) {
    json->Add("incremental_engine", "scratch_seconds", t_scratch.seconds);
    json->Add("incremental_engine", "scratch_per_refresh_seconds", t_scratch.per_refresh);
    json->Add("incremental_engine", "incr_serial_seconds", t_serial.seconds);
    json->Add("incremental_engine", "incremental_seconds", t_incremental.seconds);
    json->Add("incremental_engine", "incremental_per_refresh_seconds",
              t_incremental.per_refresh);
    json->Add("incremental_engine", "end_to_end_speedup",
              t_incremental.seconds > 0.0 ? t_scratch.seconds / t_incremental.seconds : 0.0);
  }
}

// The measurement plane: batched measurement (threads=4) vs serial
// (threads=1), on the same SQLite system the incremental study uses.
// Two views:
//   (a) raw batch throughput — the same configurations (with duplicates)
//       through a serial broker and a 4-thread broker, rows checked
//       bit-identical;
//   (b) a full debugging loop whose bootstrap/repair batches fan out over
//       the broker — final models checked bit-identical, measurement-phase
//       wall time and the broker's dedup cache-hit rate reported.
void RunMeasurementPlaneComparison(bool smoke, bench::JsonResults* json = nullptr) {
  SystemSpec spec;
  spec.num_events = smoke ? 19 : 288;
  spec.extended_options = true;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kSqlite, spec));
  std::printf("\n=== Measurement plane: batched vs serial (SQLite %zu opts / %zu events) ===\n",
              model->OptionIndices().size(), model->EventIndices().size());

  // (a) Raw batch throughput.
  const PerformanceTask task = MakeSimulatedTask(model, Xavier(), DefaultWorkload(), 910);
  const size_t batch_size = smoke ? 64 : 256;
  Rng rng(911);
  std::vector<std::vector<double>> configs;
  configs.reserve(batch_size + batch_size / 4);
  for (size_t i = 0; i < batch_size; ++i) {
    configs.push_back(task.sample_config(&rng));
  }
  for (size_t i = 0; i < batch_size / 4; ++i) {
    configs.push_back(configs[i]);  // repeat configs exercise the dedup cache
  }

  struct BatchRun {
    double seconds = 0.0;
    double cache_hit_rate = 0.0;
    std::vector<std::vector<double>> rows;
  };
  auto time_batch = [&](int threads, bool dedup) {
    BrokerOptions options;
    options.num_threads = threads;
    options.dedup_cache = dedup;
    MeasurementBroker broker(task, options);
    BatchRun run;
    const auto start = Clock::now();
    run.rows = broker.MeasureBatch(configs);
    run.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    run.cache_hit_rate = broker.stats().CacheHitRate();
    return run;
  };
  // Naive serial = the pre-broker behavior: every request measured, one at
  // a time. The broker wins twice: dedup (fewer measurements — visible on
  // any host) and thread fan-out (visible with more than one core).
  const BatchRun naive = time_batch(1, false);
  const BatchRun serial_batch = time_batch(1, true);
  const BatchRun parallel_batch = time_batch(4, true);
  std::printf("batch of %zu (%zu unique, broker cache-hit %.0f%%), on %u visible core(s):\n",
              configs.size(), batch_size, 100.0 * parallel_batch.cache_hit_rate,
              std::thread::hardware_concurrency());
  std::printf("  naive serial (no dedup) %.3fs | broker serial %.3fs (%.2fx) | "
              "broker threads=4 %.3fs (%.2fx vs naive, %.2fx vs broker serial)\n",
              naive.seconds, serial_batch.seconds,
              serial_batch.seconds > 0.0 ? naive.seconds / serial_batch.seconds : 0.0,
              parallel_batch.seconds,
              parallel_batch.seconds > 0.0 ? naive.seconds / parallel_batch.seconds : 0.0,
              parallel_batch.seconds > 0.0 ? serial_batch.seconds / parallel_batch.seconds : 0.0);
  const bool batch_identical =
      naive.rows == serial_batch.rows && serial_batch.rows == parallel_batch.rows;
  std::printf("  rows bit-identical across all three: %s\n",
              batch_identical ? "yes" : "NO (bug)");
  if (json != nullptr) {
    json->Add("measurement_batch", "naive_serial_seconds", naive.seconds);
    json->Add("measurement_batch", "broker_serial_seconds", serial_batch.seconds);
    json->Add("measurement_batch", "broker_threads4_seconds", parallel_batch.seconds);
    json->Add("measurement_batch", "cache_hit_rate", parallel_batch.cache_hit_rate);
    json->Add("measurement_batch", "rows_bit_identical", batch_identical ? 1.0 : 0.0);
  }
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("  (single-core host: thread fan-out cannot improve wall clock here; the\n"
                "   dedup saving and the bit-identity guarantee are what's measurable)\n");
  }

  // (b) Debugging loop on the measurement plane.
  Rng curation_rng(912);
  const FaultCuration curation =
      CurateFaults(*model, Xavier(), DefaultWorkload(), smoke ? 300 : 600, &curation_rng, 0.97);
  const auto faults = bench::SelectFaults(*model, curation, bench::FaultKind::kLatency, 1);
  if (faults.empty()) {
    std::printf("(no curated latency fault; skipping the loop comparison)\n");
    return;
  }
  const auto goals = GoalsForFault(curation, faults[0], 0.02);
  DebugOptions base = bench::BenchDebugOptions();
  base.max_iterations = smoke ? 6 : 20;
  base.stall_termination = 1000;
  base.repairs_per_iteration = 4;  // four-repair batches per refresh
  base.model.fci.skeleton.max_cond_size = 1;
  base.model.fci.skeleton.max_subsets = 8;
  base.model.fci.max_pds_cond_size = 1;
  base.model.fci.use_possible_dsep = false;
  base.model.entropic.latent.restarts = 1;
  base.model.entropic.latent.iterations = 20;

  auto run_debug = [&](const char* label, int broker_threads) {
    const PerformanceTask debug_task =
        MakeSimulatedTask(model, Xavier(), DefaultWorkload(), 913);
    DebugOptions options = base;
    options.broker.num_threads = broker_threads;
    UnicornDebugger debugger(debug_task, options);
    const auto start = Clock::now();
    DebugResult result = debugger.Debug(faults[0].config, goals);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    // One schema for the whole ledger (obs::Fields) instead of a hand-picked
    // printf subset — the same fields the bench JSON gets via AddStats.
    std::printf("%-18s %6.2fs end-to-end | broker %s\n", label, seconds,
                obs::DumpStatsJson(result.broker_stats).c_str());
    return result;
  };
  const DebugResult serial = run_debug("serial-measure", 1);
  const DebugResult batched = run_debug("batched-measure", 4);
  const bool identical = serial.final_graph == batched.final_graph &&
                         serial.fixed_config == batched.fixed_config &&
                         serial.objective_trajectory == batched.objective_trajectory &&
                         serial.measurements_used == batched.measurements_used;
  std::printf("measurement-phase speedup: %.2fx (threads=4 vs threads=1, scales with\n"
              "  available cores — single-core hosts bound this at ~1x); "
              "final models bit-identical: %s\n",
              batched.broker_stats.batch_wall_seconds > 0.0
                  ? serial.broker_stats.batch_wall_seconds /
                        batched.broker_stats.batch_wall_seconds
                  : 0.0,
              identical ? "yes" : "NO (bug)");
  if (json != nullptr) {
    json->Add("measurement_loop", "serial_measuring_wall_seconds",
              serial.broker_stats.batch_wall_seconds);
    json->Add("measurement_loop", "batched_measuring_wall_seconds",
              batched.broker_stats.batch_wall_seconds);
    json->Add("measurement_loop", "broker_cache_hit_rate",
              batched.broker_stats.CacheHitRate());
    json->Add("measurement_loop", "models_bit_identical", identical ? 1.0 : 0.0);
    json->AddStats("measurement_loop_serial_broker", serial.broker_stats);
    json->AddStats("measurement_loop_batched_broker", batched.broker_stats);
  }
}

void RunTable(bool smoke, bench::JsonResults* json = nullptr) {
  TextTable table({"scenario", "options", "events", "paths", "queries", "avg degree",
                   "gain%", "discovery(s)", "query eval(s)", "total(s)"});
  auto add = [&](const ScalabilityRow& row) {
    table.AddRow({row.label, std::to_string(row.options), std::to_string(row.events),
                  std::to_string(row.paths), std::to_string(row.queries),
                  FormatDouble(row.degree, 1), FormatDouble(row.gain, 0),
                  FormatDouble(row.discovery_s, 2), FormatDouble(row.query_eval_s, 2),
                  FormatDouble(row.total_s, 2)});
  };
  {
    SystemSpec spec;
    spec.num_events = 19;
    add(RunScenario("SQLite 34 opts / 19 events", SystemId::kSqlite, spec, 300));
  }
  {
    SystemSpec spec;
    spec.num_events = 19;
    spec.extended_options = true;
    add(RunScenario("SQLite 242 opts / 19 events", SystemId::kSqlite, spec, 301));
  }
  {
    SystemSpec spec;
    spec.num_events = 288;
    spec.extended_options = true;
    add(RunScenario("SQLite 242 opts / 288 events", SystemId::kSqlite, spec, 302));
  }
  {
    SystemSpec spec;
    spec.num_events = 19;
    add(RunScenario("Deepstream 53 opts / 19 events", SystemId::kDeepstream, spec, 303));
  }
  {
    SystemSpec spec;
    spec.num_events = 288;
    add(RunScenario("Deepstream 53 opts / 288 events", SystemId::kDeepstream, spec, 304));
  }
  std::printf("\n=== Table 3: scalability ===\n%s", table.Render().c_str());
  std::printf("(expected shape: runtime grows polynomially, not exponentially, with\n"
              " options/events, because the learned graphs stay sparse — low degree)\n");
  RunIncrementalComparison(smoke, json);
  RunMeasurementPlaneComparison(smoke, json);
}

}  // namespace
}  // namespace unicorn

int main(int argc, char** argv) {
  bool incremental_only = false;
  bool smoke = false;
  std::string json_path;
  unicorn::obs::Cli obs_cli;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--incremental-only") {
      incremental_only = true;
    } else if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      obs_cli.trace_path = argv[++i];
    } else if (std::string(argv[i]) == "--metrics" && i + 1 < argc) {
      obs_cli.metrics_path = argv[++i];
    } else {
      argv[kept++] = argv[i];  // leave only benchmark-library flags in argv
    }
  }
  argc = kept;
  unicorn::bench::JsonResults json;
  unicorn::bench::JsonResults* json_ptr = json_path.empty() ? nullptr : &json;
  obs_cli.Begin();
  if (incremental_only) {
    // The two engine studies without the full Table 3 sweep (CI smoke mode
    // shrinks them further so perf binaries can't silently rot).
    unicorn::RunIncrementalComparison(smoke, json_ptr);
    unicorn::RunMeasurementPlaneComparison(smoke, json_ptr);
    if (int rc = obs_cli.End(); rc != 0) {
      return rc;
    }
    if (json_ptr != nullptr && !json.WriteFile(json_path, "table3_scalability")) {
      return 1;
    }
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  unicorn::RunTable(smoke, json_ptr);
  if (int rc = obs_cli.End(); rc != 0) {
    return rc;
  }
  if (json_ptr != nullptr && !json.WriteFile(json_path, "table3_scalability")) {
    return 1;
  }
  return 0;
}
