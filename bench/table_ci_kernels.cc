// Raw-speed study of the reasoning-core CI kernels, with determinism gates.
//
// Three parts:
//   1. Kernel self-check (always runs, deterministic): the fused/batched
//      kernels against the legacy reference arithmetic
//      (simd::SetReferenceKernels) — G-square p-values must be
//      BIT-IDENTICAL, Fisher-z correlations within 4 ulps, FirstIndependent
//      serially equivalent, and a full model discovery must produce the same
//      graph either way. Any divergence exits non-zero.
//   2. Per-refresh speed: the Table-3 incremental debugging workload (SQLite
//      242 options, stateful engine with warm starts), reporting
//      seconds per model refresh against the recorded
//      BENCH_table3_scalability.json baseline. Wall-clock ratios are
//      reported, not gated (timing is hosted-CI noise; the determinism
//      checks are the gates).
//   3. Warm-cache campaign: a cold engine run persists its CI cache
//      (CICache::SaveTo) and its table (binary format); a fresh process-like
//      warm engine restores both and must serve >= 80% of its first
//      refresh's tests from the cache, with rows and model bit-identical to
//      the cold run. Violations exit non-zero (this is a determinism
//      property, not a timing one).
//
//   4. Intra-refresh thread scaling: a Possible-D-SEP-heavy discovery swept
//      over engine thread counts {1, 2, 4, 8}; every count must reproduce
//      the t=1 graph and test/cache accounting bit-for-bit (always gated),
//      and t=8 must be >= 2x faster per refresh than t=1 (full mode, hosts
//      with >= 8 hardware threads).
//
// Flags: --smoke (CI-sized workload), --json <path> (machine-readable
// results, bench name "table_ci_kernels"), --gate-per-refresh <mult> (smoke
// mode: fail if per-refresh exceeds mult x the recorded
// smoke_per_refresh_seconds baseline, or if BENCH_table_ci_kernels.json in
// the working directory does not carry one), --trace/--metrics <path>
// (observability artifacts; see docs/OBSERVABILITY.md).
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "obs/cli.h"
#include "obs/stats_export.h"
#include "stats/ci_cache.h"
#include "stats/independence.h"
#include "stats/simd.h"
#include "unicorn/backend/binary_table.h"
#include "unicorn/model_learner.h"

namespace unicorn {
namespace {

using Clock = std::chrono::steady_clock;

// The recorded per-refresh cost of the incremental engine before this
// kernel pass (BENCH_table3_scalability.json at the repo root). The
// constant fallback is that file's value at the time the kernels landed,
// for runs from outside the repo root.
constexpr double kFallbackBaselinePerRefresh = 0.39761345679999993;

// One double out of a recorded bench JSON by key name (string search — the
// bench JSON writer emits every key exactly once). `fallback` when the file
// or the key is absent.
double ReadBaselineKey(const std::string& path, const std::string& key_name, double fallback) {
  std::ifstream in(path);
  if (!in) {
    return fallback;
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::string key = "\"" + key_name + "\": ";
  const size_t pos = text.find(key);
  if (pos == std::string::npos) {
    return fallback;
  }
  const char* begin = text.data() + pos + key.size();
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto result = std::from_chars(begin, end, value);
  return result.ec == std::errc() && value > 0.0 ? value : fallback;
}

double ReadBaselinePerRefresh(const std::string& path, double fallback) {
  return ReadBaselineKey(path, "incremental_per_refresh_seconds", fallback);
}

int64_t UlpDistance(double a, double b) {
  int64_t ia;
  int64_t ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  if (ia < 0) ia = INT64_MIN - ia;
  if (ib < 0) ib = INT64_MIN - ib;
  const int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

DataTable SelfCheckTable(size_t rows) {
  std::vector<Variable> vars = {
      {"c0", VarType::kContinuous, VarRole::kEvent, {}},
      {"c1", VarType::kContinuous, VarRole::kEvent, {}},
      {"c2", VarType::kContinuous, VarRole::kEvent, {}},
      {"d0", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"d1", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"d2", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
  };
  DataTable t(vars);
  Rng rng(4242);
  for (size_t r = 0; r < rows; ++r) {
    const double c0 = rng.Gaussian();
    const double d1 = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({c0, 0.7 * c0 + rng.Gaussian(0, 0.6), rng.Gaussian(),
              static_cast<double>(rng.UniformInt(uint64_t{2})), d1,
              rng.Bernoulli(0.8) ? d1 : static_cast<double>(rng.UniformInt(uint64_t{3}))});
  }
  return t;
}

// Returns true when the fast kernels reproduce the reference arithmetic.
// `max_ulp_out` reports the worst Fisher correlation divergence seen.
bool RunKernelSelfCheck(bool smoke, int64_t* max_ulp_out, bool* graphs_identical_out) {
  bool ok = true;
  int64_t max_ulp = 0;
  const std::vector<size_t> row_counts =
      smoke ? std::vector<size_t>{3, 65, 200} : std::vector<size_t>{3, 64, 65, 1000};
  for (size_t rows : row_counts) {
    const DataTable t = SelfCheckTable(rows);
    const std::vector<std::vector<int>> sets = {{}, {0}, {4}, {0, 4}, {0, 2, 4}, {0, 2, 4, 5}};
    for (int x : {0, 3}) {
      for (int y : {1, 5}) {
        for (const auto& s : sets) {
          std::vector<int> clean;
          for (int v : s) {
            if (v != x && v != y) {
              clean.push_back(v);
            }
          }
          simd::SetReferenceKernels(false);
          CompositeTest fast(t);
          const double p_fast = fast.PValue(x, y, clean);
          simd::SetReferenceKernels(true);
          CompositeTest ref(t);
          const double p_ref = ref.PValue(x, y, clean);
          const bool discrete = x == 3 || y == 5 || x == 5 || y == 3;
          if (discrete) {
            if (p_fast != p_ref) {
              std::fprintf(stderr,
                           "SELF-CHECK FAIL: G-square diverged (rows=%zu x=%d y=%d |s|=%zu): "
                           "%.17g vs %.17g\n",
                           rows, x, y, clean.size(), p_fast, p_ref);
              ok = false;
            }
          } else {
            const int64_t ulp = UlpDistance(p_fast, p_ref);
            const double rel = std::fabs(p_fast - p_ref) / std::max(1.0, std::fabs(p_ref));
            simd::SetReferenceKernels(false);
            const int64_t corr_ulp =
                UlpDistance(FisherZTest(t).Correlation(x, y),
                            (simd::SetReferenceKernels(true), FisherZTest(t).Correlation(x, y)));
            if (corr_ulp > max_ulp) {
              max_ulp = corr_ulp;
            }
            if (corr_ulp > 4 || rel > 1e-9) {
              std::fprintf(stderr,
                           "SELF-CHECK FAIL: Fisher-z diverged (rows=%zu x=%d y=%d |s|=%zu): "
                           "corr ulp=%lld p %.17g vs %.17g (p ulp=%lld)\n",
                           rows, x, y, clean.size(), static_cast<long long>(corr_ulp), p_fast,
                           p_ref, static_cast<long long>(ulp));
              ok = false;
            }
          }
        }
        // Batched dispatch must be serially equivalent (index, p, calls).
        simd::SetReferenceKernels(false);
        CompositeTest batched(t);
        CompositeTest serial(t);
        BatchedCIRequest req;
        req.x = x;
        req.y = y;
        req.sets = &sets;
        req.alpha = 0.1;
        double p_b = 0.0;
        const int idx_b = batched.FirstIndependent(req, &p_b);
        int idx_s = -1;
        double p_s = 0.0;
        for (size_t i = 0; i < sets.size(); ++i) {
          const double p = serial.PValue(x, y, sets[i]);
          if (p >= req.alpha) {
            idx_s = static_cast<int>(i);
            p_s = p;
            break;
          }
        }
        if (idx_b != idx_s || (idx_b >= 0 && p_b != p_s) ||
            batched.calls.Value() != serial.calls.Value()) {
          std::fprintf(stderr,
                       "SELF-CHECK FAIL: FirstIndependent not serially equivalent "
                       "(rows=%zu x=%d y=%d): idx %d vs %d, calls %lld vs %lld\n",
                       rows, x, y, idx_b, idx_s, batched.calls.Value(), serial.calls.Value());
          ok = false;
        }
      }
    }
  }
  // End-to-end: one full discovery with each kernel set must agree on the
  // learned graph (the engine's acceptance bar: results bit-identical).
  const DataTable t = SelfCheckTable(400);
  CausalModelOptions options;
  options.fci.skeleton.alpha = 0.1;
  options.fci.skeleton.max_cond_size = 1;
  options.fci.skeleton.max_subsets = 8;
  options.entropic.latent.restarts = 1;
  options.entropic.latent.iterations = 20;
  simd::SetReferenceKernels(false);
  const LearnedModel fast_model = LearnCausalPerformanceModel(t, options);
  simd::SetReferenceKernels(true);
  const LearnedModel ref_model = LearnCausalPerformanceModel(t, options);
  simd::SetReferenceKernels(false);
  const bool graphs_identical = fast_model.admg == ref_model.admg &&
                                fast_model.independence_tests == ref_model.independence_tests;
  if (!graphs_identical) {
    std::fprintf(stderr, "SELF-CHECK FAIL: discovery graph differs between kernel sets\n");
    ok = false;
  }
  *max_ulp_out = max_ulp;
  *graphs_identical_out = graphs_identical;
  std::printf("kernel self-check: %s (max Fisher correlation divergence: %lld ulp; "
              "discovery graphs identical: %s)\n",
              ok ? "PASS" : "FAIL", static_cast<long long>(max_ulp),
              graphs_identical ? "yes" : "no");
  return ok;
}

// The Table-3 incremental debugging workload, timed per model refresh.
// `gate_multiplier` > 0 turns the smoke-sized run into a perf-regression
// gate: per-refresh must stay within that multiple of the recorded
// smoke_per_refresh_seconds baseline (BENCH_table_ci_kernels.json).
// `per_refresh_out` (optional) reports the measured per-refresh seconds.
bool RunPerRefreshStudy(bool smoke, bench::JsonResults* json, double gate_multiplier,
                        double* per_refresh_out) {
  SystemSpec spec;
  spec.num_events = smoke ? 19 : 288;
  spec.extended_options = true;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kSqlite, spec));
  std::printf("\n=== CI-kernel per-refresh speed (SQLite %zu opts / %zu events) ===\n",
              model->OptionIndices().size(), model->EventIndices().size());

  Rng rng(700);
  const FaultCuration curation =
      CurateFaults(*model, Xavier(), DefaultWorkload(), smoke ? 300 : 600, &rng, 0.97);
  const auto faults = bench::SelectFaults(*model, curation, bench::FaultKind::kLatency, 1);
  if (faults.empty()) {
    std::printf("(no curated latency fault; skipping the speed study)\n");
    return true;
  }
  const auto goals = GoalsForFault(curation, faults[0], 0.02);

  DebugOptions options = bench::BenchDebugOptions();
  options.max_iterations = smoke ? 8 : 40;
  options.stall_termination = 1000;
  options.model.fci.skeleton.alpha = 0.1;
  options.model.fci.skeleton.max_cond_size = 1;
  options.model.fci.skeleton.max_subsets = 8;
  options.model.fci.max_pds_cond_size = 1;
  options.model.fci.use_possible_dsep = false;
  options.model.entropic.latent.restarts = 1;
  options.model.entropic.latent.iterations = 20;
  options.engine.stale_epsilon = 0.05;
  options.engine.full_refresh_every = 8;
  options.engine.num_threads = 4;
  options.engine.use_ci_cache = true;

  const PerformanceTask task = MakeSimulatedTask(model, Xavier(), DefaultWorkload(), 900);
  UnicornDebugger debugger(task, options);
  const auto start = Clock::now();
  const DebugResult result = debugger.Debug(faults[0].config, goals);
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  const EngineStats& stats = result.engine_stats;
  const double per_refresh =
      stats.refreshes > 0 ? stats.total_seconds / static_cast<double>(stats.refreshes) : 0.0;

  const double baseline =
      ReadBaselinePerRefresh("BENCH_table3_scalability.json", kFallbackBaselinePerRefresh);
  const double speedup = per_refresh > 0.0 ? baseline / per_refresh : 0.0;
  std::printf("%6.2fs end-to-end | %.4fs per refresh | engine %s\n", seconds, per_refresh,
              obs::DumpStatsJson(stats).c_str());
  if (smoke) {
    std::printf("per-refresh: %.4fs (smoke workload — not comparable to the recorded "
                "full-size baseline)\n",
                per_refresh);
  } else {
    std::printf("per-refresh vs recorded baseline: %.4fs -> %.4fs = %.2fx "
                "(acceptance target: >= 5x)\n",
                baseline, per_refresh, speedup);
  }
  if (json != nullptr) {
    json->Add("per_refresh", "end_to_end_seconds", seconds);
    json->Add("per_refresh", "discovery_seconds", stats.total_seconds);
    json->Add("per_refresh", "refreshes", static_cast<double>(stats.refreshes));
    json->Add("per_refresh", "per_refresh_seconds", per_refresh);
    json->Add("per_refresh", "baseline_per_refresh_seconds", baseline);
    json->Add("per_refresh", "speedup_vs_baseline", speedup);
    json->Add("per_refresh", "smoke", smoke ? 1.0 : 0.0);
  }
  if (per_refresh_out != nullptr) {
    *per_refresh_out = per_refresh;
  }
  // Wall-clock numbers never fail the run — except under an explicit
  // --gate-per-refresh, where CI trades a generous multiplier for an early
  // tripwire on per-refresh regressions.
  if (smoke && gate_multiplier > 0.0) {
    const double smoke_baseline =
        ReadBaselineKey("BENCH_table_ci_kernels.json", "smoke_per_refresh_seconds", 0.0);
    if (smoke_baseline <= 0.0) {
      // A gate that cannot find its baseline must fail, not pass: run it from
      // the repository root, where the recorded file lives.
      std::fprintf(stderr,
                   "per-refresh gate: cannot read smoke_per_refresh_seconds from "
                   "BENCH_table_ci_kernels.json in the working directory\n");
      return false;
    } else if (per_refresh > gate_multiplier * smoke_baseline) {
      std::fprintf(stderr,
                   "PER-REFRESH REGRESSION: %.4fs > %.2fx the recorded smoke baseline %.4fs\n",
                   per_refresh, gate_multiplier, smoke_baseline);
      return false;
    } else {
      std::printf("per-refresh gate: %.4fs within %.2fx of the recorded %.4fs baseline\n",
                  per_refresh, gate_multiplier, smoke_baseline);
    }
  }
  return true;
}

// --- Intra-refresh thread scaling -------------------------------------------
//
// A Possible-D-SEP-heavy discovery workload swept over engine thread counts
// {1, 2, 4, 8}. Two gates:
//   - bit identity (always): every thread count must reproduce the t=1
//     discovery graph AND the t=1 test/cache accounting exactly — the
//     parallel skeleton levels and entropic phase and the shared cache's
//     direct stores are contracted to be invisible in the results (the
//     PDS phase itself runs serially at every thread count).
//   - scaling (full mode, hosts with >= 8 hardware threads only): t=8 must
//     be >= 2x faster per refresh than t=1. Timing is never gated on
//     hosted-CI-sized machines.

// Chain-structured mixed table: enough surviving edges after the shallow
// skeleton pass that the PDS sweep dominates the refresh.
DataTable ScalingTable(size_t num_vars, size_t rows) {
  std::vector<Variable> vars;
  for (size_t v = 0; v < num_vars; ++v) {
    if (v % 3 == 0) {
      vars.push_back(
          {"o" + std::to_string(v), VarType::kDiscrete, VarRole::kOption, {0, 1, 2}});
    } else {
      vars.push_back({"e" + std::to_string(v), VarType::kContinuous, VarRole::kEvent, {}});
    }
  }
  DataTable t(vars);
  Rng rng(9090);
  std::vector<double> row(num_vars, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    double carry = 0.0;
    for (size_t v = 0; v < num_vars; ++v) {
      if (v % 3 == 0) {
        row[v] = static_cast<double>(rng.UniformInt(uint64_t{3}));
        carry = 0.4 * row[v];
      } else {
        row[v] = carry + rng.Gaussian(0, 1.0);
        carry = 0.5 * row[v];
      }
    }
    t.AddRow(row);
  }
  return t;
}

struct ScalingRun {
  double per_refresh = 0.0;
  MixedGraph admg;
  long long requested = 0;
  long long evaluated = 0;
  long long hits = 0;
};

ScalingRun RunScalingAt(const DataTable& base, const DataTable& extra, int threads) {
  CausalModelOptions mo;
  mo.fci.skeleton.alpha = 0.1;
  mo.fci.skeleton.max_cond_size = 1;
  mo.fci.skeleton.max_subsets = 8;
  mo.fci.use_possible_dsep = true;
  mo.fci.max_pds_cond_size = 2;
  mo.entropic.latent.restarts = 1;
  mo.entropic.latent.iterations = 20;
  EngineOptions eo;
  eo.num_threads = threads;
  eo.use_ci_cache = true;
  CausalModelEngine engine(base.Variables(), mo, eo);
  engine.AppendRows(base);
  engine.Refresh(311);
  engine.AppendRows(extra);  // second refresh exercises the warm paths too
  engine.Refresh(312);
  const EngineStats& stats = engine.stats();
  ScalingRun run;
  run.per_refresh =
      stats.refreshes > 0 ? stats.total_seconds / static_cast<double>(stats.refreshes) : 0.0;
  run.admg = engine.model().admg;
  run.requested = stats.total_tests_requested;
  run.evaluated = stats.total_tests_evaluated;
  run.hits = stats.total_cache_hits;
  return run;
}

bool RunThreadScalingStudy(bool smoke, bench::JsonResults* json) {
  const size_t num_vars = smoke ? 15 : 21;
  const size_t rows = smoke ? 160 : 320;
  const DataTable all = ScalingTable(num_vars, rows + rows / 2);
  std::vector<size_t> base_idx;
  std::vector<size_t> extra_idx;
  for (size_t r = 0; r < all.NumRows(); ++r) {
    (r < rows ? base_idx : extra_idx).push_back(r);
  }
  const DataTable base = all.SelectRows(base_idx);
  const DataTable extra = all.SelectRows(extra_idx);
  std::printf("\n=== Intra-refresh thread scaling (PDS-heavy, %zu vars, %zu rows) ===\n",
              num_vars, all.NumRows());

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<ScalingRun> runs;
  for (int t : thread_counts) {
    runs.push_back(RunScalingAt(base, extra, t));
  }

  bool ok = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    const ScalingRun& r = runs[i];
    const bool identical = r.admg == runs[0].admg && r.requested == runs[0].requested &&
                           r.evaluated == runs[0].evaluated && r.hits == runs[0].hits;
    const double speedup = r.per_refresh > 0.0 ? runs[0].per_refresh / r.per_refresh : 0.0;
    std::printf("threads=%d: %.4fs per refresh (%.2fx vs t=1) | tests %lld/%lld, "
                "hits %lld | bit-identical: %s\n",
                thread_counts[i], r.per_refresh, speedup, r.evaluated, r.requested, r.hits,
                identical ? "yes" : "NO (bug)");
    if (!identical) {
      std::fprintf(stderr,
                   "THREAD-SCALING FAIL: t=%d diverged from t=1 "
                   "(tests %lld/%lld vs %lld/%lld, hits %lld vs %lld)\n",
                   thread_counts[i], r.evaluated, r.requested, runs[0].evaluated,
                   runs[0].requested, r.hits, runs[0].hits);
      ok = false;
    }
    if (json != nullptr) {
      const std::string suffix = "_t" + std::to_string(thread_counts[i]);
      json->Add("thread_scaling", "per_refresh_seconds" + suffix, r.per_refresh);
      json->Add("thread_scaling", "speedup" + suffix, speedup);
      json->Add("thread_scaling", "bit_identical" + suffix, identical ? 1.0 : 0.0);
    }
  }
  const bool gate_timing = !smoke && std::thread::hardware_concurrency() >= 8;
  if (gate_timing) {
    const double speedup8 =
        runs.back().per_refresh > 0.0 ? runs[0].per_refresh / runs.back().per_refresh : 0.0;
    if (speedup8 < 2.0) {
      std::fprintf(stderr, "THREAD-SCALING FAIL: t=8 speedup %.2fx below the 2x gate\n",
                   speedup8);
      ok = false;
    } else {
      std::printf("t=8 scaling gate: %.2fx >= 2x PASS\n", speedup8);
    }
  } else {
    std::printf("(t=8 >= 2x timing gate %s; bit-identity gates always apply)\n",
                smoke ? "skipped in smoke mode" : "needs >= 8 hardware threads");
  }
  return ok;
}

// Cold run -> persist table (binary) + CI cache -> warm run restores both.
bool RunWarmCacheCampaign(bool smoke, bench::JsonResults* json) {
  SystemSpec spec;
  spec.num_events = 19;
  spec.extended_options = true;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kSqlite, spec));
  std::printf("\n=== Warm-cache campaign (persisted CI cache + binary table) ===\n");

  Rng rng(730);
  const FaultCuration curation =
      CurateFaults(*model, Xavier(), DefaultWorkload(), smoke ? 200 : 300, &rng, 0.97);
  std::vector<size_t> rows_idx;
  for (size_t r = 0; r < std::min<size_t>(smoke ? 120 : 200, curation.samples.NumRows()); ++r) {
    rows_idx.push_back(r);
  }
  const DataTable data = curation.samples.SelectRows(rows_idx);

  // Persist the curated table in the binary bulk format.
  MeasurementTable table;
  table.num_vars = data.NumVars();
  std::vector<size_t> option_idx = data.IndicesWithRole(VarRole::kOption);
  table.num_options = option_idx.size();
  for (size_t r = 0; r < data.NumRows(); ++r) {
    MeasurementTable::Entry entry;
    for (size_t o : option_idx) {
      entry.config.push_back(data.At(r, o));
    }
    entry.row = data.Row(r);
    entry.provenance = "bench-cold";
    table.entries.push_back(std::move(entry));
  }
  const std::string table_path = "/tmp/unicorn_bench_warm_table.bin";
  const std::string cache_path = "/tmp/unicorn_bench_warm_cache.bin";
  if (!SaveMeasurementTableBinary(table_path, table)) {
    std::fprintf(stderr, "WARM-CACHE FAIL: could not write %s\n", table_path.c_str());
    return false;
  }

  CausalModelOptions model_options;
  model_options.fci.skeleton.alpha = 0.1;
  model_options.fci.skeleton.max_cond_size = 1;
  model_options.fci.skeleton.max_subsets = 8;
  model_options.fci.max_pds_cond_size = 1;
  model_options.fci.use_possible_dsep = false;
  model_options.entropic.latent.restarts = 1;
  model_options.entropic.latent.iterations = 20;
  EngineOptions engine_options;
  engine_options.use_ci_cache = true;

  // Cold campaign: learn from the binary-seeded table, persist the cache.
  CICache cold_cache;
  CausalModelEngine cold(data.Variables(), model_options, engine_options);
  cold.ShareCICache(&cold_cache, 0);
  const size_t cold_rows = cold.SeedFromFile(table_path);
  const auto cold_start = Clock::now();
  cold.Refresh(77);
  const double cold_seconds = std::chrono::duration<double>(Clock::now() - cold_start).count();
  if (cold_rows != table.entries.size() || !cold_cache.SaveTo(cache_path)) {
    std::fprintf(stderr, "WARM-CACHE FAIL: cold campaign could not seed or persist\n");
    return false;
  }

  // Warm campaign: a fresh engine + cache, restored from disk.
  CICache warm_cache;
  const long long restored = warm_cache.LoadFrom(cache_path, 1);
  CausalModelEngine warm(data.Variables(), model_options, engine_options);
  warm.ShareCICache(&warm_cache, 1);
  const size_t warm_rows = warm.SeedFromFile(table_path);
  const auto warm_start = Clock::now();
  warm.Refresh(77);
  const double warm_seconds = std::chrono::duration<double>(Clock::now() - warm_start).count();

  const EngineStats& stats = warm.stats();
  const double hit_rate =
      stats.tests_requested > 0
          ? static_cast<double>(stats.cache_hits) / static_cast<double>(stats.tests_requested)
          : 0.0;
  const bool rows_identical =
      warm_rows == cold_rows && warm.data_fingerprint() == cold.data_fingerprint();
  const bool models_identical = warm.model().admg == cold.model().admg;
  std::printf("cold refresh %.3fs | %lld cache entries persisted | warm refresh %.3fs "
              "(%.2fx)\n",
              cold_seconds, restored, warm_seconds,
              warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0);
  std::printf("warm first refresh: %lld tests requested, %lld served from the restored "
              "cache (%.1f%% hit rate, required >= 80%%)\n",
              stats.tests_requested, stats.cache_hits, 100.0 * hit_rate);
  std::printf("rows bit-identical: %s | models bit-identical: %s\n",
              rows_identical ? "yes" : "NO (bug)", models_identical ? "yes" : "NO (bug)");
  if (json != nullptr) {
    json->Add("warm_cache", "persisted_entries", static_cast<double>(restored));
    json->Add("warm_cache", "cold_refresh_seconds", cold_seconds);
    json->Add("warm_cache", "warm_refresh_seconds", warm_seconds);
    json->Add("warm_cache", "first_refresh_tests_requested",
              static_cast<double>(stats.tests_requested));
    json->Add("warm_cache", "first_refresh_cache_hits", static_cast<double>(stats.cache_hits));
    json->Add("warm_cache", "first_refresh_hit_rate", hit_rate);
    json->Add("warm_cache", "rows_bit_identical", rows_identical ? 1.0 : 0.0);
    json->Add("warm_cache", "models_bit_identical", models_identical ? 1.0 : 0.0);
  }
  bool ok = true;
  if (hit_rate < 0.80) {
    std::fprintf(stderr, "WARM-CACHE FAIL: hit rate %.3f below the 0.80 floor\n", hit_rate);
    ok = false;
  }
  if (!rows_identical || !models_identical) {
    std::fprintf(stderr, "WARM-CACHE FAIL: warm run diverged from the cold run\n");
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace unicorn

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  unicorn::obs::Cli obs_cli;
  obs_cli.Scan(argc, argv);
  double gate_per_refresh = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::string(argv[i]) == "--gate-per-refresh" && i + 1 < argc) {
      gate_per_refresh = std::atof(argv[++i]);
    }
  }
  obs_cli.Begin();
  unicorn::bench::JsonResults json;
  unicorn::bench::JsonResults* json_ptr = json_path.empty() ? nullptr : &json;

  int64_t max_ulp = 0;
  bool graphs_identical = false;
  bool ok = unicorn::RunKernelSelfCheck(smoke, &max_ulp, &graphs_identical);
  if (json_ptr != nullptr) {
    json_ptr->Add("self_check", "bit_identical", ok ? 1.0 : 0.0);
    json_ptr->Add("self_check", "fisher_max_corr_ulp", static_cast<double>(max_ulp));
    json_ptr->Add("self_check", "discovery_graphs_identical", graphs_identical ? 1.0 : 0.0);
  }
  ok = unicorn::RunPerRefreshStudy(smoke, json_ptr, gate_per_refresh, nullptr) && ok;
  if (!smoke) {
    // Full runs also record the smoke-sized per-refresh cost, so the seeded
    // JSON carries the baseline the CI smoke gate compares against.
    double smoke_per_refresh = 0.0;
    ok = unicorn::RunPerRefreshStudy(true, nullptr, 0.0, &smoke_per_refresh) && ok;
    if (json_ptr != nullptr) {
      json_ptr->Add("per_refresh", "smoke_per_refresh_seconds", smoke_per_refresh);
    }
  }
  ok = unicorn::RunThreadScalingStudy(smoke, json_ptr) && ok;
  ok = unicorn::RunWarmCacheCampaign(smoke, json_ptr) && ok;
  if (int rc = obs_cli.End(); rc != 0) {
    return rc;
  }
  if (json_ptr != nullptr && !json.WriteFile(json_path, "table_ci_kernels")) {
    return 1;
  }
  return ok ? 0 : 1;
}
