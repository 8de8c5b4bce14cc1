#include "bench/common.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "baselines/bugdoc.h"
#include "baselines/cbi.h"
#include "baselines/dd.h"
#include "baselines/encore.h"

namespace unicorn {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

#ifndef UNICORN_BENCH_BUILD_TYPE
#define UNICORN_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef UNICORN_BENCH_COMPILER
#define UNICORN_BENCH_COMPILER "unknown"
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      const size_t start =
          colon == std::string::npos ? colon : line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

// The machine and build a bench number was measured on: the fields of
// perfbench's FINGERPRINT line.
std::string HostJson() {
#ifdef UNICORN_NO_OBS
  const bool no_obs = true;
#else
  const bool no_obs = false;
#endif
#ifdef UNICORN_NO_SIMD
  const bool no_simd = true;
#else
  const bool no_simd = false;
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"compiler\": " << JsonString(UNICORN_BENCH_COMPILER)
      << ", \"build_type\": " << JsonString(UNICORN_BENCH_BUILD_TYPE)
      << ", \"UNICORN_NO_OBS\": " << (no_obs ? "true" : "false")
      << ", \"UNICORN_NO_SIMD\": " << (no_simd ? "true" : "false") << "}";
  return out.str();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Gain over the fault: mean over the fault's objectives.
double MeanGain(const Fault& fault, const std::vector<double>& fixed_row) {
  double total = 0.0;
  for (size_t obj : fault.objectives) {
    total += Gain(fault.measurement[obj], fixed_row[obj]);
  }
  return fault.objectives.empty() ? 0.0
                                  : total / static_cast<double>(fault.objectives.size());
}

}  // namespace

DebugOptions BenchDebugOptions() {
  DebugOptions options;
  options.initial_samples = 25;
  options.max_iterations = 25;
  options.stall_termination = 25;
  options.repairs_per_iteration = 2;
  options.model.fci.skeleton.alpha = 0.1;
  options.model.fci.skeleton.max_cond_size = 2;
  options.model.fci.skeleton.max_subsets = 24;
  options.model.fci.max_pds_cond_size = 1;
  options.model.entropic.latent.restarts = 1;
  options.model.entropic.latent.iterations = 30;
  // Threads and the CI cache are exactness-preserving, so the accuracy
  // tables stay apples-to-apples with a from-scratch relearn. The
  // approximate warm-start knobs (stale_epsilon) are enabled only where
  // their effect is what's being measured (table3's incremental study).
  options.engine.num_threads = 4;
  // Measurement plane: batches fan out over 4 threads with rows
  // bit-identical to serial, so this is exactness-preserving too.
  options.broker.num_threads = 4;
  return options;
}

std::vector<Fault> SelectFaults(const SystemModel& model, const FaultCuration& curation,
                                FaultKind kind, size_t max_faults) {
  DataTable meta(model.variables());
  std::vector<Fault> selected;
  const auto want_single = [&](const char* name) {
    const auto idx = meta.IndexOf(name);
    if (!idx.has_value()) {
      return;
    }
    for (const auto& fault : FaultsOn(curation, *idx)) {
      if (!fault.root_causes.empty() && selected.size() < max_faults) {
        selected.push_back(fault);
      }
    }
  };
  switch (kind) {
    case FaultKind::kLatency:
      want_single(kLatencyName);
      break;
    case FaultKind::kEnergy:
      want_single(kEnergyName);
      break;
    case FaultKind::kHeat:
      want_single(kHeatName);
      break;
    case FaultKind::kMulti:
      for (const auto& fault : MultiObjectiveFaults(curation)) {
        if (!fault.root_causes.empty() && selected.size() < max_faults) {
          selected.push_back(fault);
        }
      }
      break;
  }
  return selected;
}

std::vector<MethodScore> RunDebugComparison(const DebugExperimentSpec& spec) {
  SystemSpec sys_spec;
  sys_spec.num_events = spec.num_events;
  auto model = std::make_shared<SystemModel>(BuildSystem(spec.system, sys_spec));
  Rng rng(spec.seed);
  const FaultCuration curation =
      CurateFaults(*model, spec.env, spec.workload, spec.curation_samples, &rng,
                   spec.percentile);
  const auto faults = SelectFaults(*model, curation, spec.kind, spec.max_faults);

  std::vector<MethodScore> scores(5);
  scores[0].method = "Unicorn";
  scores[1].method = "CBI";
  scores[2].method = "DD";
  scores[3].method = "EnCore";
  scores[4].method = "BugDoc";
  if (faults.empty()) {
    return scores;
  }

  // ACE weights per objective (computed once; faults share objectives).
  std::vector<double> weights(model->NumVars(), 0.0);
  {
    Rng ace_rng(spec.seed + 99);
    for (size_t obj : curation.objective_vars) {
      const auto w = TrueAceWeights(*model, obj, spec.env, spec.workload, spec.seed + 7, 12);
      for (size_t v = 0; v < w.size(); ++v) {
        weights[v] += w[v];
      }
    }
  }

  size_t fault_idx = 0;
  for (const auto& fault : faults) {
    ++fault_idx;
    const auto goals = GoalsForFault(curation, fault);
    const uint64_t fault_seed = spec.seed + 1000 * fault_idx;

    // Unicorn.
    {
      const PerformanceTask task =
          MakeSimulatedTask(model, spec.env, spec.workload, fault_seed);
      DebugOptions options = spec.unicorn_options;
      options.seed = fault_seed;
      UnicornDebugger debugger(task, options);
      const auto start = Clock::now();
      const DebugResult result = debugger.Debug(fault.config, goals);
      scores[0].seconds += SecondsSince(start);
      scores[0].accuracy +=
          AceWeightedJaccard(result.predicted_root_causes, fault.root_causes, weights);
      scores[0].precision += Precision(result.predicted_root_causes, fault.root_causes);
      scores[0].recall += Recall(result.predicted_root_causes, fault.root_causes);
      scores[0].gain += MeanGain(fault, result.fixed_measurement);
      scores[0].samples += static_cast<double>(result.measurements_used);
      scores[0].ci_tests += static_cast<double>(result.engine_stats.total_tests_requested);
      scores[0].cache_hit_rate += result.engine_stats.CacheHitRate();
      scores[0].meas_cache_hit_rate += result.broker_stats.CacheHitRate();
      ++scores[0].faults;
    }

    // Baselines.
    struct Entry {
      size_t index;
      BaselineDebugResult (*run)(const PerformanceTask&, const std::vector<double>&,
                                 const std::vector<ObjectiveGoal>&,
                                 const BaselineDebugOptions&);
    };
    const Entry entries[] = {
        {1, &CbiDebug}, {2, &DdDebug}, {3, &EncoreDebug}, {4, &BugDocDebug}};
    for (const auto& entry : entries) {
      const PerformanceTask task =
          MakeSimulatedTask(model, spec.env, spec.workload, fault_seed + entry.index);
      BaselineDebugOptions options;
      options.sample_budget = spec.baseline_budget;
      options.seed = fault_seed + entry.index;
      const auto start = Clock::now();
      const auto result = entry.run(task, fault.config, goals, options);
      MethodScore& score = scores[entry.index];
      score.seconds += SecondsSince(start);
      score.accuracy +=
          AceWeightedJaccard(result.predicted_root_causes, fault.root_causes, weights);
      score.precision += Precision(result.predicted_root_causes, fault.root_causes);
      score.recall += Recall(result.predicted_root_causes, fault.root_causes);
      score.gain += MeanGain(fault, result.fixed_measurement);
      score.samples += static_cast<double>(result.measurements_used);
      ++score.faults;
    }
  }
  for (auto& score : scores) {
    if (score.faults > 0) {
      const double n = static_cast<double>(score.faults);
      score.accuracy = 100.0 * score.accuracy / n;
      score.precision = 100.0 * score.precision / n;
      score.recall = 100.0 * score.recall / n;
      score.gain /= n;
      score.seconds /= n;
      score.samples /= n;
      score.ci_tests /= n;
      score.cache_hit_rate /= n;
      score.meas_cache_hit_rate /= n;
    }
  }
  return scores;
}

void JsonResults::Add(const std::string& section, const std::string& name, double value) {
  for (Section& s : sections_) {
    if (s.name == section) {
      s.metrics.push_back({name, value});
      return;
    }
  }
  sections_.push_back(Section{section, {{name, value}}});
}

std::string JsonResults::Serialize(const std::string& bench_name) const {
  std::ostringstream out;
  // %.17g round-trips doubles; integers print without an exponent.
  const auto number = [](double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    return std::string(buffer);
  };
  out << "{\"bench\": \"" << bench_name << "\", \"host\": " << HostJson()
      << ", \"sections\": {";
  for (size_t s = 0; s < sections_.size(); ++s) {
    out << (s > 0 ? ", " : "") << "\"" << sections_[s].name << "\": {";
    for (size_t m = 0; m < sections_[s].metrics.size(); ++m) {
      out << (m > 0 ? ", " : "") << "\"" << sections_[s].metrics[m].first
          << "\": " << number(sections_[s].metrics[m].second);
    }
    out << "}";
  }
  out << "}}\n";
  return out.str();
}

bool JsonResults::WriteFile(const std::string& path, const std::string& bench_name) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "json results: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << Serialize(bench_name);
  return static_cast<bool>(out);
}

std::string SystemLabel(SystemId id) {
  switch (id) {
    case SystemId::kDeepstream:
      return "DeepStream";
    case SystemId::kXception:
      return "Xception";
    case SystemId::kBert:
      return "BERT";
    case SystemId::kDeepspeech:
      return "Deepspeech";
    case SystemId::kX264:
      return "x264";
    case SystemId::kSqlite:
      return "SQLite";
  }
  return "?";
}

}  // namespace bench
}  // namespace unicorn
