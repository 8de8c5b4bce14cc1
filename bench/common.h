// Shared experiment harness for the benchmark binaries.
//
// Every table/figure bench reuses the same pipeline: curate faults from the
// ground-truth simulator, run Unicorn and the baselines on each fault with
// the same QoS goals and budget, score root-cause diagnoses against the
// ground truth (ACE-weighted Jaccard, precision, recall), and score repairs
// by gain. Binaries format the aggregate rows the way the paper's tables do.
#ifndef UNICORN_BENCH_COMMON_H_
#define UNICORN_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "eval/metrics.h"
#include "obs/stats_export.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/debugger.h"

namespace unicorn {
namespace bench {

// Aggregated debugging metrics for one (system, method) cell of Table 2.
struct MethodScore {
  std::string method;
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double gain = 0.0;       // percent improvement over the fault
  double seconds = 0.0;    // wallclock per fault
  double samples = 0.0;    // measurements per fault
  size_t faults = 0;
  // Discovery-cost accounting (Unicorn only; from DebugResult::engine_stats):
  // CI tests requested per fault and the engine's cumulative cache-hit rate.
  double ci_tests = 0.0;
  double cache_hit_rate = 0.0;
  // Measurement-plane accounting (Unicorn only; from
  // DebugResult::broker_stats): dedup-cache hit rate of the broker.
  double meas_cache_hit_rate = 0.0;
};

enum class FaultKind { kLatency, kEnergy, kHeat, kMulti };

struct DebugExperimentSpec {
  SystemId system = SystemId::kXception;
  Environment env;
  Workload workload;
  FaultKind kind = FaultKind::kLatency;
  size_t curation_samples = 2000;
  double percentile = 0.97;
  size_t max_faults = 4;          // faults evaluated per cell
  size_t baseline_budget = 120;   // measurement budget for baselines
  DebugOptions unicorn_options;   // tuned-down model options set by Default()
  uint64_t seed = 1234;
  int num_events = 12;
};

// Default Unicorn options for benches (small conditioning sets: the graphs
// are sparse and the loop relearns frequently).
DebugOptions BenchDebugOptions();

// Runs Unicorn + the four debugging baselines over the curated faults of the
// spec. Returned vector: unicorn, cbi, dd, encore, bugdoc (in that order).
std::vector<MethodScore> RunDebugComparison(const DebugExperimentSpec& spec);

// Selects the faults of the requested kind from a curation.
std::vector<Fault> SelectFaults(const SystemModel& model, const FaultCuration& curation,
                                FaultKind kind, size_t max_faults);

// Pretty system name for table rows.
std::string SystemLabel(SystemId id);

// Machine-readable bench results (the perf trajectory: `--json <path>`
// writes a BENCH_*.json next to the human tables, so successive runs can be
// diffed by tooling instead of by eye). Metrics accumulate as
// (section, name, value) and serialize as one nested JSON object:
//   {"bench": "<name>", "host": {...},
//    "sections": {"<section>": {"<name>": value, ...}}}
// "host" names the machine and build the numbers come from, with the fields
// of perfbench's FINGERPRINT line (nproc, cpu_model, compiler, build_type,
// UNICORN_NO_OBS, UNICORN_NO_SIMD), so a recorded baseline says where it was
// recorded. Sections and names keep insertion order. No external JSON
// dependency.
class JsonResults {
 public:
  void Add(const std::string& section, const std::string& name, double value);
  // One section per stats struct, fields in obs::Fields order — the same
  // schema obs::DumpStatsJson prints, so bench JSON and console stats blocks
  // can never drift apart.
  template <typename Stats>
  void AddStats(const std::string& section, const Stats& stats) {
    for (const auto& [name, value] : obs::Fields(stats)) {
      Add(section, name, value);
    }
  }
  std::string Serialize(const std::string& bench_name) const;
  // Returns false (and prints to stderr) when the file cannot be written.
  bool WriteFile(const std::string& path, const std::string& bench_name) const;

 private:
  struct Section {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::vector<Section> sections_;
};

}  // namespace bench
}  // namespace unicorn

#endif  // UNICORN_BENCH_COMMON_H_
