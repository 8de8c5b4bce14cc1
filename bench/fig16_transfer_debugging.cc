// Fig. 16: transferring the causal performance model across hardware
// (Xavier source -> TX2 target) for debugging energy faults on Xception —
// run as a first-class transfer campaign on a heterogeneous fleet:
//
//   1. record on the source: measure observational samples through a fleet
//      whose only member is a live simulated Xavier device, persist the
//      broker cache as a MeasurementTable CSV (provenance column "Xavier");
//   2. seed the target shard: the recording's rows go straight into the
//      campaign engine as source-provenance rows (SeedFromTable);
//   3. debug on a target fleet of live simulated TX2 devices only: the
//      engine warm-starts from the seeded rows and refreshes incrementally
//      as target rows stream in.
//
// Scenarios: Unicorn (Reuse) / Unicorn + 25 / Unicorn (Rerun) vs BugDoc
// rerun from scratch. No scenario issues a fresh source-hardware
// measurement: every target fleet holds only TX2 devices, and the self-check
// at the end verifies it. `--smoke` shrinks everything to CI scale.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "baselines/bugdoc.h"
#include "bench/common.h"
#include "unicorn/backend/measurement_table.h"
#include "unicorn/campaign.h"
#include "util/text_table.h"

namespace unicorn {
namespace {

void BM_WarmStartDebug(benchmark::State& state) {
  SystemSpec spec;
  spec.num_events = 12;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
  Rng rng(16);
  const auto curation = CurateFaults(*model, Tx2(), DefaultWorkload(), 800, &rng, 0.97);
  const auto faults = bench::SelectFaults(*model, curation, bench::FaultKind::kEnergy, 1);
  if (faults.empty()) {
    return;
  }
  const PerformanceTask task = MakeSimulatedTask(model, Tx2(), DefaultWorkload(), 17);
  DebugOptions options = bench::BenchDebugOptions();
  options.initial_samples = 5;
  for (auto _ : state) {
    UnicornDebugger debugger(task, options);
    benchmark::DoNotOptimize(
        debugger.Debug(faults[0].config, GoalsForFault(curation, faults[0])));
  }
}
BENCHMARK(BM_WarmStartDebug)->Iterations(1);

// Builds the per-fault target fleet: two live TX2 devices. `task_seed` must
// match the target task so fleet rows equal what the target task itself
// measures.
std::unique_ptr<BackendFleet> MakeTransferFleet(const std::shared_ptr<SystemModel>& model,
                                                uint64_t task_seed) {
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (int b = 0; b < 2; ++b) {
    DeviceProfile profile;
    profile.name = "tx2-" + std::to_string(b);
    profile.seed = 700 + static_cast<uint64_t>(b);
    backends.push_back(
        MakeDeviceBackend(model, Tx2(), DefaultWorkload(), task_seed, std::move(profile)));
  }
  return std::make_unique<BackendFleet>(std::move(backends));
}

// Returns false when the transfer invariant (the engine holds the whole
// recording as source rows in transfer scenarios and none in Rerun, no
// request failed, and no fleet member could measure source hardware) broke
// — main turns that into a non-zero exit so the CI smoke job fails instead
// of logging a warning nobody reads.
bool RunFigure(bool smoke) {
  using Clock = std::chrono::steady_clock;
  SystemSpec spec;
  spec.num_events = 12;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));

  // --- Stage 1: record on the source hardware, through the plane ----------
  const size_t source_samples = smoke ? 40 : 150;
  const std::string table_path = "bench_fig16_source_table.csv";
  {
    const PerformanceTask src_task = MakeSimulatedTask(model, Xavier(), DefaultWorkload(), 161);
    std::vector<std::unique_ptr<MeasurementBackend>> backends;
    DeviceProfile profile;
    profile.name = "xavier-0";
    profile.seed = 600;
    backends.push_back(
        MakeDeviceBackend(model, Xavier(), DefaultWorkload(), 161, std::move(profile)));
    MeasurementBroker recorder(src_task, std::make_unique<BackendFleet>(std::move(backends)));

    Rng src_rng(161);
    std::vector<std::vector<double>> src_configs;
    for (size_t i = 0; i < source_samples; ++i) {
      src_configs.push_back(model->SampleConfig(&src_rng));
    }
    recorder.MeasureBatch(src_configs,
                          std::vector<std::string>(src_configs.size(), Xavier().name));
    recorder.SaveCache(table_path);
    std::printf("recorded %zu Xavier samples through the measurement plane "
                "(broker: %zu requests, %zu measured)\n",
                source_samples, recorder.stats().requests, recorder.stats().measured);
  }
  MeasurementTable source_table;
  if (!LoadMeasurementTable(table_path, &source_table)) {
    std::printf("failed to load the source recording\n");
    return false;
  }

  // --- Stage 2: target faults on TX2 ---------------------------------------
  Rng tgt_rng(162);
  const FaultCuration curation =
      CurateFaults(*model, Tx2(), DefaultWorkload(), smoke ? 600 : 2000, &tgt_rng, 0.97);
  const auto faults =
      bench::SelectFaults(*model, curation, bench::FaultKind::kEnergy, smoke ? 1 : 3);
  if (faults.empty()) {
    std::printf("no energy faults found\n");
    return false;
  }
  std::vector<double> weights(model->NumVars(), 0.0);
  {
    DataTable meta(model->variables());
    weights = TrueAceWeights(*model, *meta.IndexOf(kEnergyName), Tx2(), DefaultWorkload(), 163,
                             smoke ? 4 : 12);
  }

  struct Scenario {
    std::string name;
    size_t initial_samples;
    bool transfer;
  };
  const Scenario scenarios[] = {
      {"Unicorn (Reuse)", 0, true},   // seeded source rows, no fresh samples
      {"Unicorn + 25", 25, true},     // seeded source rows + 25 target samples
      {"Unicorn (Rerun)", 25, false}  // from scratch on the target fleet
  };

  TextTable table({"scenario", "accuracy", "precision", "recall", "gain%", "time(s)",
                   "src rows", "tgt rows"});
  bool all_scenarios_ok = true;
  for (const auto& scenario : scenarios) {
    double accuracy = 0.0;
    double precision = 0.0;
    double recall = 0.0;
    double gain = 0.0;
    double seconds = 0.0;
    double src_rows = 0.0;
    double tgt_rows = 0.0;
    bool transfer_ok = true;
    for (size_t f = 0; f < faults.size(); ++f) {
      const auto& fault = faults[f];
      const uint64_t task_seed = 164 + f;
      const PerformanceTask task =
          MakeSimulatedTask(model, Tx2(), DefaultWorkload(), task_seed);
      DebugOptions options = bench::BenchDebugOptions();
      options.initial_samples = scenario.initial_samples;
      options.seed = 165 + f;
      // Pin this policy's fresh measurements to live TX2 devices.
      options.environment = Tx2().name;
      if (smoke) {
        options.max_iterations = 10;
      }

      CampaignRunner runner(task, ToCampaignOptions(options),
                            MakeTransferFleet(model, task_seed));
      DebugPolicy inner(options, fault.config, GoalsForFault(curation, fault));
      const auto start = Clock::now();
      if (scenario.transfer) {
        runner.engine().SeedFromTable(source_table);
      }
      runner.Run({&inner});
      seconds += std::chrono::duration<double>(Clock::now() - start).count();

      const DebugResult& result = inner.result();
      accuracy += AceWeightedJaccard(result.predicted_root_causes, fault.root_causes, weights);
      precision += Precision(result.predicted_root_causes, fault.root_causes);
      recall += Recall(result.predicted_root_causes, fault.root_causes);
      const size_t obj = fault.objectives[0];
      gain += Gain(fault.measurement[obj], result.fixed_measurement[obj]);
      src_rows += static_cast<double>(result.source_rows);
      tgt_rows += static_cast<double>(result.target_rows);

      // The acceptance invariant: source-hardware rows only ever come from
      // the recording. Transfer scenarios must hold the WHOLE recording as
      // source rows, Rerun none, and every fleet member must be a TX2
      // device, so no request could have measured source hardware.
      const FleetStats fleet_stats = runner.broker().fleet_stats();
      const size_t expected = scenario.transfer ? source_table.entries.size() : 0;
      transfer_ok = transfer_ok && result.source_rows == expected && fleet_stats.failed == 0;
      for (const auto& backend : fleet_stats.backends) {
        transfer_ok = transfer_ok && backend.environment == Tx2().name;
      }
    }
    const double n = static_cast<double>(faults.size());
    table.AddRow({scenario.name, FormatDouble(100 * accuracy / n, 0),
                  FormatDouble(100 * precision / n, 0), FormatDouble(100 * recall / n, 0),
                  FormatDouble(gain / n, 0), FormatDouble(seconds / n, 2),
                  FormatDouble(src_rows / n, 0), FormatDouble(tgt_rows / n, 0)});
    if (!transfer_ok) {
      all_scenarios_ok = false;
      std::printf("FAILED: %s — transfer accounting broken (expected the whole recording\n"
                  " as source rows in transfer scenarios and none in Rerun, no failed\n"
                  " request, and only TX2 devices in the fleet)\n",
                  scenario.name.c_str());
    }
  }

  // BugDoc comparison: rerun from scratch in the target (its reuse story
  // requires retraining anyway — the paper's point).
  {
    double gain = 0.0;
    double accuracy = 0.0;
    double seconds = 0.0;
    for (size_t f = 0; f < faults.size(); ++f) {
      const auto& fault = faults[f];
      const PerformanceTask task =
          MakeSimulatedTask(model, Tx2(), DefaultWorkload(), 170 + f);
      BaselineDebugOptions options;
      options.sample_budget = smoke ? 60 : 125;
      options.seed = 171 + f;
      const auto start = Clock::now();
      const auto result = BugDocDebug(task, fault.config, GoalsForFault(curation, fault), options);
      seconds += std::chrono::duration<double>(Clock::now() - start).count();
      accuracy += AceWeightedJaccard(result.predicted_root_causes, fault.root_causes, weights);
      const size_t obj = fault.objectives[0];
      gain += Gain(fault.measurement[obj], result.fixed_measurement[obj]);
    }
    const double n = static_cast<double>(faults.size());
    table.AddRow({"BugDoc (Rerun)", FormatDouble(100 * accuracy / n, 0), "-", "-",
                  FormatDouble(gain / n, 0), FormatDouble(seconds / n, 2), "0", "-"});
  }

  std::printf("\n=== Fig. 16: Xavier -> TX2 transfer campaign on a heterogeneous fleet ===\n%s",
              table.Render().c_str());
  std::printf("(src rows = engine rows seeded from the Xavier recording; tgt rows =\n"
              " fresh TX2 measurements. Every target fleet holds only TX2 devices: zero\n"
              " fresh source-hardware measurements in every scenario.\n"
              " Expected shape: Unicorn+25 approaches Unicorn(Rerun) at a fraction of\n"
              " the fresh samples; Reuse alone degrades gracefully.)\n");
  std::remove(table_path.c_str());
  return all_scenarios_ok;
}

}  // namespace
}  // namespace unicorn

int main(int argc, char** argv) {
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];  // leave only benchmark-library flags in argv
    }
  }
  argc = kept;
  if (!smoke) {
    // The CI smoke run skips the registered microbenchmark: the campaign
    // itself is the coverage.
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return unicorn::RunFigure(smoke) ? 0 : 1;
}
