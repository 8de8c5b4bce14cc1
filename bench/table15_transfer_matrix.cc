// Table 15 (appendix): transferring causal models across hardware
// platforms, each cell a transfer campaign. Three scenarios: TX1->TX2
// (latency), TX2->Xavier (energy), Xavier->TX1 (heat); each with Unicorn
// (Reuse) / Unicorn+25 / Unicorn (Rerun). Per (scenario, system): record
// observational samples on a live simulated source device through the
// measurement plane, persist the table, then debug every fault on a fleet
// of live target devices only, seeding the engine with the recording in the
// Reuse and +25 variants — zero fresh source-hardware measurements in every
// variant. Exits 1 when a recording cannot be saved or loaded, or when a
// cell breaks the transfer accounting (see RunScenario).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench/common.h"
#include "unicorn/backend/measurement_table.h"
#include "unicorn/campaign.h"
#include "util/text_table.h"

namespace unicorn {
namespace {

void BM_TransferScenario(benchmark::State& state) {
  SystemSpec spec;
  spec.num_events = 12;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kX264, spec));
  Rng rng(15);
  benchmark::DoNotOptimize(CurateFaults(*model, Tx2(), DefaultWorkload(), 400, &rng, 0.97));
  for (auto _ : state) {
  }
}
BENCHMARK(BM_TransferScenario)->Iterations(1);

struct TransferSpec {
  const char* label;
  Environment source;
  Environment target;
  bench::FaultKind kind;
  const char* objective_name;
};

// Returns false when a recording could not be persisted or loaded, or when
// a cell broke the transfer invariant: source-hardware rows only ever come
// from the recording, so Reuse and +25 hold the whole recording as source
// rows, Rerun none; no request failed; and every fleet member is a target
// device, so no request could have measured source hardware.
bool RunScenario(const TransferSpec& ts, TextTable* table) {
  const std::string table_path = "bench_table15_source_table.csv";
  bool all_ok = true;
  const SystemId systems[] = {SystemId::kXception, SystemId::kBert, SystemId::kDeepspeech,
                              SystemId::kX264};
  for (SystemId id : systems) {
    SystemSpec spec;
    spec.num_events = 12;
    auto model = std::make_shared<SystemModel>(BuildSystem(id, spec));
    DataTable meta(model->variables());
    const size_t objective = *meta.IndexOf(ts.objective_name);

    // Record the source hardware through the measurement plane: one live
    // simulated device of the source environment, persisted with its
    // environment as the provenance column.
    {
      const PerformanceTask src_task =
          MakeSimulatedTask(model, ts.source, DefaultWorkload(), 150 + static_cast<uint64_t>(id));
      std::vector<std::unique_ptr<MeasurementBackend>> backends;
      DeviceProfile profile;
      profile.name = std::string(ts.source.name) + "-dev";
      profile.seed = 900 + static_cast<uint64_t>(id);
      backends.push_back(MakeDeviceBackend(model, ts.source, DefaultWorkload(),
                                           150 + static_cast<uint64_t>(id), std::move(profile)));
      MeasurementBroker recorder(src_task, std::make_unique<BackendFleet>(std::move(backends)));
      Rng src_rng(150 + static_cast<uint64_t>(id));
      std::vector<std::vector<double>> src_configs;
      for (int i = 0; i < 120; ++i) {
        src_configs.push_back(model->SampleConfig(&src_rng));
      }
      recorder.MeasureBatch(src_configs,
                            std::vector<std::string>(src_configs.size(), ts.source.name));
      if (!recorder.SaveCache(table_path)) {
        std::printf("FAILED: %s/%s skipped — could not persist the source recording\n",
                    ts.label, bench::SystemLabel(id).c_str());
        all_ok = false;
        continue;
      }
    }
    MeasurementTable source_table;
    if (!LoadMeasurementTable(table_path, &source_table)) {
      std::printf("FAILED: %s/%s skipped — could not load the source recording\n",
                  ts.label, bench::SystemLabel(id).c_str());
      all_ok = false;
      continue;
    }

    Rng tgt_rng(160 + static_cast<uint64_t>(id));
    const FaultCuration curation =
        CurateFaults(*model, ts.target, DefaultWorkload(), 2000, &tgt_rng, 0.97);
    const auto faults = bench::SelectFaults(*model, curation, ts.kind, 2);
    if (faults.empty()) {
      continue;
    }
    const auto weights =
        TrueAceWeights(*model, objective, ts.target, DefaultWorkload(), 161, 10);

    struct Scenario {
      const char* name;
      size_t initial;
      bool transfer;
    };
    const Scenario scenarios[] = {
        {"Reuse", 0, true}, {"+25", 25, true}, {"Rerun", 25, false}};
    for (const auto& scenario : scenarios) {
      double accuracy = 0.0;
      double recall = 0.0;
      double precision = 0.0;
      double gain = 0.0;
      double src_rows = 0.0;
      double tgt_rows = 0.0;
      bool transfer_ok = true;
      for (size_t f = 0; f < faults.size(); ++f) {
        const auto& fault = faults[f];
        const uint64_t task_seed = 170 + f;
        const PerformanceTask task =
            MakeSimulatedTask(model, ts.target, DefaultWorkload(), task_seed);
        DebugOptions options = bench::BenchDebugOptions();
        options.initial_samples = scenario.initial;
        options.seed = 171 + f;
        options.environment = ts.target.name;

        // Target fleet: two live target devices.
        std::vector<std::unique_ptr<MeasurementBackend>> backends;
        for (int b = 0; b < 2; ++b) {
          DeviceProfile profile;
          profile.name = std::string(ts.target.name) + "-" + std::to_string(b);
          profile.seed = 950 + static_cast<uint64_t>(b);
          backends.push_back(MakeDeviceBackend(model, ts.target, DefaultWorkload(), task_seed,
                                               std::move(profile)));
        }

        CampaignRunner runner(task, ToCampaignOptions(options),
                              std::make_unique<BackendFleet>(std::move(backends)));
        DebugPolicy inner(options, fault.config, GoalsForFault(curation, fault));
        if (scenario.transfer) {
          runner.engine().SeedFromTable(source_table);
        }
        runner.Run({&inner});
        const DebugResult& result = inner.result();
        accuracy +=
            AceWeightedJaccard(result.predicted_root_causes, fault.root_causes, weights);
        precision += Precision(result.predicted_root_causes, fault.root_causes);
        recall += Recall(result.predicted_root_causes, fault.root_causes);
        const size_t obj = fault.objectives[0];
        gain += Gain(fault.measurement[obj], result.fixed_measurement[obj]);
        src_rows += static_cast<double>(result.source_rows);
        tgt_rows += static_cast<double>(result.target_rows);

        const FleetStats fleet_stats = runner.broker().fleet_stats();
        const size_t expected = scenario.transfer ? source_table.entries.size() : 0;
        transfer_ok = transfer_ok && result.source_rows == expected && fleet_stats.failed == 0;
        for (const auto& backend : fleet_stats.backends) {
          transfer_ok = transfer_ok && backend.environment == ts.target.name;
        }
      }
      const double n = static_cast<double>(faults.size());
      table->AddRow({ts.label, bench::SystemLabel(id), scenario.name,
                     FormatDouble(100 * accuracy / n, 0), FormatDouble(100 * recall / n, 0),
                     FormatDouble(100 * precision / n, 0), FormatDouble(gain / n, 0),
                     FormatDouble(src_rows / n, 0), FormatDouble(tgt_rows / n, 0)});
      if (!transfer_ok) {
        all_ok = false;
        std::printf("FAILED: %s/%s/%s — transfer accounting broken (expected the whole\n"
                    " recording as source rows in Reuse and +25 and none in Rerun, no failed\n"
                    " request, and only %s devices in the fleet)\n",
                    ts.label, bench::SystemLabel(id).c_str(), scenario.name,
                    ts.target.name.c_str());
      }
    }
  }
  std::remove(table_path.c_str());
  return all_ok;
}

}  // namespace
}  // namespace unicorn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  using unicorn::bench::FaultKind;
  unicorn::TextTable table({"scenario", "system", "variant", "accuracy", "recall", "precision",
                            "gain%", "src rows", "tgt rows"});
  bool all_ok = unicorn::RunScenario({"TX1->TX2 latency", unicorn::Tx1(), unicorn::Tx2(),
                                      FaultKind::kLatency, unicorn::kLatencyName},
                                     &table);
  all_ok &= unicorn::RunScenario({"TX2->Xavier energy", unicorn::Tx2(), unicorn::Xavier(),
                                  FaultKind::kEnergy, unicorn::kEnergyName},
                                 &table);
  all_ok &= unicorn::RunScenario({"Xavier->TX1 heat", unicorn::Xavier(), unicorn::Tx1(),
                                  FaultKind::kHeat, unicorn::kHeatName},
                                 &table);
  std::printf("\n=== Table 15: cross-hardware transfer matrix (fleet campaigns) ===\n%s",
              table.Render().c_str());
  std::printf("(every cell ran on a fleet of 2 live target devices; Reuse and +25\n"
              " seeded the engine with the source recording. src/tgt rows = engine\n"
              " provenance split. Expected shape: +25 close to Rerun; Reuse degrades\n"
              " but stays useful)\n");
  return all_ok ? 0 : 1;
}
