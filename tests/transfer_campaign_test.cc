// Transfer campaigns on heterogeneous fleets: the acceptance stack of the
// transfer rework.
//
//   * The fleet-backed path — record the source environment, persist the
//     table, replay it through a RecordedBackend into a fleet with live
//     target devices, debug via TransferPolicy — must be BIT-IDENTICAL to
//     the legacy warm-table path (UnicornDebugger::Debug(fault, goals,
//     &warm_table)): same rows, same refresh-seed stream, same model, same
//     diagnosis. The fleet is plumbing, never semantics.
//   * The "Reuse" scenario issues zero fresh source-hardware measurements:
//     every source row is served by the recording (there is no live source
//     member to leak onto, and tagged target requests cannot land on the
//     recording either).
#include "unicorn/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "eval/harness.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/backend/recorded_backend.h"
#include "unicorn/debugger.h"

namespace unicorn {
namespace {

struct Scenario {
  std::shared_ptr<SystemModel> model;
  PerformanceTask target_task;  // TX2, the debugging environment
  FaultCuration curation;
  uint64_t target_task_seed = 0;
};

Scenario MakeScenario(uint64_t seed) {
  Scenario s;
  SystemSpec spec;
  spec.num_events = 10;
  s.model = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
  Rng rng(seed);
  s.curation = CurateFaults(*s.model, Tx2(), DefaultWorkload(), 1200, &rng, 0.97);
  s.target_task_seed = seed + 1;
  s.target_task = MakeSimulatedTask(s.model, Tx2(), DefaultWorkload(), s.target_task_seed);
  return s;
}

DebugOptions FastDebugOptions() {
  DebugOptions options;
  options.initial_samples = 15;
  options.max_iterations = 10;
  options.stall_termination = 20;
  options.repairs_per_iteration = 2;
  options.model.fci.skeleton.max_cond_size = 2;
  options.model.fci.skeleton.max_subsets = 16;
  options.model.fci.max_pds_cond_size = 1;
  options.model.entropic.latent.restarts = 1;
  options.model.entropic.latent.iterations = 25;
  return options;
}

const Fault* PickFault(const FaultCuration& curation) {
  for (const auto& f : curation.faults) {
    if (!f.root_causes.empty()) {
      return &f;
    }
  }
  return nullptr;
}

// Records `count` Xavier measurements through a source fleet (one live
// Xavier device), persists them, and returns the loaded table — provenance
// column "Xavier" throughout.
MeasurementTable RecordSource(const Scenario& s, size_t count, uint64_t seed,
                              const std::string& path) {
  const PerformanceTask src_task =
      MakeSimulatedTask(s.model, Xavier(), DefaultWorkload(), seed);
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  DeviceProfile profile;
  profile.name = "xavier-live";
  profile.seed = seed + 100;
  backends.push_back(
      MakeDeviceBackend(s.model, Xavier(), DefaultWorkload(), seed, std::move(profile)));
  MeasurementBroker recorder(src_task, std::make_unique<BackendFleet>(std::move(backends)));

  Rng rng(seed);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < count; ++i) {
    configs.push_back(s.model->SampleConfig(&rng));
  }
  recorder.MeasureBatch(configs, std::vector<std::string>(configs.size(), "Xavier"));
  EXPECT_TRUE(recorder.SaveCache(path));

  MeasurementTable table;
  EXPECT_TRUE(LoadMeasurementTable(path, &table));
  EXPECT_EQ(table.entries.size(), count);
  EXPECT_EQ(table.UniformProvenance(), "Xavier");
  return table;
}

// Target fleet: the source recording + two live TX2 devices whose task seed
// matches the target task (so fleet rows equal the target task's own rows).
std::unique_ptr<BackendFleet> MakeTargetFleet(const Scenario& s,
                                              const MeasurementTable& source_table) {
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  backends.push_back(std::make_unique<RecordedBackend>(source_table, "xavier-recorded"));
  for (int b = 0; b < 2; ++b) {
    DeviceProfile profile;
    profile.name = "tx2-" + std::to_string(b);
    profile.seed = 400 + static_cast<uint64_t>(b);
    backends.push_back(MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(),
                                         s.target_task_seed, std::move(profile)));
  }
  return std::make_unique<BackendFleet>(std::move(backends));
}

// The acceptance pin: fleet-backed TransferPolicy == legacy warm-table
// Debug, bit for bit, for both the "+N fresh samples" and the "Reuse"
// (zero fresh bootstrap samples) shapes.
TEST(TransferCampaignTest, FleetTransferMatchesLegacyWarmTableBitForBit) {
  const Scenario s = MakeScenario(500);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);

  const std::string path = ::testing::TempDir() + "transfer_source_table.csv";
  const MeasurementTable source_table = RecordSource(s, 40, 510, path);

  // Legacy warm table: the same rows, in the same order, as a DataTable.
  DataTable warm(s.model->variables());
  warm.Reserve(source_table.entries.size());
  for (const auto& entry : source_table.entries) {
    warm.AddRow(entry.row);
  }

  for (const size_t initial_samples : {size_t{15}, size_t{0}}) {
    DebugOptions options = FastDebugOptions();
    options.initial_samples = initial_samples;

    // Legacy path: task-only broker, warm-start DataTable.
    UnicornDebugger debugger(s.target_task, options);
    const DebugResult legacy = debugger.Debug(fault->config, goals, &warm);

    // Fleet path: recorded source + live TX2 devices, TransferPolicy.
    DebugOptions fleet_options = options;
    fleet_options.environment = "TX2";  // fresh rows only from live TX2
    CampaignRunner runner(s.target_task, ToCampaignOptions(fleet_options),
                          MakeTargetFleet(s, source_table));
    DebugPolicy inner(fleet_options, fault->config, goals);
    TransferOptions transfer_options;
    transfer_options.source_environment = "Xavier";
    TransferPolicy transfer(transfer_options, source_table, &inner);
    runner.Run({&transfer});
    const DebugResult& fleet = inner.result();

    EXPECT_EQ(fleet.fixed, legacy.fixed) << "initial_samples=" << initial_samples;
    EXPECT_EQ(fleet.measurements_used, legacy.measurements_used);
    EXPECT_EQ(fleet.fixed_config, legacy.fixed_config);
    EXPECT_EQ(fleet.fixed_measurement, legacy.fixed_measurement);
    EXPECT_EQ(fleet.objective_trajectory, legacy.objective_trajectory);
    EXPECT_EQ(fleet.selected_options, legacy.selected_options);
    EXPECT_EQ(fleet.predicted_root_causes, legacy.predicted_root_causes);
    EXPECT_EQ(fleet.tests_per_iteration, legacy.tests_per_iteration);
    EXPECT_TRUE(fleet.final_graph == legacy.final_graph);

    // Both paths report the same provenance split.
    EXPECT_EQ(fleet.source_rows, source_table.entries.size());
    EXPECT_EQ(legacy.source_rows, source_table.entries.size());
    EXPECT_EQ(fleet.target_rows, fleet.measurements_used);
    EXPECT_EQ(transfer.stats().source_rows, source_table.entries.size());
    EXPECT_EQ(transfer.stats().target_rows, fleet.measurements_used);

    // Zero fresh source-hardware measurements: the recording answered every
    // source-tagged request, the live TX2 members everything else.
    const FleetStats stats = runner.broker().fleet_stats();
    ASSERT_EQ(stats.backends.size(), 3u);
    EXPECT_EQ(stats.backends[0].environment, "Xavier");
    EXPECT_EQ(stats.backends[0].completed, source_table.entries.size());
    size_t live_completed = 0;
    for (size_t b = 1; b < stats.backends.size(); ++b) {
      EXPECT_EQ(stats.backends[b].environment, "TX2");
      live_completed += stats.backends[b].completed;
    }
    EXPECT_EQ(live_completed, runner.broker().stats().measured -
                                  source_table.entries.size());
    EXPECT_EQ(stats.failed, 0u);
  }
  std::remove(path.c_str());
}

// TransferPolicy through the async runner: same contract, no barrier.
TEST(TransferCampaignTest, AsyncFleetTransferMatchesSyncBitForBit) {
  const Scenario s = MakeScenario(520);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);

  const std::string path = ::testing::TempDir() + "transfer_async_table.csv";
  const MeasurementTable source_table = RecordSource(s, 30, 530, path);

  auto run = [&](bool async) {
    // Deliberately no per-policy environment: TransferOptions'
    // target_environment backstop must tag the inner rounds instead.
    DebugOptions options = FastDebugOptions();
    CampaignRunner runner(s.target_task, ToCampaignOptions(options),
                          MakeTargetFleet(s, source_table));
    DebugPolicy inner(options, fault->config, goals);
    TransferOptions transfer_options;
    transfer_options.source_environment = "Xavier";
    transfer_options.target_environment = "TX2";
    TransferPolicy transfer(transfer_options, source_table, &inner);
    if (async) {
      runner.RunAsync({&transfer});
    } else {
      runner.Run({&transfer});
    }
    // The backstop held: the recording served exactly the replay, the live
    // TX2 members everything fresh.
    const FleetStats stats = runner.broker().fleet_stats();
    EXPECT_EQ(stats.backends[0].completed, source_table.entries.size());
    EXPECT_EQ(stats.failed, 0u);
    return inner.result();
  };
  const DebugResult sync_result = run(false);
  const DebugResult async_result = run(true);

  EXPECT_EQ(async_result.fixed, sync_result.fixed);
  EXPECT_EQ(async_result.measurements_used, sync_result.measurements_used);
  EXPECT_EQ(async_result.fixed_config, sync_result.fixed_config);
  EXPECT_EQ(async_result.objective_trajectory, sync_result.objective_trajectory);
  EXPECT_EQ(async_result.predicted_root_causes, sync_result.predicted_root_causes);
  EXPECT_TRUE(async_result.final_graph == sync_result.final_graph);
  std::remove(path.c_str());
}

// max_source_rows caps the replay; an empty recording degrades the wrapper
// to pure delegation (identical to running the inner policy alone).
TEST(TransferCampaignTest, ReplayCapAndEmptyTableDegradeGracefully) {
  const Scenario s = MakeScenario(540);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);

  const std::string path = ::testing::TempDir() + "transfer_cap_table.csv";
  const MeasurementTable source_table = RecordSource(s, 25, 550, path);

  {
    DebugOptions options = FastDebugOptions();
    options.environment = "TX2";
    CampaignRunner runner(s.target_task, ToCampaignOptions(options),
                          MakeTargetFleet(s, source_table));
    DebugPolicy inner(options, fault->config, goals);
    TransferOptions transfer_options;
    transfer_options.source_environment = "Xavier";
    transfer_options.max_source_rows = 10;
    TransferPolicy transfer(transfer_options, source_table, &inner);
    runner.Run({&transfer});
    EXPECT_EQ(transfer.stats().source_rows, 10u);
    EXPECT_EQ(inner.result().source_rows, 10u);
  }
  {
    DebugOptions options = FastDebugOptions();
    const CampaignOptions campaign = ToCampaignOptions(options);

    CampaignRunner plain_runner(s.target_task, campaign);
    DebugPolicy plain(options, fault->config, goals);
    plain_runner.Run({&plain});

    CampaignRunner wrapped_runner(s.target_task, campaign);
    DebugPolicy inner(options, fault->config, goals);
    TransferPolicy transfer(TransferOptions{}, MeasurementTable{}, &inner);
    wrapped_runner.Run({&transfer});

    EXPECT_EQ(transfer.stats().source_rows, 0u);
    EXPECT_EQ(inner.result().fixed_config, plain.result().fixed_config);
    EXPECT_EQ(inner.result().measurements_used, plain.result().measurements_used);
    EXPECT_TRUE(inner.result().final_graph == plain.result().final_graph);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace unicorn
