// Transfer campaigns on a target-only fleet: the acceptance stack of the
// transfer path.
//
//   * Seeding the target shard with a recorded source table
//     (CausalModelEngine::SeedFromTable) and running the policy on a fleet of
//     live target devices must be BIT-IDENTICAL to handing the policy the
//     same rows as its warm-start table (UnicornDebugger::Debug(fault, goals,
//     &warm_table), OptimizePolicy(options, objectives, &warm_table)): same
//     rows, same refresh-seed stream, same model, same diagnosis. The fleet
//     is plumbing, never semantics.
//   * No transfer scenario measures source hardware: the recording reaches
//     the model only through the seed, and every fleet member is a target
//     device.
#include "unicorn/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "eval/harness.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/debugger.h"
#include "unicorn/optimizer.h"

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

// Target fleet: two live TX2 devices whose task seed matches the target task
// (so fleet rows equal the target task's own rows).
std::unique_ptr<BackendFleet> MakeTargetFleet(const Scenario& s) {
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (int b = 0; b < 2; ++b) {
    DeviceProfile profile;
    profile.name = "tx2-" + std::to_string(b);
    profile.seed = 400 + static_cast<uint64_t>(b);
    backends.push_back(MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(),
                                         s.target_task_seed, std::move(profile)));
  }
  return std::make_unique<BackendFleet>(std::move(backends));
}

// Legacy warm table: the recording's rows, in the same order, as a DataTable.
DataTable WarmTable(const Scenario& s, const MeasurementTable& source_table) {
  DataTable warm(s.model->variables());
  warm.Reserve(source_table.entries.size());
  for (const auto& entry : source_table.entries) {
    warm.AddRow(entry.row);
  }
  return warm;
}

// Every fleet member is a live TX2 device and no request failed, so no
// request could have measured source hardware.
void ExpectTargetOnlyFleet(const FleetStats& stats) {
  ASSERT_EQ(stats.backends.size(), 2u);
  for (const auto& backend : stats.backends) {
    EXPECT_EQ(backend.environment, "TX2");
  }
  EXPECT_EQ(stats.failed, 0u);
}

// The acceptance pin: a seeded shard on a TX2-only fleet == legacy
// warm-table Debug, bit for bit, for both the "+N fresh samples" and the
// "Reuse" (zero fresh bootstrap samples) shapes.
TEST(TransferCampaignTest, FleetTransferMatchesLegacyWarmTableBitForBit) {
  const Scenario s = MakeScenario(500);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);

  const std::string path = ::testing::TempDir() + "transfer_source_table.csv";
  const MeasurementTable source_table = RecordSource(s, 40, 510, path);
  const DataTable warm = WarmTable(s, source_table);

  for (const size_t initial_samples : {size_t{15}, size_t{0}}) {
    DebugOptions options = FastDebugOptions();
    options.initial_samples = initial_samples;

    // Legacy path: task-only broker, warm-start DataTable.
    UnicornDebugger debugger(s.target_task, options);
    const DebugResult legacy = debugger.Debug(fault->config, goals, &warm);

    // Seeded path: the recording seeds the target shard, live TX2 devices
    // measure everything fresh.
    DebugOptions fleet_options = options;
    fleet_options.environment = "TX2";
    CampaignRunner runner(s.target_task, ToCampaignOptions(fleet_options), MakeTargetFleet(s));
    ASSERT_EQ(runner.engine().SeedFromTable(source_table), source_table.entries.size());
    DebugPolicy inner(fleet_options, fault->config, goals);
    runner.Run({&inner});
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
    EXPECT_EQ(legacy.target_rows, legacy.measurements_used);

    // Zero fresh source-hardware measurements: the broker was asked for
    // exactly what the legacy path (which never asks for a source row)
    // asked for, and only TX2 devices could answer.
    EXPECT_EQ(runner.broker().stats().requests, legacy.broker_stats.requests);
    ExpectTargetOnlyFleet(runner.broker().fleet_stats());
  }
  std::remove(path.c_str());
}

// A seeded shard through the async runner: same contract, no barrier.
TEST(TransferCampaignTest, AsyncFleetTransferMatchesSyncBitForBit) {
  const Scenario s = MakeScenario(520);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);

  const std::string path = ::testing::TempDir() + "transfer_async_table.csv";
  const MeasurementTable source_table = RecordSource(s, 30, 530, path);

  auto run = [&](bool async) {
    DebugOptions options = FastDebugOptions();
    CampaignRunner runner(s.target_task, ToCampaignOptions(options), MakeTargetFleet(s));
    EXPECT_EQ(runner.engine().SeedFromTable(source_table), source_table.entries.size());
    DebugPolicy inner(options, fault->config, goals);
    if (async) {
      runner.RunAsyncGrouped({GroupedPolicy{&inner, ""}});
    } else {
      runner.Run({&inner});
    }
    ExpectTargetOnlyFleet(runner.broker().fleet_stats());
    return inner.result();
  };
  const DebugResult sync_result = run(false);
  const DebugResult async_result = run(true);

  EXPECT_EQ(sync_result.source_rows, source_table.entries.size());
  EXPECT_EQ(async_result.source_rows, sync_result.source_rows);
  EXPECT_EQ(async_result.target_rows, sync_result.target_rows);
  EXPECT_EQ(async_result.fixed, sync_result.fixed);
  EXPECT_EQ(async_result.measurements_used, sync_result.measurements_used);
  EXPECT_EQ(async_result.fixed_config, sync_result.fixed_config);
  EXPECT_EQ(async_result.objective_trajectory, sync_result.objective_trajectory);
  EXPECT_EQ(async_result.predicted_root_causes, sync_result.predicted_root_causes);
  EXPECT_TRUE(async_result.final_graph == sync_result.final_graph);
  std::remove(path.c_str());
}

// The optimize side (Fig. 17's shape): an OptimizePolicy refining a reused
// optimum (anchor_configs) on a seeded shard == the same policy given the
// recording as its warm-start table, bit for bit.
TEST(TransferCampaignTest, SeededOptimizeMatchesWarmStartTableBitForBit) {
  const Scenario s = MakeScenario(560);
  const std::string path = ::testing::TempDir() + "transfer_optimize_table.csv";
  const MeasurementTable source_table = RecordSource(s, 30, 570, path);
  const DataTable warm = WarmTable(s, source_table);
  const size_t latency = *warm.IndexOf(kLatencyName);

  OptimizeOptions options;
  options.initial_samples = 5;
  options.max_iterations = 12;
  options.relearn_every = 4;
  options.anchor_configs = {source_table.entries.front().config};
  options.model.fci.skeleton.max_cond_size = 2;
  options.model.fci.skeleton.max_subsets = 16;
  options.model.fci.max_pds_cond_size = 1;
  options.model.entropic.latent.restarts = 1;
  options.model.entropic.latent.iterations = 25;

  CampaignRunner legacy_runner(s.target_task, ToCampaignOptions(options));
  OptimizePolicy legacy_policy(options, {latency}, &warm);
  legacy_runner.Run({&legacy_policy});
  const OptimizeResult& legacy = legacy_policy.result();

  OptimizeOptions fleet_options = options;
  fleet_options.environment = "TX2";
  CampaignRunner runner(s.target_task, ToCampaignOptions(fleet_options), MakeTargetFleet(s));
  ASSERT_EQ(runner.engine().SeedFromTable(source_table), source_table.entries.size());
  OptimizePolicy policy(fleet_options, {latency});
  runner.Run({&policy});
  const OptimizeResult& seeded = policy.result();

  ASSERT_FALSE(legacy.best_config.empty());
  EXPECT_EQ(seeded.best_config, legacy.best_config);
  EXPECT_EQ(seeded.best_value, legacy.best_value);
  EXPECT_EQ(seeded.best_trajectory, legacy.best_trajectory);
  EXPECT_EQ(seeded.evaluated, legacy.evaluated);
  EXPECT_EQ(seeded.measurements_used, legacy.measurements_used);
  EXPECT_EQ(seeded.engine_stats.tests_requested, legacy.engine_stats.tests_requested);
  EXPECT_EQ(seeded.engine_stats.refreshes, legacy.engine_stats.refreshes);
  EXPECT_EQ(seeded.source_rows, source_table.entries.size());
  EXPECT_EQ(legacy.source_rows, source_table.entries.size());
  EXPECT_EQ(seeded.target_rows, legacy.target_rows);
  EXPECT_EQ(runner.broker().stats().requests, legacy.broker_stats.requests);
  ExpectTargetOnlyFleet(runner.broker().fleet_stats());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace unicorn
