// Campaign-layer behavior: batched measurement is row-for-row equivalent to
// serial driving of the same policies, and several policies can share one
// engine + measurement cache.
#include "unicorn/campaign.h"

#include <gtest/gtest.h>

#include "eval/harness.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/debugger.h"
#include "unicorn/optimizer.h"
#include "util/rng.h"

namespace unicorn {
namespace {

struct Scenario {
  std::shared_ptr<SystemModel> model;
  PerformanceTask task;
  FaultCuration curation;
};

Scenario MakeScenario(SystemId id, uint64_t seed, size_t samples = 1200) {
  Scenario s;
  SystemSpec spec;
  spec.num_events = 10;
  s.model = std::make_shared<SystemModel>(BuildSystem(id, spec));
  Rng rng(seed);
  s.curation = CurateFaults(*s.model, Tx2(), DefaultWorkload(), samples, &rng, 0.97);
  s.task = MakeSimulatedTask(s.model, Tx2(), DefaultWorkload(), seed + 1);
  return s;
}

DebugOptions FastDebugOptions() {
  DebugOptions options;
  options.initial_samples = 20;
  options.max_iterations = 12;
  options.stall_termination = 20;
  options.repairs_per_iteration = 3;  // batches bigger than one repair
  options.model.fci.skeleton.max_cond_size = 2;
  options.model.fci.skeleton.max_subsets = 16;
  options.model.fci.max_pds_cond_size = 1;
  options.model.entropic.latent.restarts = 1;
  options.model.entropic.latent.iterations = 25;
  return options;
}

const Fault* PickFault(const FaultCuration& curation, size_t skip = 0) {
  size_t seen = 0;
  for (const auto& f : curation.faults) {
    if (!f.root_causes.empty()) {
      if (seen == skip) {
        return &f;
      }
      ++seen;
    }
  }
  return nullptr;
}

// The debugger-equivalence guarantee: with `repairs_per_iteration` repairs
// measured as one broker batch, a threads=4 run is row-for-row identical to
// the serial (threads=1) run — measurement is pure per configuration, so
// fan-out order cannot leak into the result.
TEST(CampaignTest, DebuggerBatchedMatchesSerialRowForRow) {
  Scenario s = MakeScenario(SystemId::kXception, 300);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);

  auto run = [&](int broker_threads) {
    DebugOptions options = FastDebugOptions();
    options.broker.num_threads = broker_threads;
    UnicornDebugger debugger(s.task, options);
    return debugger.Debug(fault->config, goals);
  };
  const DebugResult serial = run(1);
  const DebugResult batched = run(4);

  EXPECT_EQ(batched.fixed, serial.fixed);
  EXPECT_EQ(batched.measurements_used, serial.measurements_used);
  EXPECT_EQ(batched.fixed_config, serial.fixed_config);
  EXPECT_EQ(batched.fixed_measurement, serial.fixed_measurement);
  EXPECT_EQ(batched.objective_trajectory, serial.objective_trajectory);
  EXPECT_EQ(batched.selected_options, serial.selected_options);
  EXPECT_EQ(batched.predicted_root_causes, serial.predicted_root_causes);
  EXPECT_EQ(batched.tests_per_iteration, serial.tests_per_iteration);
  EXPECT_TRUE(batched.final_graph == serial.final_graph);
}

TEST(CampaignTest, OptimizerBatchedMatchesSerial) {
  Scenario s = MakeScenario(SystemId::kBert, 301);
  const size_t objective = s.model->ObjectiveIndices()[0];

  auto run = [&](int broker_threads) {
    OptimizeOptions options;
    options.initial_samples = 20;
    options.max_iterations = 25;
    options.relearn_every = 10;
    options.model.fci.skeleton.max_cond_size = 1;
    options.model.entropic.latent.restarts = 1;
    options.broker.num_threads = broker_threads;
    UnicornOptimizer optimizer(s.task, options);
    return optimizer.Minimize(objective);
  };
  const OptimizeResult serial = run(1);
  const OptimizeResult batched = run(4);

  EXPECT_EQ(batched.best_config, serial.best_config);
  EXPECT_EQ(batched.best_value, serial.best_value);
  EXPECT_EQ(batched.best_trajectory, serial.best_trajectory);
  EXPECT_EQ(batched.evaluated, serial.evaluated);
  EXPECT_EQ(batched.measurements_used, serial.measurements_used);
}

// Two faults debugged concurrently against one shared engine and one shared
// measurement cache: every row either policy measures lands in the one
// table both models learn from, and the second policy's bootstrap (same
// sampling seed) is served entirely from the broker cache.
TEST(CampaignTest, MultiFaultCampaignSharesEngineAndCache) {
  Scenario s = MakeScenario(SystemId::kXception, 302);
  const Fault* fault_a = PickFault(s.curation, 0);
  const Fault* fault_b = PickFault(s.curation, 1);
  ASSERT_NE(fault_a, nullptr);
  if (fault_b == nullptr) {
    fault_b = fault_a;  // one curated fault is enough: dedup still kicks in
  }

  DebugOptions options = FastDebugOptions();
  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.engine = options.engine;
  campaign.seed = options.seed;
  campaign.broker.num_threads = 4;

  CampaignRunner runner(s.task, campaign);
  DebugPolicy policy_a(options, fault_a->config, GoalsForFault(s.curation, *fault_a));
  DebugPolicy policy_b(options, fault_b->config, GoalsForFault(s.curation, *fault_b));
  runner.Run({&policy_a, &policy_b});

  const DebugResult& a = policy_a.result();
  const DebugResult& b = policy_b.result();
  ASSERT_FALSE(a.fixed_config.empty());
  ASSERT_FALSE(b.fixed_config.empty());
  // Shared table: exactly the rows the two policies accepted, nothing else.
  EXPECT_EQ(runner.engine().data().NumRows(), a.measurements_used + b.measurements_used);
  // Shared measurement cache: both policies draw bootstrap samples with the
  // same seed, so the second bootstrap is all cache hits.
  EXPECT_GE(runner.broker().stats().cache_hits, options.initial_samples);
  // One engine served every refresh either policy requested (each policy
  // snapshots the shared stats when it finishes, so both see a prefix of
  // the same refresh history).
  const size_t total_refreshes = runner.engine().stats().refreshes;
  EXPECT_GT(total_refreshes, 0u);
  EXPECT_LE(a.engine_stats.refreshes, total_refreshes);
  EXPECT_LE(b.engine_stats.refreshes, total_refreshes);
}

// A debugging policy and an optimization policy sharing one campaign: the
// multi-objective/transfer shape from the issue — different reasoning loops,
// one measurement table, one broker.
TEST(CampaignTest, MixedDebugAndOptimizePoliciesShareOneCampaign) {
  Scenario s = MakeScenario(SystemId::kXception, 303);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);

  DebugOptions debug_options = FastDebugOptions();
  debug_options.max_iterations = 8;

  OptimizeOptions optimize_options;
  optimize_options.initial_samples = 10;
  optimize_options.max_iterations = 15;
  optimize_options.relearn_every = 5;
  optimize_options.model = debug_options.model;

  CampaignOptions campaign;
  campaign.model = debug_options.model;
  campaign.broker.num_threads = 4;

  CampaignRunner runner(s.task, campaign);
  DebugPolicy debug_policy(debug_options, fault->config, GoalsForFault(s.curation, *fault));
  OptimizePolicy optimize_policy(optimize_options, {s.model->ObjectiveIndices()[0]});
  runner.Run({&debug_policy, &optimize_policy});

  EXPECT_FALSE(debug_policy.result().fixed_config.empty());
  EXPECT_EQ(optimize_policy.result().measurements_used,
            optimize_options.initial_samples + optimize_options.max_iterations);
  EXPECT_EQ(optimize_policy.result().best_trajectory.size(),
            optimize_policy.result().measurements_used);
  EXPECT_EQ(runner.engine().data().NumRows(),
            debug_policy.result().measurements_used +
                optimize_policy.result().measurements_used);
}

// With a single policy the async runner degenerates to the same
// refresh/propose/absorb sequence as the barrier loop (one batch in flight
// at a time, same per-round refresh seeds), so the results must be
// bit-identical — the async plumbing cannot leak into the reasoning.
TEST(CampaignTest, AsyncSinglePolicyMatchesSyncBitForBit) {
  Scenario s = MakeScenario(SystemId::kXception, 304);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);
  const DebugOptions options = FastDebugOptions();

  auto run = [&](bool async) {
    CampaignOptions campaign;
    campaign.model = options.model;
    campaign.engine = options.engine;
    campaign.seed = options.seed;
    CampaignRunner runner(s.task, campaign);
    DebugPolicy policy(options, fault->config, goals);
    if (async) {
      runner.RunAsync({&policy});
    } else {
      runner.Run({&policy});
    }
    return policy.result();
  };
  const DebugResult sync_result = run(false);
  const DebugResult async_result = run(true);

  EXPECT_EQ(async_result.fixed, sync_result.fixed);
  EXPECT_EQ(async_result.measurements_used, sync_result.measurements_used);
  EXPECT_EQ(async_result.fixed_config, sync_result.fixed_config);
  EXPECT_EQ(async_result.fixed_measurement, sync_result.fixed_measurement);
  EXPECT_EQ(async_result.objective_trajectory, sync_result.objective_trajectory);
  EXPECT_EQ(async_result.predicted_root_causes, sync_result.predicted_root_causes);
  EXPECT_EQ(async_result.tests_per_iteration, sync_result.tests_per_iteration);
  EXPECT_TRUE(async_result.final_graph == sync_result.final_graph);
}

// The full acceptance stack at once: an async campaign over a fleet of
// homogeneous simulated Jetson devices with injected transient failures
// still reproduces the serial single-broker run row-for-row, while the
// fleet ledger shows the retries really happened.
TEST(CampaignTest, AsyncFleetCampaignWithFailuresMatchesSerial) {
  Scenario s = MakeScenario(SystemId::kXception, 305);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(s.curation, *fault);
  const DebugOptions options = FastDebugOptions();

  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.engine = options.engine;
  campaign.seed = options.seed;

  // Serial oracle: one in-process backend, one worker.
  CampaignRunner serial_runner(s.task, campaign);
  DebugPolicy serial_policy(options, fault->config, goals);
  serial_runner.Run({&serial_policy});

  // Fleet: three devices, same model/environment/task seed as s.task (built
  // with seed 305 + 1 in MakeScenario), 25% transient failure rate.
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (int b = 0; b < 3; ++b) {
    DeviceProfile profile;
    profile.name = "jetson-" + std::to_string(b);
    profile.seed = 500 + static_cast<uint64_t>(b);
    profile.transient_failure_rate = 0.25;
    backends.push_back(
        MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), 306, std::move(profile)));
  }
  FleetOptions fleet_options;
  fleet_options.max_attempts = 8;
  CampaignRunner fleet_runner(
      s.task, campaign, std::make_unique<BackendFleet>(std::move(backends), fleet_options));
  DebugPolicy fleet_policy(options, fault->config, goals);
  fleet_runner.RunAsync({&fleet_policy});

  const DebugResult& serial = serial_policy.result();
  const DebugResult& fleet = fleet_policy.result();
  EXPECT_EQ(fleet.fixed, serial.fixed);
  EXPECT_EQ(fleet.measurements_used, serial.measurements_used);
  EXPECT_EQ(fleet.fixed_config, serial.fixed_config);
  EXPECT_EQ(fleet.fixed_measurement, serial.fixed_measurement);
  EXPECT_EQ(fleet.objective_trajectory, serial.objective_trajectory);
  EXPECT_TRUE(fleet.final_graph == serial.final_graph);

  const FleetStats stats = fleet_runner.broker().fleet_stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.retries, 0u);  // the failures were real, and absorbed
  EXPECT_EQ(stats.completed + fleet_runner.broker().stats().cache_hits,
            fleet_runner.broker().stats().requests);
}

// Two policies pipelined asynchronously against one shared engine: both
// finish, and the shared table holds exactly the rows the policies accepted.
TEST(CampaignTest, AsyncMultiPolicyCampaignCompletes) {
  Scenario s = MakeScenario(SystemId::kXception, 307);
  const Fault* fault_a = PickFault(s.curation, 0);
  const Fault* fault_b = PickFault(s.curation, 1);
  ASSERT_NE(fault_a, nullptr);
  if (fault_b == nullptr) {
    fault_b = fault_a;
  }

  DebugOptions options = FastDebugOptions();
  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.engine = options.engine;
  campaign.seed = options.seed;

  CampaignRunner runner(s.task, campaign);
  DebugPolicy policy_a(options, fault_a->config, GoalsForFault(s.curation, *fault_a));
  DebugPolicy policy_b(options, fault_b->config, GoalsForFault(s.curation, *fault_b));
  runner.RunAsync({&policy_a, &policy_b});

  ASSERT_FALSE(policy_a.result().fixed_config.empty());
  ASSERT_FALSE(policy_b.result().fixed_config.empty());
  EXPECT_EQ(runner.engine().data().NumRows(),
            policy_a.result().measurements_used + policy_b.result().measurements_used);
}

// The async loops take every finished batch off the broker's stream as the
// campaign's own, so a campaign refuses to start while a batch someone else
// submitted is outstanding on the runner's broker; that batch stays
// retrievable, and the campaign runs once it has been taken.
TEST(CampaignTest, AsyncCampaignRefusedWhileBrokerHasOutstandingRequests) {
  Scenario s = MakeScenario(SystemId::kXception, 309);
  const Fault* fault = PickFault(s.curation);
  ASSERT_NE(fault, nullptr);
  const DebugOptions options = FastDebugOptions();

  CampaignRunner runner(s.task, ToCampaignOptions(options));
  Rng rng(310);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < 4; ++i) {
    configs.push_back(s.task.sample_config(&rng));
  }
  const BatchTicket ticket = runner.broker().SubmitBatch(configs);

  DebugPolicy policy(options, fault->config, GoalsForFault(s.curation, *fault));
  EXPECT_THROW(runner.RunAsyncGrouped({GroupedPolicy{&policy, ""}}), std::logic_error);
  EXPECT_EQ(runner.engine().data().NumRows(), 0u);  // no policy ran

  BatchResult batch;
  ASSERT_TRUE(runner.broker().WaitBatch(&batch));
  EXPECT_EQ(batch.id, ticket.id);
  EXPECT_EQ(batch.error, "");
  ASSERT_EQ(batch.rows.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(batch.rows[i], s.task.measure(configs[i]));
  }
  EXPECT_EQ(runner.broker().OutstandingRequests(), 0u);

  runner.RunAsyncGrouped({GroupedPolicy{&policy, ""}});
  EXPECT_GT(policy.result().measurements_used, 0u);
  EXPECT_EQ(runner.engine().data().NumRows(), policy.result().measurements_used);
}

// Distinct objective groups isolate policies completely: a policy debugged
// in its own shard next to an unrelated co-policy is bit-identical to the
// same policy run alone — in the pre-sharding single-engine campaign the
// co-policy's rows would have leaked into the shared table and changed the
// model.
TEST(CampaignTest, DistinctGroupsIsolatePoliciesBitForBit) {
  Scenario s = MakeScenario(SystemId::kXception, 308);
  const Fault* fault_a = PickFault(s.curation, 0);
  const Fault* fault_b = PickFault(s.curation, 1);
  ASSERT_NE(fault_a, nullptr);
  if (fault_b == nullptr) {
    fault_b = fault_a;
  }
  const DebugOptions options = FastDebugOptions();
  const auto goals_a = GoalsForFault(s.curation, *fault_a);

  CampaignRunner solo_runner(s.task, ToCampaignOptions(options));
  DebugPolicy solo(options, fault_a->config, goals_a);
  solo_runner.Run({&solo});

  CampaignOptions campaign = ToCampaignOptions(options);
  campaign.refresh_threads = 4;
  CampaignRunner runner(s.task, campaign);
  DebugPolicy policy_a(options, fault_a->config, goals_a);
  DebugPolicy policy_b(options, fault_b->config, GoalsForFault(s.curation, *fault_b));
  runner.RunGrouped({GroupedPolicy{&policy_a, "fault-a"}, GroupedPolicy{&policy_b, "fault-b"}});

  const DebugResult& isolated = policy_a.result();
  const DebugResult& alone = solo.result();
  EXPECT_EQ(isolated.fixed, alone.fixed);
  EXPECT_EQ(isolated.measurements_used, alone.measurements_used);
  EXPECT_EQ(isolated.fixed_config, alone.fixed_config);
  EXPECT_EQ(isolated.objective_trajectory, alone.objective_trajectory);
  EXPECT_EQ(isolated.tests_per_iteration, alone.tests_per_iteration);
  EXPECT_TRUE(isolated.final_graph == alone.final_graph);

  // Per-shard tables hold exactly their own policy's rows.
  EXPECT_EQ(runner.pool().shard(policy_a.result().shard).data().NumRows(),
            policy_a.result().measurements_used);
  EXPECT_EQ(runner.pool().shard(policy_b.result().shard).data().NumRows(),
            policy_b.result().measurements_used);
  EXPECT_NE(policy_a.result().shard, policy_b.result().shard);

  // Pool aggregate: the default shard plus one per group, and rounds where
  // both policies wanted a refresh ran as one parallel batch.
  const ShardPoolStats stats = runner.pool().stats();
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_EQ(stats.refreshes,
            policy_a.result().engine_stats.refreshes +
                policy_b.result().engine_stats.refreshes);
  EXPECT_GE(stats.max_concurrent_refreshes, 2u);
  // Both policies draw their bootstrap with the same seed, so the combined
  // round-0 batch dedups the second bootstrap at the broker even though the
  // rows land in different shards.
  EXPECT_GE(runner.broker().stats().cache_hits, options.initial_samples);
}

}  // namespace
}  // namespace unicorn
