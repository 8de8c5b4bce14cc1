// The pipelined campaign scheduler must be pure plumbing: RunAsyncGrouped
// with the ready-set pipeline (CampaignOptions::pipeline, the default) is
// bit-identical per policy to the synchronous RunGrouped loop — same graphs,
// same rows in the same order, same CI-test counts — for any refresh-thread
// and engine-thread count, with transient backend failures injected, and
// through the legacy barrier engine too.
#include <gtest/gtest.h>

#include "eval/harness.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/campaign.h"
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
  options.max_iterations = 10;
  options.stall_termination = 20;
  options.repairs_per_iteration = 3;
  options.model.fci.skeleton.max_cond_size = 2;
  options.model.fci.skeleton.max_subsets = 16;
  options.model.fci.max_pds_cond_size = 1;
  options.model.entropic.latent.restarts = 1;
  options.model.entropic.latent.iterations = 25;
  return options;
}

OptimizeOptions FastOptimizeOptions() {
  OptimizeOptions options;
  options.initial_samples = 12;
  options.max_iterations = 15;
  options.relearn_every = 5;
  options.model = FastDebugOptions().model;
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

void ExpectDebugResultsIdentical(const DebugResult& got, const DebugResult& want) {
  EXPECT_EQ(got.fixed, want.fixed);
  EXPECT_EQ(got.measurements_used, want.measurements_used);
  EXPECT_EQ(got.fixed_config, want.fixed_config);
  EXPECT_EQ(got.fixed_measurement, want.fixed_measurement);
  EXPECT_EQ(got.objective_trajectory, want.objective_trajectory);
  EXPECT_EQ(got.predicted_root_causes, want.predicted_root_causes);
  EXPECT_EQ(got.tests_per_iteration, want.tests_per_iteration);
  EXPECT_TRUE(got.final_graph == want.final_graph);
}

void ExpectOptimizeResultsIdentical(const OptimizeResult& got, const OptimizeResult& want) {
  EXPECT_EQ(got.best_config, want.best_config);
  EXPECT_EQ(got.best_value, want.best_value);
  EXPECT_EQ(got.best_trajectory, want.best_trajectory);
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.measurements_used, want.measurements_used);
}

// The cross-policy campaign the scheduler exists for: two debug policies and
// one optimize policy in three distinct objective groups. Returns the three
// results so runs can be compared field by field.
struct GroupedRun {
  DebugResult debug_a;
  DebugResult debug_b;
  OptimizeResult optimize;
};

GroupedRun RunThreeGroupCampaign(const Scenario& s, bool async, bool pipeline,
                                 int refresh_threads, int engine_threads) {
  const Fault* fault_a = PickFault(s.curation, 0);
  const Fault* fault_b = PickFault(s.curation, 1);
  EXPECT_NE(fault_a, nullptr);
  if (fault_b == nullptr) {
    fault_b = fault_a;
  }
  DebugOptions debug_options = FastDebugOptions();
  OptimizeOptions optimize_options = FastOptimizeOptions();

  CampaignOptions campaign;
  campaign.model = debug_options.model;
  campaign.engine = debug_options.engine;
  campaign.engine.num_threads = engine_threads;
  campaign.seed = debug_options.seed;
  campaign.refresh_threads = refresh_threads;
  campaign.pipeline = pipeline;

  CampaignRunner runner(s.task, campaign);
  DebugPolicy policy_a(debug_options, fault_a->config, GoalsForFault(s.curation, *fault_a));
  DebugPolicy policy_b(debug_options, fault_b->config, GoalsForFault(s.curation, *fault_b));
  OptimizePolicy policy_o(optimize_options, {s.model->ObjectiveIndices()[0]});
  const std::vector<GroupedPolicy> grouped = {GroupedPolicy{&policy_a, "fault-a"},
                                              GroupedPolicy{&policy_b, "fault-b"},
                                              GroupedPolicy{&policy_o, "minimize"}};
  if (async) {
    runner.RunAsyncGrouped(grouped);
  } else {
    runner.RunGrouped(grouped);
  }
  return GroupedRun{policy_a.result(), policy_b.result(), policy_o.result()};
}

// The headline contract: the pipelined scheduler is bit-identical per policy
// to the synchronous grouped loop at refresh_threads {1,4} × engine threads
// {1,4}. One sync oracle (serial everything) pins all four cells.
TEST(PipelineSchedulerTest, PipelinedMatchesSyncAcrossThreadMatrix) {
  Scenario s = MakeScenario(SystemId::kXception, 310);
  const GroupedRun oracle =
      RunThreeGroupCampaign(s, /*async=*/false, /*pipeline=*/false, 1, 1);

  for (const int refresh_threads : {1, 4}) {
    for (const int engine_threads : {1, 4}) {
      SCOPED_TRACE("refresh_threads=" + std::to_string(refresh_threads) +
                   " engine_threads=" + std::to_string(engine_threads));
      const GroupedRun run = RunThreeGroupCampaign(s, /*async=*/true, /*pipeline=*/true,
                                                   refresh_threads, engine_threads);
      ExpectDebugResultsIdentical(run.debug_a, oracle.debug_a);
      ExpectDebugResultsIdentical(run.debug_b, oracle.debug_b);
      ExpectOptimizeResultsIdentical(run.optimize, oracle.optimize);
    }
  }
}

// The barrier engine (pipeline = false) stays available as the measurable
// baseline and stays bit-identical too.
TEST(PipelineSchedulerTest, BarrierEngineMatchesSync) {
  Scenario s = MakeScenario(SystemId::kXception, 311);
  const GroupedRun oracle =
      RunThreeGroupCampaign(s, /*async=*/false, /*pipeline=*/false, 1, 1);
  const GroupedRun barrier =
      RunThreeGroupCampaign(s, /*async=*/true, /*pipeline=*/false, 4, 1);
  ExpectDebugResultsIdentical(barrier.debug_a, oracle.debug_a);
  ExpectDebugResultsIdentical(barrier.debug_b, oracle.debug_b);
  ExpectOptimizeResultsIdentical(barrier.optimize, oracle.optimize);
}

// Transient backend failures must stay invisible to the reasoning: a
// pipelined campaign over a fleet of simulated devices with a 25% transient
// failure rate reproduces the serial one-backend oracle row for row, while the
// fleet ledger shows the retries really happened. The async-refresh ledger
// must surface through every policy's pool_stats.
TEST(PipelineSchedulerTest, PipelinedFleetWithTransientFailuresMatchesSync) {
  Scenario s = MakeScenario(SystemId::kXception, 312);
  const GroupedRun oracle =
      RunThreeGroupCampaign(s, /*async=*/false, /*pipeline=*/false, 1, 1);

  const Fault* fault_a = PickFault(s.curation, 0);
  const Fault* fault_b = PickFault(s.curation, 1);
  ASSERT_NE(fault_a, nullptr);
  if (fault_b == nullptr) {
    fault_b = fault_a;
  }
  DebugOptions debug_options = FastDebugOptions();
  OptimizeOptions optimize_options = FastOptimizeOptions();

  CampaignOptions campaign;
  campaign.model = debug_options.model;
  campaign.engine = debug_options.engine;
  campaign.seed = debug_options.seed;
  campaign.refresh_threads = 4;

  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (int b = 0; b < 3; ++b) {
    DeviceProfile profile;
    profile.name = "jetson-" + std::to_string(b);
    profile.seed = 700 + static_cast<uint64_t>(b);
    profile.transient_failure_rate = 0.25;
    backends.push_back(
        MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), 313, std::move(profile)));
  }
  FleetOptions fleet_options;
  fleet_options.max_attempts = 8;
  CampaignRunner runner(
      s.task, campaign, std::make_unique<BackendFleet>(std::move(backends), fleet_options));
  DebugPolicy policy_a(debug_options, fault_a->config, GoalsForFault(s.curation, *fault_a));
  DebugPolicy policy_b(debug_options, fault_b->config, GoalsForFault(s.curation, *fault_b));
  OptimizePolicy policy_o(optimize_options, {s.model->ObjectiveIndices()[0]});
  runner.RunAsyncGrouped({GroupedPolicy{&policy_a, "fault-a"},
                          GroupedPolicy{&policy_b, "fault-b"},
                          GroupedPolicy{&policy_o, "minimize"}});

  ExpectDebugResultsIdentical(policy_a.result(), oracle.debug_a);
  ExpectDebugResultsIdentical(policy_b.result(), oracle.debug_b);
  ExpectOptimizeResultsIdentical(policy_o.result(), oracle.optimize);

  const FleetStats stats = runner.broker().fleet_stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.retries, 0u);

  // Asynchronous-refresh ledger: the refreshes ran through the async path
  // and the overlap gauge was registered (overlap itself is timing-dependent
  // on a loaded host, so only its sanity is asserted).
  const ShardPoolStats pool_stats = runner.pool().stats();
  EXPECT_GE(pool_stats.widest_cross_policy_batch, 1u);
  EXPECT_GE(pool_stats.overlap_seconds, 0.0);
  // Each policy snapshots the pool's ledger when it finalizes, and the
  // finalize order depends on completion timing. The ledger only grows and
  // nothing refreshes after the last finalize, so the latest snapshot (the
  // one with the most refreshes) must equal the final ledger and every
  // snapshot must be bounded by it.
  const std::vector<ShardPoolStats> snapshots = {
      policy_a.result().pool_stats, policy_b.result().pool_stats, policy_o.result().pool_stats};
  const ShardPoolStats* latest = &snapshots[0];
  for (const ShardPoolStats& snapshot : snapshots) {
    EXPECT_LE(snapshot.refreshes, pool_stats.refreshes);
    EXPECT_LE(snapshot.tests_requested, pool_stats.tests_requested);
    EXPECT_LE(snapshot.widest_cross_policy_batch, pool_stats.widest_cross_policy_batch);
    if (snapshot.refreshes > latest->refreshes) {
      latest = &snapshot;
    }
  }
  EXPECT_EQ(latest->refreshes, pool_stats.refreshes);
  EXPECT_EQ(latest->tests_requested, pool_stats.tests_requested);
  EXPECT_EQ(latest->widest_cross_policy_batch, pool_stats.widest_cross_policy_batch);
}

// Wants a refresh at round 0 on top of the wrapped policy's own requests.
// No policy in src/ does, so this is the only way two same-group policies'
// initial launches collide on one shard.
class RefreshAtRoundZero : public CampaignPolicy {
 public:
  explicit RefreshAtRoundZero(CampaignPolicy* inner) : inner_(inner) {}

  bool WantsRefresh(const CampaignContext& ctx) override {
    const bool inner_wants = inner_->WantsRefresh(ctx);
    return inner_wants || ctx.round == 0;
  }
  std::vector<std::vector<double>> Propose(CampaignContext& ctx) override {
    return inner_->Propose(ctx);
  }
  std::vector<std::string> ProposalEnvironments(size_t proposal_size) override {
    return inner_->ProposalEnvironments(proposal_size);
  }
  void Absorb(const std::vector<std::vector<double>>& configs,
              const std::vector<std::vector<double>>& rows, CampaignContext& ctx) override {
    inner_->Absorb(configs, rows, ctx);
  }
  bool Finished() const override { return inner_->Finished(); }
  void Finalize(CampaignContext& ctx) override { inner_->Finalize(ctx); }

 private:
  CampaignPolicy* inner_;
};

// Policies sharing one objective group park behind each other's refreshes
// instead of racing the shard — including at launch, when both want a
// round-0 refresh; the campaign must still complete with every accepted row
// in the one shared table (interleaving is completion-order dependent, so
// only liveness and accounting are pinned — see the RunAsyncGrouped
// contract).
TEST(PipelineSchedulerTest, SameGroupPoliciesCompleteOnOneShard) {
  Scenario s = MakeScenario(SystemId::kXception, 314);
  const Fault* fault_a = PickFault(s.curation, 0);
  const Fault* fault_b = PickFault(s.curation, 1);
  ASSERT_NE(fault_a, nullptr);
  if (fault_b == nullptr) {
    fault_b = fault_a;
  }
  const DebugOptions options = FastDebugOptions();
  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.engine = options.engine;
  campaign.seed = options.seed;
  campaign.refresh_threads = 2;

  for (const bool refresh_at_round_zero : {false, true}) {
    SCOPED_TRACE(refresh_at_round_zero ? "refresh at round 0" : "policies as built");
    CampaignRunner runner(s.task, campaign);
    DebugPolicy policy_a(options, fault_a->config, GoalsForFault(s.curation, *fault_a));
    DebugPolicy policy_b(options, fault_b->config, GoalsForFault(s.curation, *fault_b));
    RefreshAtRoundZero eager_a(&policy_a);
    RefreshAtRoundZero eager_b(&policy_b);
    CampaignPolicy* a = refresh_at_round_zero ? &eager_a : static_cast<CampaignPolicy*>(&policy_a);
    CampaignPolicy* b = refresh_at_round_zero ? &eager_b : static_cast<CampaignPolicy*>(&policy_b);
    runner.RunAsyncGrouped({GroupedPolicy{a, "shared"}, GroupedPolicy{b, "shared"}});

    ASSERT_FALSE(policy_a.result().fixed_config.empty());
    ASSERT_FALSE(policy_b.result().fixed_config.empty());
    EXPECT_EQ(policy_a.result().shard, policy_b.result().shard);
    EXPECT_EQ(runner.pool().shard(policy_a.result().shard).data().NumRows(),
              policy_a.result().measurements_used + policy_b.result().measurements_used);
  }
}

}  // namespace
}  // namespace unicorn
