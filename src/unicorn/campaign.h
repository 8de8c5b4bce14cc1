// The shared campaign runner: the generic propose → measure(batch) →
// absorb → refresh loop under every Unicorn policy.
//
// A campaign decouples the reasoning plane (the causal-discovery engine plus
// whatever policy proposes the next configurations) from the experiment
// plane (the measurement broker). UnicornDebugger and UnicornOptimizer are
// thin policies over this runner, and several policies — multi-fault,
// multi-objective, transfer source+target — can run concurrently.
//
// The reasoning plane is *sharded* (unicorn/engine_pool): every policy is
// assigned to an objective group, each group owns one CausalModelEngine
// shard (its own measurement table, model, and warm-start state), and dirty
// shards refresh in parallel each round instead of serializing on one
// engine. Policies of the same group still share everything — every row one
// of them measures teaches the model all of them reason on — and all groups
// share the broker's measurement cache plus one process-wide CI-result
// cache, so a configuration or a p-value one group already paid for is free
// for the rest. The plain Run/RunAsync overloads put every policy in one
// default group, which is exactly the old single-engine campaign.
//
// Cross-environment transfer seeds the target shard: before Run, a recorded
// source-hardware table goes straight into the engine as source-provenance
// rows (engine().SeedFromTable / SeedFromFile, or a policy's warm-start
// table) — zero fresh source measurements — and the policy's fresh
// measurements route to live target-environment backends.
#ifndef UNICORN_UNICORN_CAMPAIGN_H_
#define UNICORN_UNICORN_CAMPAIGN_H_

#include <memory>
#include <string>
#include <vector>

#include "causal/counterfactual.h"
#include "unicorn/engine_pool.h"
#include "unicorn/measurement_broker.h"
#include "unicorn/model_learner.h"
#include "unicorn/task.h"

namespace unicorn {

// Goal predicates shared by the debugger, the baselines, and the benches
// (previously copy-pasted in each).
//
/// All goals satisfied by this measurement row?
/// Thread-safety: pure function. Failure: `row` must cover every goal.var.
bool GoalsMet(const std::vector<double>& row, const std::vector<ObjectiveGoal>& goals);
/// Scalar "badness": max relative violation across goals (<= 0 means met).
/// Thread-safety: pure function.
double GoalViolation(const std::vector<double>& row, const std::vector<ObjectiveGoal>& goals);

/// What a policy sees each round: its objective group's engine shard, the
/// shared broker, the task metadata, and the round counter. Borrowed
/// references — valid only for the duration of the callback that received
/// the context. `engine` is the policy's shard: policies written against the
/// old single-engine campaign keep working unchanged, they just reason on
/// (and absorb into) their group's table. `pool` exposes the whole shard
/// pool for fleet-style accounting (aggregate stats, cross-shard cache
/// hits); policies must not refresh other groups' shards from callbacks.
struct CampaignContext {
  const PerformanceTask& task;
  CausalModelEngine& engine;
  MeasurementBroker& broker;
  size_t round = 0;
  size_t shard = 0;                    // index of `engine` in `pool`
  EngineShardPool* pool = nullptr;     // owned by the runner; never null there
};

/// A reasoning policy driven by the CampaignRunner. Give concurrent policies
/// distinct seeds unless shared bootstrap configurations are intended: the
/// broker makes repeat measurements free, but each accepting policy still
/// appends its rows to the shared table, and exact duplicate rows inflate
/// the CI tests' effective sample size.
///
/// Per-round contract: Propose() returns the configurations to measure this
/// round; ProposalEnvironments() (called immediately after, with the
/// proposal's size) returns their routing tags; Absorb() receives the
/// measured rows in proposal order and appends whatever it accepts to
/// ctx.engine (so speculative batch rows a sequential loop would never have
/// measured can be dropped, keeping batched == serial). A policy that
/// proposes an empty batch must report Finished() — the runner retires it
/// either way, since a policy proposing nothing can never finish itself.
///
/// Thread-safety: none required or provided. The runner invokes every
/// callback from the one thread driving the campaign, never concurrently —
/// policies may keep plain mutable state.
class CampaignPolicy {
 public:
  virtual ~CampaignPolicy() = default;

  /// Should the runner refresh this policy's engine shard before this
  /// round's Propose()? Refreshes are per shard: one refresh serves every
  /// policy of the same objective group, and the runner refreshes all dirty
  /// shards of a round in parallel.
  virtual bool WantsRefresh(const CampaignContext& ctx) = 0;

  /// The configurations to measure this round (possibly empty: see the
  /// class contract). Failure: exceptions propagate out of the runner.
  virtual std::vector<std::vector<double>> Propose(CampaignContext& ctx) = 0;

  /// Environment routing tags for the proposal just returned by Propose()
  /// (`proposal_size` entries, parallel). Return {} — the default — when
  /// every request may run on any backend. Called exactly once per round,
  /// immediately after Propose().
  virtual std::vector<std::string> ProposalEnvironments(size_t proposal_size) {
    (void)proposal_size;
    return {};
  }

  /// Receives the measured rows of this policy's proposal, in proposal
  /// order. Not called for rounds where the policy proposed nothing.
  virtual void Absorb(const std::vector<std::vector<double>>& configs,
                      const std::vector<std::vector<double>>& rows,
                      CampaignContext& ctx) = 0;

  virtual bool Finished() const = 0;

  /// Called exactly once, when the policy leaves the campaign (finished or
  /// round cap hit): capture result state from the shared engine/broker.
  virtual void Finalize(CampaignContext& ctx) = 0;
};

/// A policy plus the objective group whose engine shard it reasons on.
/// Policies with equal group strings share one shard (one table, one model);
/// distinct groups get distinct shards that refresh in parallel.
struct GroupedPolicy {
  CampaignPolicy* policy = nullptr;
  std::string group;  // "" = the default group (shard 0)
};

/// Campaign-wide knobs. Plain value type.
struct CampaignOptions {
  CausalModelOptions model;
  EngineOptions engine;
  BrokerOptions broker;
  /// Refresh-seed stream: the round-r refresh uses seed + (r - 1) (round 0
  /// is the bootstrap round), matching the per-iteration reseeding the
  /// sequential loops did. All shards of a round refresh with the same
  /// seed, so a group's stream is independent of how many other groups run.
  uint64_t seed = 17;
  /// Worker threads for parallel refreshes of dirty engine shards (see
  /// ShardPoolOptions::refresh_threads). 1 = serial; results bit-identical
  /// for any value.
  int refresh_threads = 1;
  /// RunAsyncGrouped engine. true (default): the pipelined campaign
  /// scheduler — shard refreshes run asynchronously on the pool's refresh
  /// workers and dirty shards of different policies coalesce into one
  /// parallel refresh batch, so another policy's absorb/propose/submit is
  /// never stuck behind a refresh it does not need (its measurements keep
  /// the fleet busy while refresh compute runs). false: the drain loop that
  /// refreshes inline on the campaign thread, kept as the measurable
  /// baseline (bench/table_pipeline.cc compares the two). Per-policy
  /// results are bit-identical either way — same refresh-seed stream, same
  /// refresh trigger points, same rows in the same order (pinned by
  /// tests/pipeline_scheduler_test.cc).
  bool pipeline = true;
};

/// Owns the reasoning plane (an EngineShardPool: per-objective-group engine
/// shards over one shared CI cache) and the experiment plane (the
/// MeasurementBroker) of a campaign, and drives its policies' rounds to
/// completion.
/// Thread-safety: a runner is driven by one thread; concurrency lives below
/// it (fleet workers, parallel shard refreshes), never in the runner itself.
class CampaignRunner {
 public:
  /// Measures on a fleet of one in-process backend running task.measure on
  /// CampaignOptions::broker.num_threads workers.
  CampaignRunner(PerformanceTask task, CampaignOptions options = {});
  /// Measurements dispatch through `fleet` (per-backend queues, retries,
  /// circuit breaking). `task` still provides variable metadata and must
  /// match what the backends measure.
  CampaignRunner(PerformanceTask task, CampaignOptions options,
                 std::unique_ptr<BackendFleet> fleet);

  /// The default group's engine shard (shard 0) — the engine every policy
  /// of a plain Run(policies) call shares, and the campaign's only engine
  /// unless grouped overloads created more shards.
  CausalModelEngine& engine() { return pool_.shard(0); }
  /// The whole sharded reasoning plane (per-group shards, shared CI cache,
  /// aggregate ShardPoolStats).
  EngineShardPool& pool() { return pool_; }
  MeasurementBroker& broker() { return broker_; }
  const PerformanceTask& task() const { return broker_.task(); }

  /// Runs rounds until every policy is finished. Each round: refresh every
  /// shard whose active policies ask (dirty shards refresh in parallel on
  /// the pool's refresh threads), collect every policy's proposal (in the
  /// given order) and its environment tags, measure them as ONE combined
  /// broker batch (shared dedup, maximal fan-out), and hand each policy its
  /// slice of rows.
  /// Failure: measurement failures (fleet retries exhausted) and policy
  /// exceptions propagate; the campaign is then abandoned mid-round.
  void RunGrouped(const std::vector<GroupedPolicy>& policies);
  /// Ungrouped variant: every policy in the default group — one shared
  /// shard, the exact pre-sharding campaign.
  void Run(const std::vector<CampaignPolicy*>& policies);

  /// The barrier-free variant (ROADMAP "async campaign rounds"): each
  /// policy submits its round as its own broker batch and absorbs it the
  /// moment its rows land, so a fast policy refreshes its shard and
  /// proposes again while a slow policy's measurements are still in flight
  /// on the fleet — no per-round barrier across policies. Round counters,
  /// refresh seeds, and the propose/absorb contract are per policy and
  /// unchanged; with a single policy (homogeneous backends) this is
  /// bit-identical to Run, and policies in distinct objective groups are
  /// bit-identical to their RunGrouped selves for any
  /// CampaignOptions::pipeline / refresh_threads setting. With several
  /// policies sharing a group, the interleaving of that shard's refreshes
  /// follows measurement completion order, which on a fleet with more than
  /// one worker is timing-dependent — results stay valid but are not
  /// run-to-run deterministic.
  ///
  /// With CampaignOptions::pipeline (the default) this runs the pipelined
  /// campaign scheduler: finished batches stream in from the broker and
  /// are absorbed the moment they arrive; a policy whose next round wants a
  /// refresh hands its shard to the pool's asynchronous refresh workers and
  /// the scheduler keeps servicing every other policy meanwhile — dirty shards
  /// of different policies refresh as one parallel batch, hidden behind
  /// the fleet's device service time (ShardPoolStats::overlap_seconds /
  /// widest_cross_policy_batch report how well).
  /// Precondition: the broker has no outstanding requests, so every batch
  /// on its stream is the campaign's own; otherwise throws std::logic_error
  /// before any policy runs.
  /// Failure: as Run; a permanently failed measurement throws (outstanding
  /// asynchronous refreshes are drained before the exception leaves).
  void RunAsyncGrouped(const std::vector<GroupedPolicy>& policies);
  void RunAsync(const std::vector<CampaignPolicy*>& policies);

 private:
  // Refresh-seed stream shared by Run and RunAsync: the round-r refreshing
  // round reseeds with seed + (r - 1); round 0 is the bootstrap round and
  // aliases to seed + 0 (it only refreshes when the shard already has
  // rows). The single-policy async == sync bit-identity rests on both
  // loops drawing from this one formula; shards share the stream, so a
  // single-group campaign sees the exact pre-sharding seeds.
  uint64_t RefreshSeed(size_t round) const {
    return options_.seed + (round > 0 ? round - 1 : 0);
  }

  // The policy's context for one callback: its shard, the shared broker.
  CampaignContext ContextFor(size_t shard, size_t round) {
    return CampaignContext{broker_.task(), pool_.shard(shard), broker_, round, shard, &pool_};
  }

  static ShardPoolOptions MakePoolOptions(const CampaignOptions& options);

  // The two RunAsyncGrouped engines (see CampaignOptions::pipeline).
  void RunAsyncGroupedBarrier(const std::vector<GroupedPolicy>& policies);
  void RunAsyncGroupedPipelined(const std::vector<GroupedPolicy>& policies);

  CampaignOptions options_;
  MeasurementBroker broker_;  // owns the task
  EngineShardPool pool_;      // shard 0 (default group) exists from birth
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_CAMPAIGN_H_
