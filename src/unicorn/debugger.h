// Unicorn performance debugging (paper §4, Stages I-V as one loop).
//
// Given a faulty configuration and QoS goals, iteratively:
//   1. learn/refresh the causal performance model from all measurements,
//   2. extract and rank causal paths into the violated objectives (ACE),
//   3. generate counterfactual repairs over the options on the top-K paths
//      and score them by ICE — purely on observational data,
//   4. measure the best untried repairs (a batch per model refresh, through
//      the measurement broker); stop when the goals are met, no new repair
//      can be proposed, or the budget is exhausted.
//
// The loop itself lives in DebugPolicy, a CampaignPolicy over the shared
// CampaignRunner: UnicornDebugger is the thin single-policy wrapper, and a
// campaign can run several DebugPolicy instances (multi-fault debugging)
// against one engine and one measurement cache.
#ifndef UNICORN_UNICORN_DEBUGGER_H_
#define UNICORN_UNICORN_DEBUGGER_H_

#include <set>
#include <vector>

#include "causal/counterfactual.h"
#include "causal/effects.h"
#include "unicorn/campaign.h"
#include "unicorn/model_learner.h"
#include "unicorn/task.h"

namespace unicorn {

struct DebugOptions {
  size_t initial_samples = 25;  // 10% of the sampling budget (paper §6)
  size_t max_iterations = 40;
  size_t top_k_paths = 10;          // K in [3, 25] per appendix B.2
  size_t stall_termination = 4;     // stop after this many non-improving steps
  size_t repairs_per_iteration = 2;  // repairs measured (as one batch) per refresh
  CausalModelOptions model;
  // Incremental-discovery knobs (warm starts, CI cache, skeleton threads)
  // for the engine held across the debug loop's iterations.
  EngineOptions engine;
  // Measurement-plane knobs: threads fanning out each repair/bootstrap batch
  // and the canonical-config dedup cache. Rows are bit-identical for any
  // thread count (harness measurement is pure per configuration).
  BrokerOptions broker;
  RepairOptions repairs;
  // Environment routing tag for every measurement this policy requests
  // (bootstrap and repairs). Empty = any backend. On a heterogeneous fleet
  // set it to the target hardware's tag so fresh measurements can never be
  // answered by a recorded source member or a wrong-environment device.
  std::string environment;
  uint64_t seed = 7;
};

// The campaign-level slice of DebugOptions (model/engine/broker knobs and
// the refresh-seed stream), for building a CampaignRunner that hosts a
// DebugPolicy. One definition instead of a hand-copied block per call site.
CampaignOptions ToCampaignOptions(const DebugOptions& options);

struct DebugResult {
  bool fixed = false;
  std::vector<double> fixed_config;       // best configuration found
  std::vector<double> fixed_measurement;  // its measurement row
  // Options whose value the fix changed relative to the fault (global index):
  // Unicorn's root-cause diagnosis.
  std::vector<size_t> predicted_root_causes;
  size_t measurements_used = 0;
  // Per-iteration objective values of the measured repair (for Fig. 11 b/c).
  std::vector<std::vector<double>> objective_trajectory;
  // Per-iteration repaired option (first option of the applied repair),
  // for Fig. 11 (d).
  std::vector<size_t> selected_options;
  MixedGraph final_graph;
  // Row-provenance split of the engine's table when the policy finalized:
  // how much of the model rests on seeded source-hardware rows versus
  // fresh measurements (transfer campaigns; equal to the engine-wide counts
  // when this was the only policy).
  size_t source_rows = 0;
  size_t target_rows = 0;
  // Discovery-cost accounting of the engine shard that ran the loop: CI
  // tests requested/evaluated, cache hits (cross-shard ones split out),
  // warm-start reuse, and wall time. Per-shard numbers — in a sharded
  // campaign this covers only this policy's objective group.
  EngineStats engine_stats;
  // Index of the objective group's shard in the campaign's EngineShardPool
  // (0 for single-group campaigns).
  size_t shard = 0;
  // Fleet-style aggregate over every shard of the campaign's pool at the
  // moment this policy finalized: total refreshes, the parallel-refresh
  // ledger, and the cross-shard cache-hit count the shared CI cache bought.
  ShardPoolStats pool_stats;
  // Measurement-plane accounting of the campaign's broker: requests,
  // dedup-cache hits, batch sizes, measuring wall time.
  BrokerStats broker_stats;
  // CI tests requested by each iteration's model refresh (Table 3 reports
  // how warm starts shrink these after the first few iterations).
  std::vector<long long> tests_per_iteration;
};

// The debugging loop as a campaign policy. Round 0 proposes the bootstrap
// batch (initial observational samples + the fault itself); every later
// round refreshes the model, ranks causal paths, and proposes the top
// untried counterfactual repairs as one batch. If the goals are met mid-
// batch, the remaining speculative rows are dropped (not appended, not
// counted), so a batched run is row-for-row identical to a serial one.
// Deliberate batching trade-off vs the one-at-a-time loop: all of a round's
// candidates derive from the round-start incumbent — an improvement found
// mid-batch rebases the *next* round, not the rest of the batch (with
// repairs_per_iteration = 1 the old greedy semantics are recovered exactly).
class DebugPolicy : public CampaignPolicy {
 public:
  DebugPolicy(DebugOptions options, std::vector<double> fault_config,
              std::vector<ObjectiveGoal> goals, const DataTable* warm_start = nullptr);

  bool WantsRefresh(const CampaignContext& ctx) override;
  std::vector<std::vector<double>> Propose(CampaignContext& ctx) override;
  std::vector<std::string> ProposalEnvironments(size_t proposal_size) override;
  void Absorb(const std::vector<std::vector<double>>& configs,
              const std::vector<std::vector<double>>& rows, CampaignContext& ctx) override;
  bool Finished() const override { return finished_; }
  void Finalize(CampaignContext& ctx) override;

  // Valid once the campaign has run (Finalize was called).
  const DebugResult& result() const { return result_; }
  DebugResult TakeResult() { return std::move(result_); }

 private:
  struct PendingRepair {
    std::vector<double> config;
    size_t first_option = 0;  // first option of the repair (Fig. 11 d)
  };

  DebugOptions options_;
  std::vector<double> fault_config_;
  std::vector<ObjectiveGoal> goals_;
  const DataTable* warm_start_;
  Rng rng_;

  bool bootstrapped_ = false;
  bool finished_ = false;
  size_t iter_ = 0;
  std::vector<VarRole> roles_;
  std::vector<size_t> goal_vars_;
  std::vector<double> fault_row_;
  std::vector<double> current_config_;
  std::vector<double> current_row_;
  std::vector<double> best_config_;
  std::vector<double> best_row_;
  double best_badness_ = 0.0;
  std::set<std::vector<double>> tried_configs_;
  size_t stall_ = 0;
  // Diagnosis from the most recent model: options on the top-ranked causal
  // paths into the violated objectives (paper §4: "the configurations in
  // this path are more likely to be associated with the root cause").
  std::vector<size_t> path_diagnosis_;
  std::vector<PendingRepair> pending_;
  DebugResult result_;
};

class UnicornDebugger {
 public:
  UnicornDebugger(PerformanceTask task, DebugOptions options);

  // Debugs the fault described by `fault_config` against the goals. An
  // optional warm-start table (transferability: model learned in a source
  // environment) seeds the observational data. Thin wrapper: builds a
  // single-policy campaign and runs it.
  DebugResult Debug(const std::vector<double>& fault_config,
                    const std::vector<ObjectiveGoal>& goals,
                    const DataTable* warm_start = nullptr);

 private:
  PerformanceTask task_;
  DebugOptions options_;
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_DEBUGGER_H_
