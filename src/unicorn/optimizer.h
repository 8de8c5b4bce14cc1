// Unicorn performance optimization (paper §7, Fig. 15).
//
// The same causal active-learning loop pointed at minimization instead of
// repair: options are mutated with probability proportional to their average
// causal effect on the objective(s), the new value is the level the
// interventional estimate prefers, and the causal model is refreshed
// periodically. Multi-objective mode keeps a Pareto archive and scalarizes
// with fresh random weights each step.
//
// The loop lives in OptimizePolicy, a CampaignPolicy over the shared
// CampaignRunner (bootstrap batch + one or more candidates per round through
// the measurement broker); UnicornOptimizer is the thin single-policy
// wrapper.
#ifndef UNICORN_UNICORN_OPTIMIZER_H_
#define UNICORN_UNICORN_OPTIMIZER_H_

#include <vector>

#include "causal/effects.h"
#include "unicorn/campaign.h"
#include "unicorn/model_learner.h"
#include "unicorn/task.h"

namespace unicorn {

struct OptimizeOptions {
  // Configurations measured (and eligible as incumbents) ahead of the
  // random bootstrap samples — e.g. a source campaign's optimum when
  // refining it under a transferred model. Unlike a warm-start table, these
  // are measured fresh in THIS task's environment.
  std::vector<std::vector<double>> anchor_configs;
  size_t initial_samples = 25;
  size_t max_iterations = 200;     // total candidate measurements after bootstrap
  size_t relearn_every = 10;       // causal model refresh period (in candidates)
  size_t mutations_per_step = 3;   // options changed per candidate
  size_t candidates_per_round = 1;  // candidates measured as one broker batch
  double explore_probability = 0.15;  // chance of a uniform-random candidate
  CausalModelOptions model;
  // Incremental-discovery knobs for the engine held across refreshes.
  EngineOptions engine;
  // Measurement-plane knobs (bootstrap + candidate batches).
  BrokerOptions broker;
  // Environment routing tag for every measurement this policy requests
  // (see DebugOptions::environment). Empty = any backend.
  std::string environment;
  uint64_t seed = 13;
};

// The campaign-level slice of OptimizeOptions (see the DebugOptions
// counterpart in debugger.h).
CampaignOptions ToCampaignOptions(const OptimizeOptions& options);

struct OptimizeResult {
  std::vector<double> best_config;
  double best_value = 0.0;
  // Best-so-far objective value after each measurement (for Fig. 15 a/b).
  std::vector<double> best_trajectory;
  // All measured objective vectors (for Pareto fronts / hypervolume traces).
  std::vector<std::vector<double>> evaluated;
  size_t measurements_used = 0;
  // Row-provenance split of the engine's table at finalize (see
  // DebugResult::source_rows/target_rows).
  size_t source_rows = 0;
  size_t target_rows = 0;
  // Discovery-cost accounting of the engine shard across all its model
  // refreshes (see DebugResult::engine_stats).
  EngineStats engine_stats;
  // Shard index (see DebugResult::shard).
  size_t shard = 0;
  // Measurement-plane accounting of the campaign's broker.
  BrokerStats broker_stats;
};

// The optimization loop as a campaign policy: round 0 proposes the bootstrap
// batch, every later round proposes `candidates_per_round` candidates
// (mutations of the incumbent, or uniform exploration) and absorbs their
// rows. ACE sampling weights are rebuilt whenever the shared engine was
// refreshed since they were last computed — including refreshes another
// policy in the campaign triggered.
class OptimizePolicy : public CampaignPolicy {
 public:
  OptimizePolicy(OptimizeOptions options, std::vector<size_t> objective_vars,
                 const DataTable* warm_start = nullptr);

  bool WantsRefresh(const CampaignContext& ctx) override;
  std::vector<std::vector<double>> Propose(CampaignContext& ctx) override;
  std::vector<std::string> ProposalEnvironments(size_t proposal_size) override;
  void Absorb(const std::vector<std::vector<double>>& configs,
              const std::vector<std::vector<double>>& rows, CampaignContext& ctx) override;
  bool Finished() const override { return finished_; }
  void Finalize(CampaignContext& ctx) override;

  const OptimizeResult& result() const { return result_; }
  OptimizeResult TakeResult() { return std::move(result_); }

 private:
  double Scalarize(const std::vector<double>& row) const;
  void Record(const std::vector<double>& config, const std::vector<double>& row);
  std::vector<double> MakeCandidate(const CampaignContext& ctx,
                                    const CausalEffectEstimator& estimator);

  OptimizeOptions options_;
  std::vector<size_t> objective_vars_;
  const DataTable* warm_start_;
  Rng rng_;

  bool bootstrapped_ = false;
  bool finished_ = false;
  size_t iter_ = 0;           // candidates absorbed so far
  size_t next_relearn_ = 0;   // iter_ at which the next refresh is due
  size_t refreshes_seen_ = 0;  // engine refresh count when weights were built
  bool have_weights_ = false;
  std::vector<double> option_ace_;
  double best_value_ = 0.0;
  std::vector<double> best_config_;
  OptimizeResult result_;
};

class UnicornOptimizer {
 public:
  UnicornOptimizer(PerformanceTask task, OptimizeOptions options);

  // Minimizes a single objective.
  OptimizeResult Minimize(size_t objective_var, const DataTable* warm_start = nullptr);

  // Minimizes several objectives jointly; `evaluated` rows follow
  // `objective_vars` order and best_* track the last scalarization.
  OptimizeResult MinimizeMulti(const std::vector<size_t>& objective_vars,
                               const DataTable* warm_start = nullptr);

 private:
  OptimizeResult Run(const std::vector<size_t>& objective_vars, const DataTable* warm_start);

  PerformanceTask task_;
  OptimizeOptions options_;
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_OPTIMIZER_H_
