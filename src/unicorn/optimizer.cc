#include "unicorn/optimizer.h"

#include <algorithm>
#include <limits>

namespace unicorn {

CampaignOptions ToCampaignOptions(const OptimizeOptions& options) {
  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.engine = options.engine;
  campaign.broker = options.broker;
  campaign.seed = options.seed;
  return campaign;
}

OptimizePolicy::OptimizePolicy(OptimizeOptions options, std::vector<size_t> objective_vars,
                               const DataTable* warm_start)
    : options_(std::move(options)),
      objective_vars_(std::move(objective_vars)),
      warm_start_(warm_start),
      rng_(options_.seed),
      best_value_(std::numeric_limits<double>::infinity()) {}

double OptimizePolicy::Scalarize(const std::vector<double>& row) const {
  // Equal weights for "best" (the Pareto front is recovered from `evaluated`
  // by the caller).
  double acc = 0.0;
  for (size_t v : objective_vars_) {
    acc += row[v];
  }
  return acc / static_cast<double>(objective_vars_.size());
}

void OptimizePolicy::Record(const std::vector<double>& config,
                            const std::vector<double>& row) {
  std::vector<double> objs;
  objs.reserve(objective_vars_.size());
  for (size_t v : objective_vars_) {
    objs.push_back(row[v]);
  }
  result_.evaluated.push_back(std::move(objs));
  ++result_.measurements_used;
  const double value = Scalarize(row);
  if (value < best_value_) {
    best_value_ = value;
    best_config_ = config;
  }
  result_.best_trajectory.push_back(best_value_);
}

std::vector<std::string> OptimizePolicy::ProposalEnvironments(size_t proposal_size) {
  return options_.environment.empty()
             ? std::vector<std::string>{}
             : std::vector<std::string>(proposal_size, options_.environment);
}

bool OptimizePolicy::WantsRefresh(const CampaignContext& ctx) {
  return bootstrapped_ && !finished_ && iter_ < options_.max_iterations &&
         (iter_ >= next_relearn_ || !ctx.engine.HasModel());
}

std::vector<double> OptimizePolicy::MakeCandidate(const CampaignContext& ctx,
                                                  const CausalEffectEstimator& estimator) {
  std::vector<double> candidate = best_config_;
  // Random scalarization weights diversify the Pareto search direction.
  std::vector<double> weights(objective_vars_.size(), 1.0);
  if (objective_vars_.size() > 1) {
    double total = 0.0;
    for (auto& w : weights) {
      w = rng_.Uniform(0.05, 1.0);
      total += w;
    }
    for (auto& w : weights) {
      w /= total;
    }
  }
  for (size_t m = 0; m < options_.mutations_per_step; ++m) {
    // Option chosen proportionally to its causal effect.
    const size_t pick = rng_.Categorical(option_ace_);
    const size_t var = ctx.task.option_vars[pick];
    // Choose the level the interventional estimate prefers under the
    // current scalarization (softmax-free: greedy with random ties).
    const int levels = estimator.NumLevels(var);
    int best_level = 0;
    double best_pred = std::numeric_limits<double>::infinity();
    for (int l = 0; l < levels; ++l) {
      double pred = 0.0;
      for (size_t o = 0; o < objective_vars_.size(); ++o) {
        pred += weights[o] * estimator.ExpectationDo(objective_vars_[o], var, l);
      }
      if (pred < best_pred) {
        best_pred = pred;
        best_level = l;
      }
    }
    // Occasionally explore a random level instead of the greedy one.
    if (rng_.Bernoulli(0.25) && levels > 1) {
      best_level = static_cast<int>(rng_.UniformInt(static_cast<uint64_t>(levels)));
    }
    candidate[pick] = estimator.ValueOfLevel(var, best_level);
  }
  return candidate;
}

std::vector<std::vector<double>> OptimizePolicy::Propose(CampaignContext& ctx) {
  if (!bootstrapped_) {
    ctx.engine.Reserve(ctx.engine.data().NumRows() +
                       (warm_start_ != nullptr ? warm_start_->NumRows() : 0) +
                       options_.initial_samples + options_.max_iterations);
    if (warm_start_ != nullptr) {
      ctx.engine.AppendRows(*warm_start_, RowProvenance::kSource);
    }
    std::vector<std::vector<double>> batch = options_.anchor_configs;
    batch.reserve(batch.size() + options_.initial_samples);
    for (size_t i = 0; i < options_.initial_samples; ++i) {
      batch.push_back(ctx.task.sample_config(&rng_));
    }
    if (batch.empty()) {
      // Warm-start-only transfer: nothing to bootstrap, go straight to
      // candidates (an empty proposal would retire the policy).
      bootstrapped_ = true;
    } else {
      return batch;
    }
  }

  if (iter_ >= options_.max_iterations) {
    finished_ = true;
    return {};
  }
  if (iter_ >= next_relearn_) {
    next_relearn_ = iter_ + options_.relearn_every;
  }
  // Rebuild the ACE sampling weights whenever the shared engine refreshed
  // since they were last computed (by this policy's schedule or by a
  // co-running policy).
  if (ctx.engine.HasModel() &&
      (!have_weights_ || ctx.engine.stats().refreshes != refreshes_seen_)) {
    const CausalEffectEstimator& estimator = ctx.engine.Estimator();
    option_ace_.assign(ctx.task.option_vars.size(), 1.0);
    for (size_t i = 0; i < ctx.task.option_vars.size(); ++i) {
      double acc = 0.0;
      for (size_t v : objective_vars_) {
        acc += estimator.Ace(v, ctx.task.option_vars[i]);
      }
      option_ace_[i] = acc / static_cast<double>(objective_vars_.size());
    }
    refreshes_seen_ = ctx.engine.stats().refreshes;
    have_weights_ = true;
  }

  const size_t want =
      std::min(options_.candidates_per_round, options_.max_iterations - iter_);
  std::vector<std::vector<double>> batch;
  batch.reserve(std::max<size_t>(want, 1));
  for (size_t c = 0; c < std::max<size_t>(want, 1); ++c) {
    if (!have_weights_ || best_config_.empty() ||
        rng_.Bernoulli(options_.explore_probability)) {
      batch.push_back(ctx.task.sample_config(&rng_));
    } else {
      batch.push_back(MakeCandidate(ctx, ctx.engine.Estimator()));
    }
  }
  return batch;
}

void OptimizePolicy::Absorb(const std::vector<std::vector<double>>& configs,
                            const std::vector<std::vector<double>>& rows,
                            CampaignContext& ctx) {
  for (size_t k = 0; k < rows.size(); ++k) {
    ctx.engine.AddRow(rows[k]);
    Record(configs[k], rows[k]);
    if (bootstrapped_) {
      ++iter_;
    }
  }
  // The CI-state extension is deferred to Refresh() (one O(appended) step
  // on entry, see DebugPolicy::Absorb): on the pipeline's refresh workers
  // it overlaps device service time, and an optimizer past its last relearn
  // never pays it at all. Bit-identical: nothing reads the test state
  // between absorb and refresh.
  if (!bootstrapped_) {
    bootstrapped_ = true;
    return;
  }
  if (iter_ >= options_.max_iterations) {
    finished_ = true;
  }
}

void OptimizePolicy::Finalize(CampaignContext& ctx) {
  result_.engine_stats = ctx.engine.stats();
  result_.shard = ctx.shard;
  result_.broker_stats = ctx.broker.stats();
  result_.source_rows = ctx.engine.ProvenanceRows(RowProvenance::kSource);
  result_.target_rows = ctx.engine.ProvenanceRows(RowProvenance::kTarget);
  result_.best_config = best_config_;
  result_.best_value = best_value_;
}

UnicornOptimizer::UnicornOptimizer(PerformanceTask task, OptimizeOptions options)
    : task_(std::move(task)), options_(std::move(options)) {}

OptimizeResult UnicornOptimizer::Minimize(size_t objective_var, const DataTable* warm_start) {
  return Run({objective_var}, warm_start);
}

OptimizeResult UnicornOptimizer::MinimizeMulti(const std::vector<size_t>& objective_vars,
                                               const DataTable* warm_start) {
  return Run(objective_vars, warm_start);
}

OptimizeResult UnicornOptimizer::Run(const std::vector<size_t>& objective_vars,
                                     const DataTable* warm_start) {
  CampaignRunner runner(task_, ToCampaignOptions(options_));
  OptimizePolicy policy(options_, objective_vars, warm_start);
  runner.Run({&policy});
  return policy.TakeResult();
}

}  // namespace unicorn
