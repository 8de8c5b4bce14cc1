#include "unicorn/debugger.h"

#include <algorithm>

#include "causal/constraints.h"

namespace unicorn {

CampaignOptions ToCampaignOptions(const DebugOptions& options) {
  CampaignOptions campaign;
  campaign.model = options.model;
  campaign.engine = options.engine;
  campaign.broker = options.broker;
  campaign.seed = options.seed;
  return campaign;
}

DebugPolicy::DebugPolicy(DebugOptions options, std::vector<double> fault_config,
                         std::vector<ObjectiveGoal> goals, const DataTable* warm_start)
    : options_(std::move(options)),
      fault_config_(std::move(fault_config)),
      goals_(std::move(goals)),
      warm_start_(warm_start),
      rng_(options_.seed) {
  for (const auto& goal : goals_) {
    goal_vars_.push_back(goal.var);
  }
}

std::vector<std::string> DebugPolicy::ProposalEnvironments(size_t proposal_size) {
  return options_.environment.empty()
             ? std::vector<std::string>{}
             : std::vector<std::string>(proposal_size, options_.environment);
}

bool DebugPolicy::WantsRefresh(const CampaignContext&) {
  // No model is needed for the bootstrap batch, and none after the budget is
  // spent; every repair round reasons on a fresh (incremental) refresh.
  return bootstrapped_ && !finished_ && iter_ < options_.max_iterations;
}

std::vector<std::vector<double>> DebugPolicy::Propose(CampaignContext& ctx) {
  if (!bootstrapped_) {
    // Stage II bootstrap: initial observational data plus the fault itself,
    // proposed as one batch so the broker can fan it out.
    ctx.engine.Reserve(ctx.engine.data().NumRows() +
                       (warm_start_ != nullptr ? warm_start_->NumRows() : 0) +
                       options_.initial_samples +
                       options_.repairs_per_iteration * options_.max_iterations + 2);
    if (warm_start_ != nullptr) {
      // Transferred observational data: tag it as source provenance so
      // DebugResult reports the reuse split the same way a shard seeded
      // with SeedFromTable does.
      ctx.engine.AppendRows(*warm_start_, RowProvenance::kSource);
    }
    roles_ = StructuralConstraints(ctx.task.variables).roles();
    std::vector<std::vector<double>> batch;
    batch.reserve(options_.initial_samples + 1);
    for (size_t i = 0; i < options_.initial_samples; ++i) {
      batch.push_back(ctx.task.sample_config(&rng_));
    }
    batch.push_back(fault_config_);
    return batch;
  }

  if (iter_ >= options_.max_iterations) {
    finished_ = true;
    return {};
  }

  result_.tests_per_iteration.push_back(ctx.engine.stats().tests_requested);
  const CausalEffectEstimator& estimator = ctx.engine.Estimator();

  // Stage III: rank causal paths into the violated objectives.
  auto paths = estimator.RankPaths(goal_vars_, options_.top_k_paths);

  path_diagnosis_ = OptionsOnPaths(paths, roles_);
  const size_t options_on_paths = path_diagnosis_.size();
  constexpr size_t kMaxDiagnosis = 8;
  if (path_diagnosis_.size() > kMaxDiagnosis) {
    path_diagnosis_.resize(kMaxDiagnosis);
  }

  // Cold-start fallback: with few samples the learned paths may not reach
  // back to any option yet. Augment with the options that have the highest
  // direct ACE on the violated objectives (same heuristic, degenerate
  // two-node paths) so the repair generator always has candidates.
  if (options_on_paths < 3) {
    std::vector<std::pair<double, size_t>> scored;
    for (size_t opt : ctx.task.option_vars) {
      double ace = 0.0;
      for (size_t g : goal_vars_) {
        ace += estimator.Ace(g, opt);
      }
      scored.push_back({ace, opt});
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& x, const auto& y) { return x.first > y.first; });
    const size_t want = 6 - options_on_paths;
    for (size_t i = 0; i < scored.size() && i < want; ++i) {
      RankedPath pseudo;
      pseudo.nodes = {scored[i].second, goal_vars_.front()};
      pseudo.path_ace = scored[i].first;
      paths.push_back(std::move(pseudo));
    }
  }

  // Stage V: counterfactual repair generation + ICE scoring, then the
  // highest-ICE untried repairs become this round's measurement batch.
  const auto repairs =
      GenerateRepairs(estimator, paths, roles_, current_row_, goals_, options_.repairs);

  pending_.clear();
  std::vector<std::vector<double>> batch;
  for (const auto& repair : repairs) {
    if (pending_.size() >= options_.repairs_per_iteration) {
      break;
    }
    std::vector<double> candidate = current_config_;
    for (const auto& [var, level] : repair.assignments) {
      // Map global option var -> config slot.
      for (size_t i = 0; i < ctx.task.option_vars.size(); ++i) {
        if (ctx.task.option_vars[i] == var) {
          candidate[i] = estimator.ValueOfLevel(var, level);
        }
      }
    }
    if (tried_configs_.count(candidate)) {
      continue;
    }
    tried_configs_.insert(candidate);
    pending_.push_back({candidate, repair.assignments.front().first});
    batch.push_back(std::move(candidate));
  }
  if (batch.empty()) {
    // No untried repair left to measure: the loop cannot make progress.
    finished_ = true;
  }
  return batch;
}

void DebugPolicy::Absorb(const std::vector<std::vector<double>>&,
                         const std::vector<std::vector<double>>& rows,
                         CampaignContext& ctx) {
  if (!bootstrapped_) {
    for (const auto& row : rows) {
      ctx.engine.AddRow(row);
      ++result_.measurements_used;
    }
    fault_row_ = rows.back();
    current_config_ = fault_config_;
    current_row_ = fault_row_;
    best_config_ = fault_config_;
    best_row_ = fault_row_;
    best_badness_ = GoalViolation(fault_row_, goals_);
    tried_configs_ = {fault_config_};
    bootstrapped_ = true;
    return;
  }

  ++iter_;
  for (size_t k = 0; k < rows.size(); ++k) {
    const auto& row = rows[k];
    ctx.engine.AddRow(row);
    ++result_.measurements_used;

    std::vector<double> objective_values;
    for (size_t g : goal_vars_) {
      objective_values.push_back(row[g]);
    }
    result_.objective_trajectory.push_back(std::move(objective_values));
    result_.selected_options.push_back(pending_[k].first_option);

    const double badness = GoalViolation(row, goals_);
    if (badness < best_badness_) {
      best_badness_ = badness;
      best_row_ = row;
      best_config_ = pending_[k].config;
      current_config_ = pending_[k].config;  // greedy: continue from the improvement
      current_row_ = row;
      stall_ = 0;
    } else {
      ++stall_;
    }
    if (GoalsMet(row, goals_)) {
      result_.fixed = true;
      // The broker may have speculatively measured the rest of the batch; a
      // sequential loop would have stopped here, so drop the remainder
      // (neither appended nor counted) to keep batched == serial.
      break;
    }
  }
  if (result_.fixed || stall_ >= options_.stall_termination ||
      iter_ >= options_.max_iterations) {
    finished_ = true;
  }
  // The CI-state extension for this slice is deliberately NOT paid here:
  // Refresh() brings the test state up to date in one
  // O(appended-since-last-refresh) step on entry — on the
  // pipeline's refresh workers that work overlaps device service time and
  // parallelizes across shards instead of serializing on the scheduler
  // thread, and an engine that never refreshes again (a policy past its
  // last relearn) skips it entirely. Bit-identical either way: nothing
  // reads the test state between absorb and refresh.
}

void DebugPolicy::Finalize(CampaignContext& ctx) {
  if (ctx.engine.HasModel()) {
    result_.final_graph = ctx.engine.model().admg;
  }
  result_.engine_stats = ctx.engine.stats();
  result_.shard = ctx.shard;
  result_.broker_stats = ctx.broker.stats();
  result_.source_rows = ctx.engine.ProvenanceRows(RowProvenance::kSource);
  result_.target_rows = ctx.engine.ProvenanceRows(RowProvenance::kTarget);
  result_.fixed_config = best_config_;
  result_.fixed_measurement = best_row_;
  // Diagnosis: the options the fix changed, plus the options on the final
  // model's top causal paths into the violated objectives.
  for (size_t i = 0; i < ctx.task.option_vars.size(); ++i) {
    if (!best_config_.empty() && best_config_[i] != fault_config_[i]) {
      result_.predicted_root_causes.push_back(ctx.task.option_vars[i]);
    }
  }
  for (size_t v : path_diagnosis_) {
    if (std::find(result_.predicted_root_causes.begin(), result_.predicted_root_causes.end(),
                  v) == result_.predicted_root_causes.end()) {
      result_.predicted_root_causes.push_back(v);
    }
  }
  std::sort(result_.predicted_root_causes.begin(), result_.predicted_root_causes.end());
}

UnicornDebugger::UnicornDebugger(PerformanceTask task, DebugOptions options)
    : task_(std::move(task)), options_(std::move(options)) {}

DebugResult UnicornDebugger::Debug(const std::vector<double>& fault_config,
                                   const std::vector<ObjectiveGoal>& goals,
                                   const DataTable* warm_start) {
  CampaignRunner runner(task_, ToCampaignOptions(options_));
  DebugPolicy policy(options_, fault_config, goals, warm_start);
  runner.Run({&policy});
  return policy.TakeResult();
}

}  // namespace unicorn
