// Ground-truth configurable-system simulator.
//
// Substitute for the paper's hardware testbed (NVIDIA Jetson TX1/TX2/Xavier
// running Deepstream, Xception, BERT, Deepspeech, x264, SQLite): each system
// is a structural causal model over configuration options, intermediate
// system events, and performance objectives. Options are exogenous; every
// event/objective node has a polynomial mechanism with interaction and
// saturation terms plus Gaussian noise; "fault rules" add configuration
// cliffs that produce the heavy performance tails the paper debugs.
//
// Environments (hardware platforms) keep the causal structure fixed and
// rescale mechanism coefficients — the exact premise behind the paper's
// transferability claims (§8). Workload size scales event magnitudes.
//
// Because the ground truth is known, evaluation can compute exact structural
// Hamming distances, true root causes, and true (interventional) ACE weights.
#ifndef UNICORN_SYSMODEL_SYSTEM_MODEL_H_
#define UNICORN_SYSMODEL_SYSTEM_MODEL_H_

#include <string>
#include <vector>

#include "graph/mixed_graph.h"
#include "stats/table.h"
#include "util/rng.h"

namespace unicorn {

// One additive term of a node mechanism: coeff * prod(normalized inputs),
// optionally squashed through tanh to create saturation/non-convexity.
struct MechanismTerm {
  std::vector<size_t> inputs;  // variable indices (options or earlier nodes)
  double coeff = 0.0;
  bool saturating = false;
};

// Mechanism of one event/objective node. The mechanism produces a
// scale-free activation; the reported raw value is
//   base * softplus(activation) * workload/environment scales * penalties.
struct Mechanism {
  double bias = 0.0;
  std::vector<MechanismTerm> terms;
  double noise_sigma = 0.02;
  double base = 1.0;  // magnitude of the reported raw value
};

// One conjunctive condition over a variable's *normalized* value.
struct FaultCondition {
  size_t var = 0;
  double lo = 0.0;
  double hi = 1.0;
};

// A configuration cliff: when all conditions hold, the objective is degraded
// multiplicatively. The options appearing in conditions are the true root
// causes of the resulting non-functional fault.
struct FaultRule {
  std::string name;
  std::vector<FaultCondition> conditions;
  size_t objective = 0;
  double penalty = 2.0;  // multiplier > 1 applied to the objective
};

// Hardware platform: shared structure, environment-specific mechanism scales.
struct Environment {
  std::string name;
  uint64_t seed = 1;           // drives per-term deterministic rescaling
  double speed = 1.0;          // divides latency-like objectives
  double energy_factor = 1.0;  // multiplies energy-like objectives
  double coeff_jitter = 0.35;  // relative magnitude of per-term rescale
};

// Workload: linear scale on event magnitudes (e.g. number of test images).
struct Workload {
  std::string name;
  double scale = 1.0;
};

// A full measurement: raw values for every variable (options echoed back).
using Measurement = std::vector<double>;

class SystemModel {
 public:
  SystemModel(std::string name, std::vector<Variable> variables,
              std::vector<Mechanism> mechanisms, std::vector<FaultRule> fault_rules);

  const std::string& name() const { return name_; }
  const std::vector<Variable>& variables() const { return variables_; }
  size_t NumVars() const { return variables_.size(); }
  const std::vector<FaultRule>& fault_rules() const { return fault_rules_; }

  std::vector<size_t> OptionIndices() const;
  std::vector<size_t> EventIndices() const;
  std::vector<size_t> ObjectiveIndices() const;

  // Uniform-random configuration (one value per option, in option order).
  std::vector<double> SampleConfig(Rng* rng) const;

  // Default configuration: first level / low end of each option domain.
  std::vector<double> DefaultConfig() const;

  // Simulates one measurement of `config` (option order as OptionIndices()).
  // Follows the paper's protocol: `replicates` noisy runs, per-variable
  // median reported. Const and free of shared mutable state: safe to call
  // concurrently from measurement fleet workers as long as each caller
  // passes its own Rng.
  Measurement Measure(const std::vector<double>& config, const Environment& env,
                      const Workload& workload, Rng* rng, int replicates = 5) const;

  // Noise-free measurement (for ground-truth analyses).
  Measurement MeasureNoiseless(const std::vector<double>& config, const Environment& env,
                               const Workload& workload) const;

  // Batch measurement into a DataTable with this model's variable metadata.
  DataTable MeasureMany(const std::vector<std::vector<double>>& configs, const Environment& env,
                        const Workload& workload, Rng* rng, int replicates = 5) const;

  // The true causal graph (ADMG with directed edges only): one edge from each
  // mechanism input to its node, plus edges from fault-rule root causes to
  // the affected objective.
  MixedGraph GroundTruthGraph() const;

  // True interventional ACE of option `x` on variable `z`, estimated by
  // Monte-Carlo intervention on the simulator: for pairs of levels of x,
  // average |E[z | do(x=b)] - E[z | do(x=a)]| with other options randomized.
  double TrueAce(size_t z, size_t x, const Environment& env, const Workload& workload, Rng* rng,
                 int num_contexts = 40) const;

  // Active fault rules for a measured configuration; union of their condition
  // options = true root causes.
  std::vector<size_t> ActiveFaultRules(const std::vector<double>& config) const;
  std::vector<size_t> TrueRootCauses(const std::vector<double>& config, size_t objective) const;

  // Normalizes a raw value of variable v into [0, 1] by its domain.
  double Normalize(size_t v, double raw) const;

 private:
  double EvaluateNode(size_t v, const std::vector<double>& raw_values,
                      const std::vector<double>& env_scale, const Workload& workload,
                      double noise) const;
  std::vector<double> EnvScales(const Environment& env) const;

  std::string name_;
  std::vector<Variable> variables_;
  std::vector<Mechanism> mechanisms_;  // size NumVars(); empty terms for options
  std::vector<FaultRule> fault_rules_;
  std::vector<size_t> eval_order_;  // non-option nodes in dependency order
};

}  // namespace unicorn

#endif  // UNICORN_SYSMODEL_SYSTEM_MODEL_H_
