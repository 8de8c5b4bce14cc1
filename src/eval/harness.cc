#include "eval/harness.h"

#include <algorithm>

#include "util/hash.h"

namespace unicorn {

PerformanceTask MakeSimulatedTask(std::shared_ptr<const SystemModel> model, Environment env,
                                  Workload workload, uint64_t seed) {
  PerformanceTask task;
  task.variables = model->variables();
  task.option_vars = model->OptionIndices();
  // Each call derives its noise stream from (seed, config hash), so
  // measuring is a pure function of the configuration: safe to fan out on
  // fleet workers, and the measured row is independent of call order. The
  // previous shared-RNG capture was a data race the moment measurements ran
  // on several threads, and made results depend on call interleaving even
  // serially.
  task.measure = [model, env, workload, seed](const std::vector<double>& config) {
    Rng call_rng(HashDoubles(config, seed));
    return model->Measure(config, env, workload, &call_rng);
  };
  task.sample_config = [model](Rng* r) { return model->SampleConfig(r); };
  return task;
}

std::unique_ptr<SimulatedDeviceBackend> MakeDeviceBackend(
    std::shared_ptr<const SystemModel> model, const Environment& env, Workload workload,
    uint64_t task_seed, DeviceProfile profile) {
  if (profile.environment.empty()) {
    // Default routing tag: the hardware environment's name, so the members
    // of a heterogeneous fleet are distinguishable without extra setup.
    profile.environment = env.name;
  }
  return std::make_unique<SimulatedDeviceBackend>(
      MakeSimulatedTask(std::move(model), env, std::move(workload), task_seed),
      std::move(profile));
}

std::vector<double> TrueAceWeights(const SystemModel& model, size_t objective,
                                   const Environment& env, const Workload& workload,
                                   uint64_t seed, int contexts) {
  std::vector<double> weights(model.NumVars(), 0.0);
  Rng rng(seed);
  for (size_t opt : model.OptionIndices()) {
    weights[opt] = model.TrueAce(objective, opt, env, workload, &rng, contexts);
  }
  return weights;
}

std::vector<ObjectiveGoal> GoalsForFault(const FaultCuration& curation, const Fault& fault,
                                         double goal_percentile) {
  std::vector<ObjectiveGoal> goals;
  for (size_t obj : fault.objectives) {
    std::vector<double> values = curation.samples.Col(obj);
    std::sort(values.begin(), values.end());
    const size_t idx = std::min(
        values.size() - 1, static_cast<size_t>(goal_percentile * (values.size() - 1)));
    goals.push_back({obj, values[idx]});
  }
  return goals;
}

}  // namespace unicorn
