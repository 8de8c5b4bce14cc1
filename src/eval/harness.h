// Glue between the simulated systems and the Unicorn/baseline interfaces:
// wraps a SystemModel deployed in an (environment, workload) as a
// PerformanceTask, and computes the ground-truth ACE weights used by the
// accuracy metric (paper §6: weights derive from the ground-truth causal
// performance model).
#ifndef UNICORN_EVAL_HARNESS_H_
#define UNICORN_EVAL_HARNESS_H_

#include <memory>

#include "sysmodel/faults.h"
#include "sysmodel/system_model.h"
#include "unicorn/backend/simulated_device_backend.h"
#include "unicorn/task.h"

namespace unicorn {

// Builds a PerformanceTask backed by the simulator. Measurement noise is a
// pure function of (seed, configuration): repeat measurements of one config
// return the identical row (the simulator already medians over replicates),
// and measure() is safe to call concurrently from measurement fleet workers.
PerformanceTask MakeSimulatedTask(std::shared_ptr<const SystemModel> model, Environment env,
                                  Workload workload, uint64_t seed);

// Deploys `model` on one simulated device: the task carries the device's
// Environment (per-backend hardware override — TX1 vs TX2 vs Xavier), the
// profile adds seeded service-time and failure injection. When
// profile.environment is empty it defaults to env.name, so the backend is
// routable by environment tag out of the box. A fleet of these is the
// paper's heterogeneous Jetson rack; give every backend the same
// environment and task seed when bit-identity with a serial broker is the
// point (homogeneous backends), distinct environments when modeling
// source/target hardware for the transfer benches.
std::unique_ptr<SimulatedDeviceBackend> MakeDeviceBackend(
    std::shared_ptr<const SystemModel> model, const Environment& env, Workload workload,
    uint64_t task_seed, DeviceProfile profile);

// True interventional ACE of every option on `objective` (indexed by global
// variable id; non-options get 0). These are the weights of the ACE-weighted
// Jaccard accuracy.
std::vector<double> TrueAceWeights(const SystemModel& model, size_t objective,
                                   const Environment& env, const Workload& workload,
                                   uint64_t seed, int contexts = 20);

// QoS goals for debugging a fault: bring every violated objective back into
// the healthy bulk of the performance distribution. `goal_percentile` picks
// the target (0.6 = land at or below the 60th percentile of the curated
// samples — the paper's repairs reach near-optimal performance, not merely
// "just under the fault threshold").
std::vector<ObjectiveGoal> GoalsForFault(const FaultCuration& curation, const Fault& fault,
                                         double goal_percentile = 0.6);

}  // namespace unicorn

#endif  // UNICORN_EVAL_HARNESS_H_
