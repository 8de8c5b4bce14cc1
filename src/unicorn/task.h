// The interface between Unicorn and a deployed configurable system.
//
// Unicorn never sees a system's internals: it samples configurations,
// measures them (options + system events + objectives come back as one row),
// and reasons on the resulting table — the same contract the paper's tool has
// with `perf` on a Jetson board.
#ifndef UNICORN_UNICORN_TASK_H_
#define UNICORN_UNICORN_TASK_H_

#include <functional>
#include <vector>

#include "causal/counterfactual.h"
#include "stats/table.h"
#include "util/rng.h"

namespace unicorn {

struct PerformanceTask {
  // Metadata for every variable (options, events, objectives).
  std::vector<Variable> variables;

  // Measures one configuration (option values in option order) and returns
  // the full variable row. This is the expensive operation the active
  // learning loop budgets. Contract for the measurement plane: measure must
  // be safe to call concurrently from measurement fleet workers and
  // deterministic per configuration (harness tasks derive a per-call RNG
  // from the config hash); the broker's batch==serial and dedup-cache
  // guarantees rest on this. measure may throw to reject a configuration:
  // InProcessBackend reports that as a permanent failure, and a broker built
  // from the task alone fails just that request (MeasureBatch throws
  // std::runtime_error carrying the message) and still measures the rest of
  // its batch.
  std::function<std::vector<double>(const std::vector<double>&)> measure;

  // Samples a uniform-random configuration.
  std::function<std::vector<double>(Rng*)> sample_config;

  // Indices of option variables, in the order configs are laid out.
  std::vector<size_t> option_vars;

  // Builds an empty data table with this task's variables.
  DataTable EmptyTable() const { return DataTable(variables); }

  // Extracts the option values of a full measurement row.
  std::vector<double> ConfigOf(const std::vector<double>& row) const {
    std::vector<double> config;
    config.reserve(option_vars.size());
    for (size_t v : option_vars) {
      config.push_back(row[v]);
    }
    return config;
  }
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_TASK_H_
