// The trivial backend: PerformanceTask::measure in this process, behind the
// fleet interface. A broker built from a task alone measures on one of these.
#ifndef UNICORN_UNICORN_BACKEND_IN_PROCESS_BACKEND_H_
#define UNICORN_UNICORN_BACKEND_IN_PROCESS_BACKEND_H_

#include <string>
#include <vector>

#include "unicorn/backend/backend.h"
#include "unicorn/task.h"

namespace unicorn {

/// Wraps a PerformanceTask as a fleet member. Stateless beyond the task;
/// never fails on its own: an exception from task.measure comes back as a
/// permanent failure carrying its message (harness tasks never throw).
class InProcessBackend : public MeasurementBackend {
 public:
  /// `concurrency` is how many fleet workers may call task.measure at once
  /// (harness tasks are pure per configuration, so any value is safe; values
  /// < 1 clamp to 1). `environment` is the routing tag — set it when this
  /// process stands in for one specific hardware environment of a
  /// heterogeneous fleet, leave empty for an untagged capacity member.
  explicit InProcessBackend(PerformanceTask task, std::string name = "in-process",
                            int concurrency = 1, std::string environment = "");

  const std::string& name() const override { return name_; }
  int concurrency() const override { return concurrency_; }
  const std::string& environment() const override { return environment_; }

  /// kOk with task.measure's row, or kPermanent with the message of the
  /// exception task.measure threw; `attempt` is ignored.
  /// Thread-safety: safe from concurrency() workers iff task.measure is
  /// (every harness task is — pure per configuration).
  MeasureOutcome Measure(const std::vector<double>& config, int attempt) override;

 private:
  PerformanceTask task_;
  std::string name_;
  int concurrency_;
  std::string environment_;
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_BACKEND_IN_PROCESS_BACKEND_H_
