#include "unicorn/backend/in_process_backend.h"

#include <exception>
#include <utility>

namespace unicorn {

InProcessBackend::InProcessBackend(PerformanceTask task, std::string name, int concurrency,
                                   std::string environment)
    : task_(std::move(task)),
      name_(std::move(name)),
      concurrency_(concurrency < 1 ? 1 : concurrency),
      environment_(std::move(environment)) {}

MeasureOutcome InProcessBackend::Measure(const std::vector<double>& config, int attempt) {
  (void)attempt;
  try {
    return MeasureOutcome::Ok(task_.measure(config));
  } catch (const std::exception& e) {
    return MeasureOutcome::Permanent(e.what());
  } catch (...) {
    return MeasureOutcome::Permanent("task.measure threw a non-standard exception");
  }
}

}  // namespace unicorn
