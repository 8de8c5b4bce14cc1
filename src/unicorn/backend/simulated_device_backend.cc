#include "unicorn/backend/simulated_device_backend.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/hash.h"

namespace unicorn {
namespace {

// Uniform [0, 1) from a mixed 64-bit state (the same construction Rng uses
// for its output stage, without carrying stream state across calls).
double UnitDraw(uint64_t state) {
  return static_cast<double>(Mix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

SimulatedDeviceBackend::SimulatedDeviceBackend(PerformanceTask task, DeviceProfile profile)
    : task_(std::move(task)), profile_(std::move(profile)) {
  profile_.concurrency = std::max(1, profile_.concurrency);
  profile_.service_time_jitter = std::clamp(profile_.service_time_jitter, 0.0, 1.0);
}

MeasureOutcome SimulatedDeviceBackend::Measure(const std::vector<double>& config, int attempt) {
  // One deterministic stream per (device, config, attempt): thread
  // interleaving cannot change which attempts fail or how long they take.
  // The seed is mixed before the attempt is folded in; `seed ^ attempt`
  // alone would give devices whose seeds differ only in the low bits each
  // other's streams (seed 1000 at attempt 3 == seed 1002 at attempt 1), so a
  // retry rerouted to the other device would replay the failure.
  const uint64_t stream =
      HashDoubles(config, Mix64(Mix64(profile_.seed) ^ static_cast<uint64_t>(attempt)));

  const double jitter_draw = 2.0 * UnitDraw(stream) - 1.0;  // [-1, 1)
  const double service_seconds = std::max(
      0.0, profile_.service_time_mean * (1.0 + profile_.service_time_jitter * jitter_draw));
  busy_us_.fetch_add(static_cast<long long>(service_seconds * 1e6));
  if (profile_.sleep && service_seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(service_seconds));
  }

  const double failure_draw = UnitDraw(stream ^ 0x5bf03635dc1e8937ULL);
  if (failure_draw < profile_.permanent_failure_rate) {
    return MeasureOutcome::Permanent(profile_.name + ": device fault (injected permanent)");
  }
  if (failure_draw < profile_.permanent_failure_rate + profile_.transient_failure_rate) {
    return MeasureOutcome::Transient(profile_.name + ": measurement lost (injected transient)");
  }
  return MeasureOutcome::Ok(task_.measure(config));
}

}  // namespace unicorn
