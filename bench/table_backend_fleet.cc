// Backend fleet study: the measurement plane dispatching to N simulated
// Jetson devices instead of one in-process oracle.
//
// Four sections:
//   (a) 1 vs N devices — wall-clock scaling of one batch over a fleet whose
//       members really sleep their service time, with a bit-identity check
//       against direct serial task.measure rows;
//   (b) transient-failure sweep — retry/reroute accounting as the injected
//       failure rate rises, rows still bit-identical;
//   (c) circuit breaking — a permanently failing device is retired and its
//       queue migrates, nothing is lost;
//   (d) recorded replay — a second session served entirely from the first
//       session's persisted measurement table.
//
// `--smoke` shrinks batch sizes for CI. Single-core hosts bound the
// wall-clock scaling in (a) near the queueing ideal because fleet workers
// spend their time in simulated (slept) service, not on the CPU.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "sysmodel/systems.h"
#include "unicorn/backend/backend_fleet.h"
#include "unicorn/backend/recorded_backend.h"
#include "unicorn/measurement_broker.h"
#include "util/text_table.h"

namespace unicorn {
namespace {

using Clock = std::chrono::steady_clock;

struct Setup {
  std::shared_ptr<SystemModel> model;
  PerformanceTask task;
  std::vector<std::vector<double>> configs;
  std::vector<std::vector<double>> reference;  // direct serial task.measure rows
};

constexpr uint64_t kTaskSeed = 920;

Setup MakeSetup(size_t batch_size) {
  SystemSpec spec;
  spec.num_events = 12;
  Setup s;
  s.model = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
  s.task = MakeSimulatedTask(s.model, Tx2(), DefaultWorkload(), kTaskSeed);
  Rng rng(921);
  for (size_t i = 0; i < batch_size; ++i) {
    s.configs.push_back(s.task.sample_config(&rng));
    s.reference.push_back(s.task.measure(s.configs.back()));
  }
  return s;
}

std::unique_ptr<BackendFleet> MakeFleet(const Setup& s, int devices, double service_time,
                                        bool sleep, double transient_rate,
                                        double permanent_rate_first,
                                        FleetOptions options = {}) {
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (int b = 0; b < devices; ++b) {
    DeviceProfile profile;
    profile.name = "jetson-" + std::to_string(b);
    profile.seed = 700 + static_cast<uint64_t>(b);
    profile.service_time_mean = service_time;
    profile.service_time_jitter = 0.3;
    profile.sleep = sleep;
    profile.transient_failure_rate = transient_rate;
    profile.permanent_failure_rate = b == 0 ? permanent_rate_first : 0.0;
    backends.push_back(
        MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), kTaskSeed, std::move(profile)));
  }
  return std::make_unique<BackendFleet>(std::move(backends), options);
}

void RunScalingSection(const Setup& s, bool smoke) {
  std::printf("\n=== (a) 1 vs N devices: batch of %zu, %.0fms simulated service time ===\n",
              s.configs.size(), smoke ? 2.0 : 5.0);
  const double service = smoke ? 0.002 : 0.005;
  TextTable table({"devices", "wall(s)", "speedup", "busy(s)", "util", "bit-identical"});
  double base = 0.0;
  for (int devices : {1, 2, 4}) {
    MeasurementBroker broker(s.task, MakeFleet(s, devices, service, /*sleep=*/true, 0.0, 0.0));
    const auto start = Clock::now();
    const auto rows = broker.MeasureBatch(s.configs);
    const double wall = std::chrono::duration<double>(Clock::now() - start).count();
    if (devices == 1) {
      base = wall;
    }
    double busy = 0.0;
    for (const auto& backend : broker.fleet_stats().backends) {
      busy += backend.busy_seconds;
    }
    table.AddRow({std::to_string(devices), FormatDouble(wall, 3),
                  FormatDouble(base > 0.0 && wall > 0.0 ? base / wall : 0.0, 2),
                  FormatDouble(busy, 3),
                  FormatDouble(wall > 0.0 ? busy / (wall * devices) : 0.0, 2),
                  rows == s.reference ? "yes" : "NO (bug)"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("(speedup tracks device count while service time dominates: fleet workers\n"
              " sleep, they don't compete for the CPU)\n");
}

void RunFailureSweepSection(const Setup& s) {
  std::printf("\n=== (b) transient-failure sweep: 4 devices, batch of %zu ===\n",
              s.configs.size());
  TextTable table({"failure rate", "measured", "retries", "rerouted", "failed",
                   "attempts/req", "bit-identical"});
  for (double rate : {0.0, 0.1, 0.3, 0.5}) {
    FleetOptions options;
    options.max_attempts = 10;  // a 50% rate needs headroom to converge
    MeasurementBroker broker(
        s.task, MakeFleet(s, 4, 0.0, /*sleep=*/false, rate, 0.0, options));
    const auto rows = broker.MeasureBatch(s.configs);
    const FleetStats stats = broker.fleet_stats();
    table.AddRow({FormatDouble(rate, 1), std::to_string(stats.TotalMeasured()),
                  std::to_string(stats.retries), std::to_string(stats.rerouted),
                  std::to_string(stats.failed),
                  FormatDouble(static_cast<double>(stats.TotalMeasured()) /
                                   static_cast<double>(s.configs.size()),
                               2),
                  rows == s.reference ? "yes" : "NO (bug)"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("(rows stay bit-identical at every failure rate: retries reroute through\n"
              " the excluded-backend set and measurement is pure per configuration)\n");
}

void RunCircuitBreakSection(const Setup& s) {
  std::printf("\n=== (c) circuit breaking: device 0 fails every attempt ===\n");
  FleetOptions options;
  options.circuit_break_after = 2;
  options.queue_capacity = 8;
  MeasurementBroker broker(
      s.task, MakeFleet(s, 3, 0.0, /*sleep=*/false, 0.0, /*permanent_rate_first=*/1.0,
                        options));
  const auto rows = broker.MeasureBatch(s.configs);
  const FleetStats stats = broker.fleet_stats();
  TextTable table({"backend", "dispatched", "completed", "perm fails", "broken"});
  for (const auto& backend : stats.backends) {
    table.AddRow({backend.name, std::to_string(backend.dispatched),
                  std::to_string(backend.completed),
                  std::to_string(backend.permanent_failures),
                  backend.circuit_broken ? "yes" : "no"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("requests lost: %zu | rows bit-identical: %s | circuit breaks: %zu\n",
              s.configs.size() - stats.completed, rows == s.reference ? "yes" : "NO (bug)",
              stats.circuit_breaks);
}

void RunRecordedReplaySection(const Setup& s) {
  std::printf("\n=== (d) recorded replay: session 2 from session 1's table ===\n");
  const std::string path = "/tmp/unicorn_bench_fleet_table.csv";
  MeasurementBroker live(s.task);
  live.MeasureBatch(s.configs);
  if (!live.SaveCache(path)) {
    std::printf("(cannot write %s; skipping)\n", path.c_str());
    return;
  }
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  backends.push_back(std::make_unique<RecordedBackend>(RecordedBackend::FromFile(path)));
  MeasurementBroker replay(s.task, std::make_unique<BackendFleet>(std::move(backends)));
  const auto start = Clock::now();
  const auto rows = replay.MeasureBatch(s.configs);
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("replayed %zu rows in %.3fs | live measurements: 0 (all from %s)\n"
              "rows bit-identical to session 1: %s\n",
              rows.size(), wall, path.c_str(), rows == s.reference ? "yes" : "NO (bug)");
  std::remove(path.c_str());
}

void RunAll(bool smoke) {
  const Setup s = MakeSetup(smoke ? 32 : 128);
  std::printf("=== Backend fleet: multi-device measurement dispatch "
              "(Xception, %zu options) ===\n",
              s.model->OptionIndices().size());
  RunScalingSection(s, smoke);
  RunFailureSweepSection(s);
  RunCircuitBreakSection(s);
  RunRecordedReplaySection(s);
}

}  // namespace
}  // namespace unicorn

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  unicorn::RunAll(smoke);
  return 0;
}
