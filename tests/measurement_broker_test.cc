#include "unicorn/measurement_broker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "eval/harness.h"
#include "sysmodel/systems.h"
#include "unicorn/backend/in_process_backend.h"
#include "unicorn/backend/recorded_backend.h"

namespace unicorn {
namespace {

PerformanceTask MakeTask(uint64_t seed) {
  SystemSpec spec;
  spec.num_events = 8;
  auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
  return MakeSimulatedTask(model, Tx2(), DefaultWorkload(), seed);
}

std::vector<std::vector<double>> SampleBatch(const PerformanceTask& task, size_t count,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < count; ++i) {
    configs.push_back(task.sample_config(&rng));
  }
  return configs;
}

// The serial oracle: one direct task.measure call per request, in order. It
// never touches the broker or a fleet, so it cannot share their bugs.
std::vector<std::vector<double>> MeasureSerially(const PerformanceTask& task,
                                                 const std::vector<std::vector<double>>& configs) {
  std::vector<std::vector<double>> rows;
  rows.reserve(configs.size());
  for (const auto& config : configs) {
    rows.push_back(task.measure(config));
  }
  return rows;
}

// Three in-process backends running `task`, tagged "Xavier", "TX2" and ""
// (untagged), so every tag the tests send has hardware to route to.
std::unique_ptr<BackendFleet> TaggedFleet(const PerformanceTask& task) {
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (const char* environment : {"Xavier", "TX2", ""}) {
    backends.push_back(std::make_unique<InProcessBackend>(
        task, std::string("in-process-") + environment, 1, environment));
  }
  return std::make_unique<BackendFleet>(std::move(backends));
}

TEST(MeasurementBrokerTest, HarnessMeasurementIsPurePerConfig) {
  // The broker's guarantees rest on this: measuring is a pure function of
  // the configuration (per-call RNG from the config hash), so repeat calls
  // are bit-identical regardless of what was measured in between.
  const PerformanceTask task = MakeTask(1);
  const auto configs = SampleBatch(task, 3, 2);
  const auto first = task.measure(configs[0]);
  task.measure(configs[1]);
  task.measure(configs[2]);
  EXPECT_EQ(task.measure(configs[0]), first);
}

TEST(MeasurementBrokerTest, BatchMatchesSerialAtAnyThreadCount) {
  const PerformanceTask task = MakeTask(3);
  auto configs = SampleBatch(task, 40, 4);
  // Duplicates sprinkled in to exercise the dedup path too.
  for (size_t i = 0; i < 10; ++i) {
    configs.push_back(configs[i * 3]);
  }

  const auto reference = MeasureSerially(task, configs);

  for (int threads : {1, 2, 4}) {
    for (bool dedup : {true, false}) {
      BrokerOptions options;
      options.num_threads = threads;
      options.dedup_cache = dedup;
      MeasurementBroker broker(task, options);
      EXPECT_EQ(broker.MeasureBatch(configs), reference)
          << "threads=" << threads << " dedup=" << dedup;
    }
  }
}

TEST(MeasurementBrokerTest, DuplicatesMeasuredOnceWithAccounting) {
  const PerformanceTask task = MakeTask(5);
  auto configs = SampleBatch(task, 20, 6);
  for (size_t i = 0; i < 10; ++i) {
    configs.push_back(configs[i]);  // within-batch duplicates
  }

  BrokerOptions options;
  options.num_threads = 4;
  MeasurementBroker broker(task, options);
  broker.MeasureBatch(configs);
  EXPECT_EQ(broker.stats().requests, 30u);
  EXPECT_EQ(broker.stats().measured, 20u);
  EXPECT_EQ(broker.stats().cache_hits, 10u);

  // The same batch again: everything is in the canonical-config cache now.
  broker.MeasureBatch(configs);
  EXPECT_EQ(broker.stats().requests, 60u);
  EXPECT_EQ(broker.stats().measured, 20u);
  EXPECT_EQ(broker.stats().cache_hits, 40u);
  EXPECT_DOUBLE_EQ(broker.stats().CacheHitRate(), 40.0 / 60.0);
  EXPECT_EQ(broker.stats().batches, 2u);
  EXPECT_EQ(broker.stats().largest_batch, 30u);
}

TEST(MeasurementBrokerTest, SingleMeasureSharesTheCache) {
  const PerformanceTask task = MakeTask(7);
  const auto configs = SampleBatch(task, 1, 8);
  MeasurementBroker broker(task);
  const auto row = broker.Measure(configs[0]);
  EXPECT_EQ(broker.Measure(configs[0]), row);
  EXPECT_EQ(broker.stats().measured, 1u);
  EXPECT_EQ(broker.stats().cache_hits, 1u);
}

TEST(MeasurementBrokerTest, WallAndBusyTimeAreAccountedSeparately) {
  const PerformanceTask task = MakeTask(11);
  const auto configs = SampleBatch(task, 16, 12);
  BrokerOptions options;
  options.num_threads = 4;
  MeasurementBroker broker(task, options);
  broker.MeasureBatch(configs);
  // Busy time sums one timing per measurement; wall time is recorded once
  // per batch on the calling thread. On a multi-core host busy can exceed
  // wall (that was the old bug, fanned out the other way); both are always
  // positive once something measured.
  EXPECT_GT(broker.stats().batch_wall_seconds, 0.0);
  EXPECT_GT(broker.stats().busy_seconds, 0.0);
}

TEST(MeasurementBrokerTest, SyncPathActiveWallWithinBatchWall) {
  // A synchronous batch opens the active-wall window at its first fleet
  // submission and closes it at its last completion, both inside the
  // caller's batch wall; batches do not overlap, so the interval union never
  // exceeds the summed batch walls (the split only diverges under async
  // SubmitBatch, where batch_wall undercounts overlapped submissions).
  const PerformanceTask task = MakeTask(21);
  BrokerOptions options;
  options.num_threads = 2;
  MeasurementBroker broker(task, options);
  broker.MeasureBatch(SampleBatch(task, 12, 22));
  broker.MeasureBatch(SampleBatch(task, 8, 23));
  const BrokerStats stats = broker.stats();
  EXPECT_GT(stats.active_wall_seconds, 0.0);
  EXPECT_LE(stats.active_wall_seconds, stats.batch_wall_seconds);
  EXPECT_DOUBLE_EQ(stats.Utilization(), stats.busy_seconds / stats.active_wall_seconds);
}

// SaveCache round-trips bit-exactly: the table loads back with every
// measured (configuration, row), and a fleet whose only member replays the
// file answers the whole batch with zero live measurements.
TEST(MeasurementBrokerTest, SaveCacheRoundTripsBitExactly) {
  const PerformanceTask task = MakeTask(13);
  const auto configs = SampleBatch(task, 20, 14);
  const std::string path = ::testing::TempDir() + "broker_cache_roundtrip.csv";

  MeasurementBroker first(task);
  const auto reference = first.MeasureBatch(configs);
  ASSERT_TRUE(first.SaveCache(path));

  MeasurementTable table;
  ASSERT_TRUE(LoadMeasurementTable(path, &table));
  EXPECT_EQ(table.num_options, task.option_vars.size());
  EXPECT_EQ(table.num_vars, task.variables.size());
  std::map<std::vector<double>, std::vector<double>> measured;
  for (size_t i = 0; i < configs.size(); ++i) {
    measured.emplace(configs[i], reference[i]);
  }
  ASSERT_EQ(table.entries.size(), measured.size());
  for (const auto& entry : table.entries) {
    const auto it = measured.find(entry.config);
    ASSERT_NE(it, measured.end());
    EXPECT_EQ(entry.row, it->second);
    EXPECT_EQ(entry.provenance, "");  // task-only broker: untagged
  }

  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  backends.push_back(std::make_unique<RecordedBackend>(RecordedBackend::FromFile(path)));
  MeasurementBroker replay(task, std::make_unique<BackendFleet>(std::move(backends)));
  EXPECT_EQ(replay.MeasureBatch(configs), reference);
  const FleetStats fleet = replay.fleet_stats();
  ASSERT_EQ(fleet.backends.size(), 1u);
  EXPECT_EQ(fleet.backends[0].completed, measured.size());
  EXPECT_EQ(fleet.failed, 0u);
  std::remove(path.c_str());
}

// Environment tags partition the dedup cache — the same configuration in
// two environments is two requests — and SaveCache persists each entry's
// tag as the v2 provenance column, which survives a load round trip and
// which RecordedBackend adopts as its routing tag.
TEST(MeasurementBrokerTest, EnvironmentTagsPartitionCacheAndPersistAsProvenance) {
  const PerformanceTask task = MakeTask(41);
  const auto configs = SampleBatch(task, 6, 42);
  const std::string path = ::testing::TempDir() + "broker_cache_provenance.csv";

  MeasurementBroker broker(task, TaggedFleet(task));
  broker.MeasureBatch(configs, std::vector<std::string>(configs.size(), "Xavier"));
  EXPECT_EQ(broker.stats().measured, configs.size());
  // Same configs, different tag: measured again, not served from cache.
  broker.MeasureBatch(configs, std::vector<std::string>(configs.size(), "TX2"));
  EXPECT_EQ(broker.stats().measured, 2 * configs.size());
  EXPECT_EQ(broker.stats().cache_hits, 0u);
  // Same configs, same tag: pure cache hits.
  broker.MeasureBatch(configs, std::vector<std::string>(configs.size(), "Xavier"));
  EXPECT_EQ(broker.stats().cache_hits, configs.size());
  ASSERT_TRUE(broker.SaveCache(path));

  MeasurementTable table;
  ASSERT_TRUE(LoadMeasurementTable(path, &table));
  ASSERT_EQ(table.entries.size(), 2 * configs.size());
  EXPECT_EQ(table.entries.front().provenance, "Xavier");
  EXPECT_EQ(table.entries.back().provenance, "TX2");
  EXPECT_EQ(table.UniformProvenance(), "");  // mixed labels
  std::remove(path.c_str());
}

// A tag binds a request to hardware that carries it. A task-only broker
// measures on one untagged backend, so a tagged request has nowhere to go:
// the batch fails instead of measuring on the wrong hardware, and the
// broker still serves the same configurations untagged.
TEST(MeasurementBrokerTest, UnservedEnvironmentTagFailsTheBatch) {
  const PerformanceTask task = MakeTask(43);
  const auto configs = SampleBatch(task, 5, 44);

  MeasurementBroker broker(task);
  EXPECT_THROW(
      broker.MeasureBatch(configs, std::vector<std::string>(configs.size(), "Xavier")),
      std::runtime_error);
  EXPECT_EQ(broker.stats().failures, configs.size());
  EXPECT_EQ(broker.fleet_stats().failed, configs.size());
  EXPECT_EQ(broker.OutstandingRequests(), 0u);

  EXPECT_EQ(broker.MeasureBatch(configs), MeasureSerially(task, configs));
  EXPECT_EQ(broker.stats().failures, configs.size());
}

// A task may reject a configuration by throwing from measure. A task-only
// broker fails just that request, first attempt, with the task's message;
// the rest of the batch is measured and cached, and the broker stays usable
// however many rejections it sees (its one backend is never retired).
TEST(MeasurementBrokerTest, ThrowingMeasureFailsOnlyItsRequest) {
  const PerformanceTask base = MakeTask(45);
  const auto configs = SampleBatch(base, 6, 46);
  const std::vector<double> rejected = configs[2];
  PerformanceTask task = base;
  task.measure = [base, rejected](const std::vector<double>& config) {
    if (config == rejected) {
      throw std::invalid_argument("configuration rejected");
    }
    return base.measure(config);
  };
  auto accepted = configs;
  accepted.erase(accepted.begin() + 2);

  for (int threads : {1, 4}) {
    BrokerOptions options;
    options.num_threads = threads;
    MeasurementBroker broker(task, options);
    const size_t rounds = 4;  // more than a default fleet's circuit_break_after
    for (size_t round = 1; round <= rounds; ++round) {
      try {
        broker.MeasureBatch(configs);
        ADD_FAILURE() << "a rejected configuration must fail its batch";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("configuration rejected"), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(broker.stats().failures, round) << "threads=" << threads;
      EXPECT_EQ(broker.OutstandingRequests(), 0u);
    }
    const FleetStats fleet = broker.fleet_stats();
    EXPECT_EQ(fleet.submitted, accepted.size() + rounds) << "threads=" << threads;
    EXPECT_EQ(fleet.failed, rounds);
    EXPECT_EQ(fleet.retries, 0u);
    EXPECT_EQ(fleet.circuit_breaks, 0u);

    EXPECT_EQ(broker.MeasureBatch(accepted), MeasureSerially(base, accepted));
    EXPECT_EQ(broker.stats().measured, accepted.size() + rounds);
    const auto fresh = SampleBatch(base, 3, 47);
    EXPECT_EQ(broker.MeasureBatch(fresh), MeasureSerially(base, fresh));
  }
}

TEST(MeasurementBrokerTest, AsyncSubmitBatchStreamsCompletions) {
  const PerformanceTask task = MakeTask(19);
  auto configs = SampleBatch(task, 12, 20);
  configs.push_back(configs[0]);  // dedup works on the async path too

  const auto reference = MeasureSerially(task, configs);

  MeasurementBroker broker(task);
  const BatchTicket first = broker.SubmitBatch(configs);
  // Every request of the second batch is still in flight for the first, so
  // it is served entirely by in-flight coalescing.
  const BatchTicket second = broker.SubmitBatch(configs);
  EXPECT_EQ(first.size, configs.size());
  EXPECT_EQ(broker.OutstandingRequests(), 2 * configs.size());

  std::vector<uint64_t> received;
  BatchResult batch;
  while (broker.WaitBatch(&batch)) {
    ASSERT_TRUE(batch.id == first.id || batch.id == second.id) << "unknown id " << batch.id;
    EXPECT_EQ(batch.error, "");
    EXPECT_EQ(batch.rows, reference);
    received.push_back(batch.id);
  }
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, (std::vector<uint64_t>{first.id, second.id}));
  EXPECT_EQ(broker.OutstandingRequests(), 0u);
  EXPECT_EQ(broker.stats().measured, 12u);  // one live measurement per unique config
}

// The async path reports rejected requests instead of throwing: their batch
// comes back once, whole, with the rejected rows left empty and `error`
// naming the first rejection in request order, while every other row is
// measured and cached. Request 1 is rejected only after a pause, so with
// several workers request 3's rejection lands first.
TEST(MeasurementBrokerTest, AsyncBatchCarriesARejectedRequestsError) {
  const PerformanceTask base = MakeTask(49);
  const auto configs = SampleBatch(base, 6, 50);
  PerformanceTask task = base;
  task.measure = [base, configs](const std::vector<double>& config) {
    if (config == configs[1]) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::invalid_argument("configuration 1 rejected");
    }
    if (config == configs[3]) {
      throw std::invalid_argument("configuration 3 rejected");
    }
    return base.measure(config);
  };
  auto reference = MeasureSerially(base, configs);
  reference[1].clear();  // rejected requests' rows stay empty
  reference[3].clear();

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BrokerOptions options;
    options.num_threads = threads;
    MeasurementBroker broker(task, options);
    const BatchTicket ticket = broker.SubmitBatch(configs);
    BatchResult batch;
    ASSERT_TRUE(broker.WaitBatch(&batch));
    EXPECT_EQ(batch.id, ticket.id);
    EXPECT_NE(batch.error.find("configuration 1 rejected"), std::string::npos) << batch.error;
    EXPECT_EQ(batch.rows, reference);
    EXPECT_FALSE(broker.WaitBatch(&batch));
    EXPECT_EQ(broker.OutstandingRequests(), 0u);
    EXPECT_EQ(broker.stats().failures, 2u);

    // The other rows were cached: measuring them again costs nothing.
    const std::vector<std::vector<double>> accepted = {configs[0], configs[2], configs[4],
                                                       configs[5]};
    EXPECT_EQ(broker.MeasureBatch(accepted), MeasureSerially(base, accepted));
    EXPECT_EQ(broker.stats().measured, configs.size());
  }
}

TEST(MeasurementBrokerTest, DedupDisabledMeasuresEveryRequest) {
  const PerformanceTask task = MakeTask(9);
  auto configs = SampleBatch(task, 5, 10);
  configs.push_back(configs[0]);

  BrokerOptions options;
  options.dedup_cache = false;
  MeasurementBroker broker(task, options);
  broker.MeasureBatch(configs);
  broker.MeasureBatch(configs);
  EXPECT_EQ(broker.stats().measured, 12u);
  EXPECT_EQ(broker.stats().cache_hits, 0u);
}

}  // namespace
}  // namespace unicorn
