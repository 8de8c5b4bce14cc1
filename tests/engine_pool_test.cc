// The sharded reasoning plane must be pure plumbing: a shard refreshing
// over the shared concurrent CI cache is bit-identical to a monolithic
// CausalModelEngine fed the same rows — for any refresh thread count, with
// the cache shared or private — and the cross-shard hit ledger counts
// exactly the tests one shard's refresh bought another.
#include "unicorn/engine_pool.h"

#include <atomic>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "eval/harness.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/campaign.h"
#include "unicorn/debugger.h"
#include "util/rng.h"

namespace unicorn {
namespace {

DataTable MeasuredData(SystemId id, size_t rows, uint64_t seed, int num_events = 5) {
  SystemSpec spec;
  spec.num_events = num_events;
  const auto model = std::make_shared<SystemModel>(BuildSystem(id, spec));
  Rng rng(seed);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < rows; ++i) {
    configs.push_back(model->SampleConfig(&rng));
  }
  return model->MeasureMany(configs, Tx2(), DefaultWorkload(), &rng);
}

CausalModelOptions SmallModelOptions() {
  CausalModelOptions options;
  options.fci.skeleton.max_cond_size = 2;
  options.fci.skeleton.max_subsets = 16;
  options.fci.max_pds_cond_size = 1;
  options.entropic.latent.restarts = 1;
  options.entropic.latent.iterations = 20;
  return options;
}

::testing::AssertionResult GraphsIdentical(const MixedGraph& a, const MixedGraph& b) {
  if (a.NumNodes() != b.NumNodes()) {
    return ::testing::AssertionFailure()
           << "node counts differ: " << a.NumNodes() << " vs " << b.NumNodes();
  }
  for (size_t i = 0; i < a.NumNodes(); ++i) {
    for (size_t j = 0; j < a.NumNodes(); ++j) {
      if (a.EndMark(i, j) != b.EndMark(i, j)) {
        return ::testing::AssertionFailure()
               << "end-mark differs at (" << i << ", " << j << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// A single-group pool is the monolithic engine: same graph, same test
// counts, same per-refresh stats, across interleaved appends and refreshes
// — at refresh_threads 1 and 4.
TEST(EnginePoolTest, SingleShardMatchesMonolithicEngineBitForBit) {
  const DataTable all = MeasuredData(SystemId::kX264, 80, 41);
  const CausalModelOptions model_options = SmallModelOptions();

  CausalModelEngine monolith(all.Variables(), model_options);

  for (const int refresh_threads : {1, 4}) {
    ShardPoolOptions pool_options;
    pool_options.model = model_options;
    pool_options.refresh_threads = refresh_threads;
    EngineShardPool pool(all.Variables(), pool_options);
    const size_t shard = pool.ShardForGroup("debug");
    ASSERT_EQ(shard, 0u);
    ASSERT_EQ(pool.ShardForGroup("debug"), 0u);  // stable assignment

    CausalModelEngine reference(all.Variables(), model_options);
    for (size_t r = 0; r < all.NumRows(); ++r) {
      pool.shard(shard).AddRow(all.Row(r));
      reference.AddRow(all.Row(r));
      if (r % 20 == 19) {
        pool.RefreshShards({shard}, 91 + r);
        reference.Refresh(91 + r);
        EXPECT_TRUE(
            GraphsIdentical(pool.shard(shard).model().admg, reference.model().admg));
        EXPECT_EQ(pool.shard(shard).model().independence_tests,
                  reference.model().independence_tests);
        EXPECT_EQ(pool.shard(shard).stats().tests_requested,
                  reference.stats().tests_requested);
        EXPECT_EQ(pool.shard(shard).stats().tests_evaluated,
                  reference.stats().tests_evaluated);
        EXPECT_EQ(pool.shard(shard).stats().cache_hits, reference.stats().cache_hits);
      }
    }
    // Identical row streams leave identical fingerprints — the property the
    // shared cache's cross-shard keying rests on.
    EXPECT_EQ(pool.shard(shard).data_fingerprint(), reference.data_fingerprint());
    // A lone shard can never hit entries "another shard" stored.
    EXPECT_EQ(pool.shard(shard).stats().total_cross_shard_hits, 0);
    EXPECT_EQ(pool.stats().cross_shard_hits, 0);
    EXPECT_EQ(pool.stats().shards, 1u);
    EXPECT_GT(pool.stats().refresh_batches, 0u);
  }
}

// Two shards fed identical rows: the second one to refresh pays (almost)
// nothing — every cacheable p-value is a cross-shard hit — and learns the
// identical model. Divergence then cuts the sharing off permanently.
TEST(EnginePoolTest, CrossShardHitsOnIdenticalPrefixesAndNoneAfterDivergence) {
  const DataTable all = MeasuredData(SystemId::kX264, 60, 42);
  ShardPoolOptions pool_options;
  pool_options.model = SmallModelOptions();
  EngineShardPool pool(all.Variables(), pool_options);
  const size_t a = pool.ShardForGroup("latency");
  const size_t b = pool.ShardForGroup("energy");
  ASSERT_NE(a, b);

  // Identical row-prefix: e.g. two transfer campaigns seeded from the same
  // source recording.
  for (size_t r = 0; r + 1 < all.NumRows(); ++r) {
    pool.shard(a).AddRow(all.Row(r));
    pool.shard(b).AddRow(all.Row(r));
  }
  EXPECT_EQ(pool.shard(a).data_fingerprint(), pool.shard(b).data_fingerprint());

  pool.RefreshShards({a}, 7);
  EXPECT_EQ(pool.shard(a).stats().cross_shard_hits, 0);  // first payer
  pool.RefreshShards({b}, 7);
  EXPECT_GT(pool.shard(b).stats().cross_shard_hits, 0);
  // Shard b re-evaluated only what the cache cannot hold (oversized
  // conditioning sets); every cacheable test came from shard a's refresh.
  EXPECT_LT(pool.shard(b).stats().tests_evaluated, pool.shard(a).stats().tests_evaluated);
  EXPECT_EQ(pool.shard(b).stats().tests_requested, pool.shard(a).stats().tests_requested);
  EXPECT_TRUE(GraphsIdentical(pool.shard(a).model().admg, pool.shard(b).model().admg));

  const ShardPoolStats mid = pool.stats();
  EXPECT_EQ(mid.cross_shard_hits, pool.shard(b).stats().total_cross_shard_hits);
  EXPECT_GT(mid.cache_hits, 0);

  // Diverge shard b by one extra row: its fingerprint changes, so shard a's
  // entries are unreachable — no stale cross-table reuse, ever.
  pool.shard(b).AddRow(all.Row(all.NumRows() - 1));
  EXPECT_NE(pool.shard(a).data_fingerprint(), pool.shard(b).data_fingerprint());
  pool.RefreshShards({b}, 8);
  EXPECT_EQ(pool.shard(b).stats().cross_shard_hits, 0);
  EXPECT_GT(pool.shard(b).stats().tests_evaluated, 0);
}

// Shards with different tables refreshed as one parallel batch match
// standalone engines refreshed serially — the concurrency (and the shared
// cache under it) cannot leak into any shard's model. The batch runs as wide
// as the refresh workers, also when dirty shards outnumber them.
TEST(EnginePoolTest, ParallelBatchRefreshMatchesStandaloneEngines) {
  const CausalModelOptions model_options = SmallModelOptions();
  struct Config {
    size_t shards;
    int refresh_threads;
  };
  for (const Config& config : {Config{4, 4}, Config{6, 2}}) {
    ShardPoolOptions pool_options;
    pool_options.model = model_options;
    pool_options.refresh_threads = config.refresh_threads;
    std::vector<DataTable> tables;
    for (uint64_t i = 0; i < config.shards; ++i) {
      tables.push_back(MeasuredData(SystemId::kX264, 50 + 5 * i, 50 + i));
    }
    EngineShardPool pool(tables[0].Variables(), pool_options);
    std::vector<size_t> shards;
    for (size_t i = 0; i < tables.size(); ++i) {
      shards.push_back(pool.ShardForGroup("group-" + std::to_string(i)));
      pool.shard(shards[i]).AppendRows(tables[i]);
    }
    pool.RefreshShards(shards, 11);

    const ShardPoolStats stats = pool.stats();
    EXPECT_EQ(stats.shards, config.shards);
    EXPECT_EQ(stats.refreshes, config.shards);
    EXPECT_EQ(stats.max_concurrent_refreshes, static_cast<size_t>(config.refresh_threads));
    EXPECT_EQ(stats.refresh_batches, 1u);

    for (size_t i = 0; i < tables.size(); ++i) {
      CausalModelEngine reference(tables[i].Variables(), model_options);
      reference.AppendRows(tables[i]);
      reference.Refresh(11);
      EXPECT_TRUE(
          GraphsIdentical(pool.shard(shards[i]).model().admg, reference.model().admg))
          << "shards=" << config.shards << " shard " << i;
      EXPECT_EQ(pool.shard(shards[i]).model().independence_tests,
                reference.model().independence_tests)
          << "shards=" << config.shards << " shard " << i;
    }
  }
}

// RefreshShards waits for done events, so it must not start while an
// asynchronous refresh is outstanding: their done events would mix. The
// call is refused whole, and succeeds once the outstanding event is popped.
// A shard refreshes once at a time, so a second StartRefreshAsync on it is
// refused too until its done event is popped, and so is stats(), which would
// read the refreshing engine.
TEST(EnginePoolTest, RefreshShardsRefusedWhileAsyncRefreshOutstanding) {
  ShardPoolOptions pool_options;
  pool_options.model = SmallModelOptions();
  pool_options.refresh_threads = 2;
  const DataTable table = MeasuredData(SystemId::kX264, 50, 61);
  EngineShardPool pool(table.Variables(), pool_options);
  const size_t a = pool.ShardForGroup("a");
  const size_t b = pool.ShardForGroup("b");
  pool.shard(a).AppendRows(table);
  pool.shard(b).AppendRows(table);

  pool.StartRefreshAsync(a, 5, /*token=*/77);
  EXPECT_THROW(pool.RefreshShards({b}, 5), std::logic_error);
  EXPECT_THROW(pool.stats(), std::logic_error);  // shard a's stats are being written
  EXPECT_EQ(pool.shard(b).stats().refreshes, 0u);
  EXPECT_THROW(pool.StartRefreshAsync(a, 6, /*token=*/78), std::logic_error);
  EXPECT_EQ(pool.PendingAsyncRefreshes(), 1u);

  ShardRefreshDone done;
  ASSERT_TRUE(pool.WaitRefreshDone(&done));
  EXPECT_EQ(done.token, 77u);
  EXPECT_EQ(done.error, nullptr);
  EXPECT_EQ(pool.stats().refresh_batches, 0u);  // the refused batch ran nothing
  EXPECT_EQ(pool.shard(a).stats().refreshes, 1u);
  EXPECT_FALSE(pool.TryPopRefreshDone(&done));  // the refused start queued nothing
  pool.RefreshShards({b}, 5);
  EXPECT_EQ(pool.stats().refresh_batches, 1u);
  EXPECT_EQ(pool.shard(b).stats().refreshes, 1u);
}

// The concurrent cache itself: parallel stores and lookups across shards
// keep the map consistent and the counters exact (also the TSan target for
// the striped locking).
TEST(EnginePoolTest, ConcurrentSharedCacheKeepsCountersExact) {
  CICache cache;
  constexpr int kThreads = 4;
  constexpr int kKeys = 400;
  std::vector<std::thread> threads;
  std::atomic<long long> local_hits{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &local_hits, t] {
      for (int k = 0; k < kKeys; ++k) {
        const auto key =
            CICache::MakeKey(k % 17, (k % 17) + 1 + k % 3, {k % 5}, 100, 0xfeedULL + k % 7);
        const auto hit = cache.LookupFrom(key, static_cast<uint32_t>(t));
        if (hit) {
          local_hits.fetch_add(1);
        } else {
          cache.Store(key, 0.5, static_cast<uint32_t>(t));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(cache.lookups(), static_cast<long long>(kThreads) * kKeys);
  EXPECT_EQ(cache.hits(), local_hits.load());
  EXPECT_GE(cache.hits(), cache.cross_shard_hits());
  // Every distinct key was stored at least once and survives.
  const auto probe = CICache::MakeKey(0, 1, {0}, 100, 0xfeedULL);
  EXPECT_TRUE(cache.Lookup(probe).has_value());

  // Keys with distinct table tags never alias.
  CICache tagged;
  tagged.Store(CICache::MakeKey(1, 2, {3}, 50, /*table_tag=*/111), 0.25);
  EXPECT_TRUE(tagged.Lookup(CICache::MakeKey(2, 1, {3}, 50, 111)).has_value());
  EXPECT_FALSE(tagged.Lookup(CICache::MakeKey(1, 2, {3}, 50, 112)).has_value());
}

DebugOptions PoolDebugOptions() {
  DebugOptions options;
  options.initial_samples = 20;
  options.max_iterations = 10;
  options.stall_termination = 20;
  options.repairs_per_iteration = 3;
  options.model.fci.skeleton.max_cond_size = 2;
  options.model.fci.skeleton.max_subsets = 16;
  options.model.fci.max_pds_cond_size = 1;
  options.model.entropic.latent.restarts = 1;
  options.model.entropic.latent.iterations = 25;
  return options;
}

// The acceptance pin: a single-group campaign through the sharded runner is
// bit-identical (graph + stats + trajectory) whatever the pool's refresh
// thread count, the engine's skeleton thread count, or whether the CI cache
// is shared — sharding must be invisible until a second group exists. A
// named group's shard is the pool's second and consults the shared cache; a
// plain Run's shard 0 runs alone and uncached.
TEST(EnginePoolTest, SingleGroupCampaignBitIdenticalAcrossPoolConfigurations) {
  SystemSpec spec;
  spec.num_events = 10;
  const auto model = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
  Rng rng(310);
  const FaultCuration curation = CurateFaults(*model, Tx2(), DefaultWorkload(), 1200, &rng, 0.97);
  const PerformanceTask task = MakeSimulatedTask(model, Tx2(), DefaultWorkload(), 311);
  const Fault* fault = nullptr;
  for (const auto& f : curation.faults) {
    if (!f.root_causes.empty()) {
      fault = &f;
      break;
    }
  }
  ASSERT_NE(fault, nullptr);
  const auto goals = GoalsForFault(curation, *fault);

  struct Config {
    int refresh_threads;
    int engine_threads;
    bool grouped;
  };
  DebugResult results[4];
  size_t i = 0;
  for (const Config& config : {Config{1, 1, true}, Config{4, 1, true}, Config{1, 4, true},
                               Config{1, 1, false}}) {
    DebugOptions options = PoolDebugOptions();
    options.engine.num_threads = config.engine_threads;
    CampaignOptions campaign = ToCampaignOptions(options);
    campaign.refresh_threads = config.refresh_threads;
    CampaignRunner runner(task, campaign);
    DebugPolicy policy(options, fault->config, goals);
    if (config.grouped) {
      runner.RunGrouped({GroupedPolicy{&policy, "only-group"}});
    } else {
      runner.Run({&policy});
      EXPECT_EQ(runner.pool().num_shards(), 1u);
      EXPECT_EQ(runner.pool().shared_cache().lookups(), 0);
    }
    results[i] = policy.TakeResult();
    if (i == 0) {
      EXPECT_EQ(runner.pool().num_shards(), 2u);  // default shard + "only-group"
      EXPECT_EQ(results[0].shard, 1u);            // the named group's shard
      EXPECT_GT(runner.pool().shared_cache().lookups(), 0);
      ASSERT_FALSE(results[0].fixed_config.empty());
    } else {
      const DebugResult& r = results[i];
      const DebugResult& baseline = results[0];
      EXPECT_EQ(r.fixed, baseline.fixed);
      EXPECT_EQ(r.measurements_used, baseline.measurements_used);
      EXPECT_EQ(r.fixed_config, baseline.fixed_config);
      EXPECT_EQ(r.fixed_measurement, baseline.fixed_measurement);
      EXPECT_EQ(r.objective_trajectory, baseline.objective_trajectory);
      EXPECT_EQ(r.predicted_root_causes, baseline.predicted_root_causes);
      EXPECT_EQ(r.tests_per_iteration, baseline.tests_per_iteration);
      EXPECT_EQ(r.engine_stats.tests_requested, baseline.engine_stats.tests_requested);
      EXPECT_EQ(r.engine_stats.refreshes, baseline.engine_stats.refreshes);
      EXPECT_TRUE(GraphsIdentical(r.final_graph, baseline.final_graph));
    }
    ++i;
  }
}

}  // namespace
}  // namespace unicorn
