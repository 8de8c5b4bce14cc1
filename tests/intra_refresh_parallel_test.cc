// Intra-refresh parallelism contract: the parallel skeleton levels and
// entropic phase and the concurrent one-tier CI cache must be invisible in
// the results — any engine thread count reproduces the serial reference
// bit-for-bit, including the test-call and cache-hit ledgers. A pool handed
// to RunFci must not change the (serial) Possible-D-SEP phase's result or
// ledgers either.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "causal/entropic.h"
#include "causal/fci.h"
#include "stats/ci_cache.h"
#include "sysmodel/systems.h"
#include "unicorn/model_learner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

struct World {
  DataTable data;
  std::vector<Variable> vars;
};

World MeasuredWorld(SystemId id, size_t rows, uint64_t seed) {
  SystemSpec spec;
  spec.num_events = 8;
  const auto model = std::make_shared<SystemModel>(BuildSystem(id, spec));
  Rng rng(seed);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < rows; ++i) {
    configs.push_back(model->SampleConfig(&rng));
  }
  World world;
  world.data = model->MeasureMany(configs, Xavier(), DefaultWorkload(), &rng);
  world.vars = world.data.Variables();
  return world;
}

// Shallow skeleton + deeper Possible-D-SEP, so the PDS phase has real work.
FciOptions PdsHeavyOptions() {
  FciOptions options;
  options.skeleton.max_cond_size = 1;
  options.skeleton.max_subsets = 8;
  options.use_possible_dsep = true;
  options.max_pds_cond_size = 2;
  return options;
}

::testing::AssertionResult SameMarks(const MixedGraph& a, const MixedGraph& b) {
  for (size_t i = 0; i < a.NumNodes(); ++i) {
    for (size_t j = 0; j < a.NumNodes(); ++j) {
      if (a.EndMark(i, j) != b.EndMark(i, j)) {
        return ::testing::AssertionFailure() << "marks differ at (" << i << ", " << j << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameSepsets(const SepsetMap& a, const SepsetMap& b, size_t n) {
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = x + 1; y < n; ++y) {
      const auto sa = a.Get(x, y);
      const auto sb = b.Get(x, y);
      if (sa.has_value() != sb.has_value()) {
        return ::testing::AssertionFailure()
               << "sepset presence differs at (" << x << ", " << y << ")";
      }
      if (sa.has_value() && *sa != *sb) {
        return ::testing::AssertionFailure()
               << "sepset contents differ at (" << x << ", " << y << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(IntraRefreshParallelTest, PdsPhaseBitIdenticalAcrossThreadCounts) {
  const World world = MeasuredWorld(SystemId::kDeepspeech, 220, 31);
  const StructuralConstraints constraints(world.vars);
  const FciOptions options = PdsHeavyOptions();
  const size_t n = world.data.NumVars();

  const CompositeTest serial_test(world.data);
  const FciResult serial = RunFci(serial_test, constraints, n, options);
  ASSERT_GT(serial.tests_performed, 0);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads - 1);
    const CompositeTest test(world.data);
    const FciResult parallel = RunFci(test, constraints, n, options, {}, &pool);
    EXPECT_TRUE(SameMarks(serial.pag, parallel.pag)) << "threads=" << threads;
    EXPECT_EQ(serial.tests_performed, parallel.tests_performed) << "threads=" << threads;
    EXPECT_TRUE(SameSepsets(serial.sepsets, parallel.sepsets, n)) << "threads=" << threads;
  }
}

TEST(IntraRefreshParallelTest, PdsPhaseBitIdenticalWithCache) {
  const World world = MeasuredWorld(SystemId::kXception, 200, 32);
  const StructuralConstraints constraints(world.vars);
  const FciOptions options = PdsHeavyOptions();
  const size_t n = world.data.NumVars();

  // Serial cached reference: requested/evaluated/hit ledgers included.
  const CompositeTest serial_inner(world.data);
  CICache serial_cache;
  const CachedCITest serial_cached(serial_inner, &serial_cache, world.data.NumRows());
  const FciResult serial = RunFci(serial_cached, constraints, n, options);
  ASSERT_GT(serial_cached.calls.Value(), 0);
  ASSERT_GT(serial_cache.hits(), 0);  // the PDS phase must re-hit skeleton keys

  for (int threads : {2, 8}) {
    ThreadPool pool(threads - 1);
    const CompositeTest inner(world.data);
    CICache cache;
    const CachedCITest cached(inner, &cache, world.data.NumRows());
    const FciResult parallel = RunFci(cached, constraints, n, options, {}, &pool);
    EXPECT_TRUE(SameMarks(serial.pag, parallel.pag)) << "threads=" << threads;
    EXPECT_TRUE(SameSepsets(serial.sepsets, parallel.sepsets, n)) << "threads=" << threads;
    EXPECT_EQ(serial.tests_performed, parallel.tests_performed) << "threads=" << threads;
    // The whole accounting chain must match the serial run exactly:
    // requested (decorator), evaluated (inner), hits (decorator + cache).
    EXPECT_EQ(serial_cached.calls.Value(), cached.calls.Value()) << "threads=" << threads;
    EXPECT_EQ(serial_inner.calls.Value(), inner.calls.Value()) << "threads=" << threads;
    EXPECT_EQ(serial_cached.hits(), cached.hits()) << "threads=" << threads;
    EXPECT_EQ(serial_cache.hits(), cache.hits()) << "threads=" << threads;
    EXPECT_EQ(serial_cache.lookups(), cache.lookups()) << "threads=" << threads;
    EXPECT_EQ(cache.cross_shard_hits(), 0) << "threads=" << threads;
  }
}

::testing::AssertionResult SameDecisions(const EdgeDecisionMap& a, const EdgeDecisionMap& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "decision counts differ: " << a.size() << " vs "
                                         << b.size();
  }
  for (const auto& [pair, da] : a) {
    const auto it = b.find(pair);
    if (it == b.end()) {
      return ::testing::AssertionFailure()
             << "pair (" << pair.first << ", " << pair.second << ") missing";
    }
    const EdgeDecision& db = it->second;
    if (da.kind != db.kind || da.entropy_forward != db.entropy_forward ||
        da.entropy_backward != db.entropy_backward || da.latent_entropy != db.latent_entropy ||
        da.latent_found != db.latent_found) {
      return ::testing::AssertionFailure()
             << "decision differs at (" << pair.first << ", " << pair.second << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(IntraRefreshParallelTest, EntropicPhaseBitIdenticalAcrossThreadCounts) {
  const World world = MeasuredWorld(SystemId::kX264, 220, 33);
  const StructuralConstraints constraints(world.vars);
  const size_t n = world.data.NumVars();

  // A hand-built PAG with plenty of unresolved circle edges, so the
  // entropic resolver has real scoring work at every pair.
  MixedGraph unresolved(n);
  const size_t span = std::min<size_t>(n, 12);
  for (size_t a = 0; a < span; ++a) {
    for (size_t b = a + 1; b < std::min(span, a + 3); ++b) {
      unresolved.AddCircleCircle(a, b);
    }
  }

  EntropicOptions options;
  options.latent.restarts = 2;
  options.latent.iterations = 30;

  Rng serial_rng(97);
  MixedGraph serial_pag = unresolved;
  EdgeDecisionMap serial_decisions;
  ResolveWithEntropy(world.data, constraints, options, &serial_rng, &serial_pag, nullptr,
                     &serial_decisions);
  ASSERT_FALSE(serial_decisions.empty());
  const uint64_t serial_next = serial_rng.NextU64();

  for (int threads : {2, 8}) {
    ThreadPool pool(threads - 1);
    Rng rng(97);
    MixedGraph pag = unresolved;
    EdgeDecisionMap decisions;
    ResolveWithEntropy(world.data, constraints, options, &rng, &pag, nullptr, &decisions,
                       &pool);
    EXPECT_TRUE(SameMarks(serial_pag, pag)) << "threads=" << threads;
    EXPECT_TRUE(SameDecisions(serial_decisions, decisions)) << "threads=" << threads;
    // The parent stream must advance identically too (one Fork per fresh
    // pair), so everything downstream of the resolver stays deterministic.
    EXPECT_EQ(serial_next, rng.NextU64()) << "threads=" << threads;
  }
}

TEST(IntraRefreshParallelTest, EngineRefreshBitIdenticalAcrossThreadCounts) {
  const World world = MeasuredWorld(SystemId::kSqlite, 260, 34);
  CausalModelOptions model_options;
  model_options.fci = PdsHeavyOptions();
  model_options.entropic.latent.restarts = 1;
  model_options.entropic.latent.iterations = 20;

  struct Snapshot {
    MixedGraph admg;
    long long requested = 0;
    long long evaluated = 0;
    long long hits = 0;
  };
  std::vector<Snapshot> snapshots;
  for (int threads : {1, 2, 8}) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    engine_options.use_ci_cache = true;
    CausalModelEngine engine(world.vars, model_options, engine_options);
    for (size_t r = 0; r < world.data.NumRows(); ++r) {
      engine.AddRow(world.data.Row(r));
    }
    engine.Refresh(411);
    // Second, warm refresh after appended rows: exercises Update(pool),
    // warm-start dirty tracking, and the cache across a Clear.
    for (size_t r = 0; r < 40; ++r) {
      engine.AddRow(world.data.Row(r % world.data.NumRows()));
    }
    engine.Refresh(412);
    const EngineStats& stats = engine.stats();
    snapshots.push_back({engine.model().admg, stats.total_tests_requested,
                         stats.total_tests_evaluated, stats.total_cache_hits});
  }
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_TRUE(SameMarks(snapshots[0].admg, snapshots[i].admg)) << "matrix row " << i;
    EXPECT_EQ(snapshots[0].requested, snapshots[i].requested) << "matrix row " << i;
    EXPECT_EQ(snapshots[0].evaluated, snapshots[i].evaluated) << "matrix row " << i;
    EXPECT_EQ(snapshots[0].hits, snapshots[i].hits) << "matrix row " << i;
  }
}

// TSan target: eight threads look up and store concurrently while the
// stripes grow under them. The counters must be exact, every stored key must
// be found, and re-storing a key must not move its shard attribution.
TEST(IntraRefreshParallelTest, OneTierCacheConcurrentLookupStoreHammer) {
  CICache cache;
  constexpr int kSharedKeys = 64;
  std::vector<CICache::Key> shared;
  for (int i = 0; i < kSharedKeys; ++i) {
    shared.push_back(CICache::MakeKey(i % 11, 16 + i % 13, {i % 7, 8 + i % 5}, 500, 7));
    cache.Store(shared.back(), 1e-3 * i, /*shard=*/0);
  }
  const auto own_key = [](int t, int i) {
    return CICache::MakeKey(100 + t, 200 + i, {3, 5}, 500, 7);
  };

  constexpr int kThreads = 8;
  constexpr int kOwnKeys = 1500;  // ~12k entries: every stripe grows mid-hammer
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint32_t me = 10 + static_cast<uint32_t>(t);
      for (int i = 0; i < kOwnKeys; ++i) {
        const CICache::Key mine = own_key(t, i);
        cache.Store(mine, 0.5 + t, me);
        const auto own = cache.LookupFrom(mine, me);
        if (!own || own->p_value != 0.5 + t || own->cross_shard) {
          ok.store(false);  // a store must be visible to its own thread at once
        }
        const int k = i % kSharedKeys;
        const auto other = cache.LookupFrom(shared[k], /*shard=*/1);
        if (!other || other->p_value != 1e-3 * k || !other->cross_shard) {
          ok.store(false);  // torn, lost or misattributed entry
        }
        if (cache.LookupFrom(CICache::MakeKey(100 + t, 200 + i, {3, 6}, 500, 7), me)) {
          ok.store(false);  // never stored
        }
        cache.Store(shared[k], 1e-3 * k, /*shard=*/2);  // duplicate: first store wins
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_TRUE(ok.load());
  const long long rounds = static_cast<long long>(kThreads) * kOwnKeys;
  EXPECT_EQ(cache.lookups(), 3 * rounds);
  EXPECT_EQ(cache.hits(), 2 * rounds);
  EXPECT_EQ(cache.cross_shard_hits(), rounds);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kSharedKeys + rounds));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOwnKeys; ++i) {
      const auto hit = cache.LookupFrom(own_key(t, i), 10 + static_cast<uint32_t>(t));
      ASSERT_TRUE(hit.has_value()) << "thread " << t << " key " << i;
      EXPECT_FALSE(hit->cross_shard);
    }
  }
  for (const CICache::Key& key : shared) {
    const auto hit = cache.LookupFrom(key, 0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->cross_shard) << "attribution moved to a later store";
  }
}

::testing::AssertionResult SameBits(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(a)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " vs " << b;
}

TEST(IntraRefreshParallelTest, OneTierCacheGrowthClearEvictionAndReload) {
  const auto key_of = [](int i) {
    return CICache::MakeKey(i % 97, 100 + i / 97, {i % 5}, 300, 42);
  };
  const auto p_of = [](int i) { return 1.0 / (i + 1); };
  constexpr int kKeys = 5000;  // many doublings of every stripe

  CICache cache;
  for (int i = 0; i < kKeys; ++i) {
    cache.Store(key_of(i), p_of(i), /*shard=*/3);
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const auto hit = cache.LookupFrom(key_of(i), 3);
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_TRUE(SameBits(hit->p_value, p_of(i))) << "key " << i;
  }

  // A grown table round-trips through a snapshot, bit for bit.
  const std::string path = ::testing::TempDir() + "one_tier_cache.bin";
  ASSERT_TRUE(cache.SaveTo(path));
  CICache restored;
  EXPECT_EQ(restored.LoadFrom(path, /*shard=*/9), kKeys);
  EXPECT_EQ(restored.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const auto hit = restored.LookupFrom(key_of(i), 9);
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_TRUE(SameBits(hit->p_value, p_of(i))) << "key " << i;
  }

  // A bounded cache drops a whole stripe once it outgrows its share of the
  // budget, and the dropped slots still hold their old keys. Over rounds of
  // re-stores, a dropped entry must stay absent until it is stored again
  // (never resurrected, never blocking the refill), a live one keeps its
  // first value, and the entry just stored is always served. The model of
  // what the cache holds learns of a drop from size() and then forgets
  // every entry that no longer answers.
  constexpr size_t kBudget = 1024;  // 64 per stripe
  CICache bounded(kBudget);
  std::map<int, double> held;  // key index -> the value the cache must serve
  long long kept_live = 0;
  long long restored_dropped = 0;
  bool within_budget = true;
  for (int round = 0; round < 3; ++round) {
    // Alternating directions: a round first meets the keys the previous one
    // stored last, which are still live, then the ones it dropped.
    constexpr int kRefill = kKeys / 2;
    for (int step = 0; step < kRefill; ++step) {
      const int i = round % 2 == 0 ? step : kRefill - 1 - step;
      const double value = 2.0 * p_of(i) + round;
      const bool was_held = held.count(i) > 0;
      const size_t before = bounded.size();
      bounded.Store(key_of(i), value, /*shard=*/4);
      within_budget &= bounded.size() <= kBudget;
      if (bounded.size() != before + (was_held ? 0 : 1)) {
        // This store dropped key i's stripe, then stored key i afresh.
        held[i] = value;
        for (auto it = held.begin(); it != held.end();) {
          it = bounded.LookupFrom(key_of(it->first), 3).has_value() ? std::next(it)
                                                                    : held.erase(it);
        }
      } else if (!was_held) {
        held[i] = value;
      }
      if (round > 0) {
        (was_held ? kept_live : restored_dropped) += 1;
      }
      const auto newest = bounded.LookupFrom(key_of(i), 3);
      ASSERT_TRUE(newest.has_value()) << "round " << round << " key " << i;
      EXPECT_TRUE(SameBits(newest->p_value, held[i])) << "round " << round << " key " << i;
    }
    EXPECT_EQ(bounded.size(), held.size()) << "round " << round;
    for (int i = 0; i < kKeys; ++i) {
      const auto hit = bounded.LookupFrom(key_of(i), 3);
      ASSERT_EQ(hit.has_value(), held.count(i) > 0) << "round " << round << " key " << i;
      if (hit) {
        EXPECT_TRUE(SameBits(hit->p_value, held[i])) << "round " << round << " key " << i;
        EXPECT_TRUE(hit->cross_shard);  // stored by shard 4
      }
    }
  }
  EXPECT_TRUE(within_budget);
  // Both kinds of re-store happened: onto live entries and onto dropped ones.
  EXPECT_GT(kept_live, 0);
  EXPECT_GT(restored_dropped, 0);
}

}  // namespace
}  // namespace unicorn
