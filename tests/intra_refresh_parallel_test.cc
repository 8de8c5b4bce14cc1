// Intra-refresh parallelism contract: the parallel Possible-D-SEP and
// entropic phases, the concurrent one-tier CI cache, and the speculation
// accounting must all be invisible in the results — any engine thread count
// reproduces the serial reference bit-for-bit, including the test-call and
// cache-hit ledgers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
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
      const auto* sa = a.Get(x, y);
      const auto* sb = b.Get(x, y);
      if ((sa == nullptr) != (sb == nullptr)) {
        return ::testing::AssertionFailure()
               << "sepset presence differs at (" << x << ", " << y << ")";
      }
      if (sa != nullptr && *sa != *sb) {
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
    ThreadPool pool(threads);
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
  ASSERT_GT(serial_cached.calls.load(), 0);
  ASSERT_GT(serial_cache.hits(), 0);  // the PDS phase must re-hit skeleton keys

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    const CompositeTest inner(world.data);
    CICache cache;
    const CachedCITest cached(inner, &cache, world.data.NumRows());
    const FciResult parallel = RunFci(cached, constraints, n, options, {}, &pool);
    EXPECT_TRUE(SameMarks(serial.pag, parallel.pag)) << "threads=" << threads;
    EXPECT_TRUE(SameSepsets(serial.sepsets, parallel.sepsets, n)) << "threads=" << threads;
    EXPECT_EQ(serial.tests_performed, parallel.tests_performed) << "threads=" << threads;
    // The whole accounting chain must match the serial run exactly:
    // requested (decorator), evaluated (inner), hits (decorator + cache).
    EXPECT_EQ(serial_cached.calls.load(), cached.calls.load()) << "threads=" << threads;
    EXPECT_EQ(serial_inner.calls.load(), inner.calls.load()) << "threads=" << threads;
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
    ThreadPool pool(threads);
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

TEST(IntraRefreshParallelTest, SpeculationAccountingIsInvisible) {
  const World world = MeasuredWorld(SystemId::kXception, 150, 35);
  const std::vector<std::vector<int>> sets = {{0}, {1}, {0, 1}, {2}, {1, 2}};
  BatchedCIRequest req;
  req.x = 0;
  req.y = 3;
  req.sets = &sets;
  req.alpha = 0.05;

  // Plain test: discard restores `calls` exactly; adopt matches the direct
  // batched sweep.
  {
    const CompositeTest test(world.data);
    CISpeculation spec;
    test.SpeculateFirstIndependent(req, nullptr, &spec);
    test.DiscardSpeculation(spec);
    EXPECT_EQ(test.calls.load(), 0);

    test.SpeculateFirstIndependent(req, nullptr, &spec);
    test.AdoptSpeculation(spec, req);
    const CompositeTest direct(world.data);
    const int direct_idx = direct.FirstIndependent(req);
    EXPECT_EQ(spec.first_independent, direct_idx);
    EXPECT_EQ(test.calls.load(), direct.calls.load());
  }

  // Cached test: speculation probes quietly, so a discarded sweep leaves the
  // decorator and the cache ledgers untouched; an adopted sweep replays them
  // to exactly what a direct sweep would have recorded.
  {
    const CompositeTest inner(world.data);
    CICache cache;
    const CachedCITest cached(inner, &cache, world.data.NumRows());
    // Warm the cache so the speculation has hits to account for.
    const int warm_idx = cached.FirstIndependent(req);
    const long long calls_before = cached.calls.load();
    const long long inner_before = inner.calls.load();
    const long long dec_hits_before = cached.hits();
    const long long hits_before = cache.hits();
    const long long lookups_before = cache.lookups();

    CISpeculation spec;
    cached.SpeculateFirstIndependent(req, nullptr, &spec);
    EXPECT_EQ(spec.first_independent, warm_idx);
    cached.DiscardSpeculation(spec);
    EXPECT_EQ(cached.calls.load(), calls_before);
    EXPECT_EQ(inner.calls.load(), inner_before);
    EXPECT_EQ(cache.hits(), hits_before);
    EXPECT_EQ(cache.lookups(), lookups_before);

    cached.SpeculateFirstIndependent(req, nullptr, &spec);
    cached.AdoptSpeculation(spec, req);
    // A direct re-sweep on a second decorator over the same warm cache.
    const CompositeTest inner2(world.data);
    const CachedCITest direct(inner2, &cache, world.data.NumRows());
    const int direct_idx = direct.FirstIndependent(req);
    EXPECT_EQ(spec.first_independent, direct_idx);
    EXPECT_EQ(cached.calls.load() - calls_before, direct.calls.load());
    EXPECT_EQ(inner.calls.load() - inner_before, inner2.calls.load());
    EXPECT_EQ(cached.hits() - dec_hits_before, direct.hits());
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
      const auto hit = cache.LookupQuiet(own_key(t, i), 10 + static_cast<uint32_t>(t));
      ASSERT_TRUE(hit.has_value()) << "thread " << t << " key " << i;
      EXPECT_FALSE(hit->cross_shard);
    }
  }
  for (const CICache::Key& key : shared) {
    const auto hit = cache.LookupQuiet(key, 0);
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
    const auto hit = cache.LookupQuiet(key_of(i), 3);
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
    const auto hit = restored.LookupQuiet(key_of(i), 9);
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_TRUE(SameBits(hit->p_value, p_of(i))) << "key " << i;
  }

  // Clear drops every entry while the slots still hold their old keys; a
  // refill must neither resurrect a dropped entry nor be blocked by one.
  for (int round = 0; round < 3; ++round) {
    cache.Clear();
    EXPECT_EQ(cache.size(), 0u);
    for (int i = 0; i < kKeys; i += 7) {
      EXPECT_FALSE(cache.LookupQuiet(key_of(i), 3).has_value()) << "key " << i;
    }
    const int refill = kKeys / (round + 2);
    for (int i = 0; i < refill; ++i) {
      cache.Store(key_of(i), 2.0 * p_of(i) + round, /*shard=*/4);
    }
    EXPECT_EQ(cache.size(), static_cast<size_t>(refill));
    for (int i = 0; i < kKeys; ++i) {
      const auto hit = cache.LookupQuiet(key_of(i), 3);
      ASSERT_EQ(hit.has_value(), i < refill) << "round " << round << " key " << i;
      if (hit) {
        EXPECT_TRUE(SameBits(hit->p_value, 2.0 * p_of(i) + round)) << "key " << i;
        EXPECT_TRUE(hit->cross_shard);  // refilled by shard 4
      }
    }
  }

  // A bounded cache never exceeds its budget, and the entry just stored is
  // always served.
  constexpr size_t kBudget = 160;  // 10 per stripe
  CICache bounded(kBudget);
  bool within_budget = true;
  bool newest_found = true;
  for (int i = 0; i < kKeys; ++i) {
    bounded.Store(key_of(i), p_of(i));
    within_budget &= bounded.size() <= kBudget;
    newest_found &= bounded.LookupQuiet(key_of(i), 0).has_value();
  }
  EXPECT_TRUE(within_budget);
  EXPECT_TRUE(newest_found);
  EXPECT_GT(bounded.size(), 0u);
}

}  // namespace
}  // namespace unicorn
