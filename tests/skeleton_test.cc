#include "causal/skeleton.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "sysmodel/systems.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

std::vector<size_t> Members(const std::optional<SepsetView>& s) {
  return s.has_value() ? std::vector<size_t>(s->begin(), s->end()) : std::vector<size_t>{};
}

TEST(SepsetTest, SetGetSymmetric) {
  SepsetMap m;
  m.Set(3, 1, {5, 2});
  const auto s = m.Get(1, 3);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(Members(s), (std::vector<size_t>{2, 5}));  // stored sorted
  EXPECT_TRUE(m.Contains(1, 3, 5));
  EXPECT_FALSE(m.Contains(1, 3, 7));
  EXPECT_FALSE(m.Get(0, 1).has_value());
}

TEST(SepsetTest, UntouchedPairIsAbsentInsideAndPastTheTable) {
  const SepsetMap sized(10);
  EXPECT_FALSE(sized.Get(2, 7).has_value());
  EXPECT_FALSE(sized.Get(9, 8).has_value());
  EXPECT_FALSE(sized.Get(40, 3).has_value());  // beyond the sized table
  EXPECT_FALSE(sized.Contains(2, 7, 0));
  const SepsetMap empty;
  EXPECT_FALSE(empty.Get(0, 1).has_value());
  EXPECT_FALSE(empty.Contains(5, 6, 1));
}

TEST(SepsetTest, EmptySetIsRecordedAndDistinctFromAbsent) {
  SepsetMap m(4);
  m.Set(0, 2, {});
  const auto s = m.Get(2, 0);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->empty());
  EXPECT_FALSE(m.Contains(0, 2, 1));
  EXPECT_FALSE(m.Get(0, 3).has_value());
}

TEST(SepsetTest, EraseAndOverwrite) {
  SepsetMap m(6);
  m.Set(1, 4, {3, 0, 2});
  m.Set(0, 5, {1});
  m.Set(4, 1, {5});  // overwrite with a shorter set
  EXPECT_EQ(Members(m.Get(1, 4)), (std::vector<size_t>{5}));
  m.Set(1, 4, {3, 2, 0, 5});  // and with a longer one
  EXPECT_EQ(Members(m.Get(4, 1)), (std::vector<size_t>{0, 2, 3, 5}));
  m.Erase(4, 1);
  EXPECT_FALSE(m.Get(1, 4).has_value());
  EXPECT_FALSE(m.Contains(1, 4, 3));
  m.Erase(2, 3);   // never set: no-op
  m.Erase(7, 30);  // past the table: no-op
  EXPECT_EQ(Members(m.Get(0, 5)), (std::vector<size_t>{1}));
  m.Set(1, 4, {2});
  EXPECT_EQ(Members(m.Get(1, 4)), (std::vector<size_t>{2}));
}

TEST(SepsetTest, CopyIsIndependent) {
  SepsetMap m(5);
  m.Set(0, 1, {2, 3});
  m.Set(2, 4, {});
  SepsetMap copy = m;
  m.Set(0, 1, {4});
  m.Erase(2, 4);
  m.Set(1, 3, {0});
  EXPECT_EQ(Members(copy.Get(0, 1)), (std::vector<size_t>{2, 3}));
  EXPECT_TRUE(copy.Get(2, 4).has_value());
  EXPECT_FALSE(copy.Get(1, 3).has_value());
  EXPECT_TRUE(*copy.Get(0, 1) != *m.Get(0, 1));
  copy = m;
  EXPECT_TRUE(*copy.Get(0, 1) == *m.Get(0, 1));
  EXPECT_FALSE(copy.Get(2, 4).has_value());
}

TEST(SepsetTest, GrowsPastTheSizedTable) {
  SepsetMap m(3);
  m.Set(0, 2, {1});
  m.Set(17, 5, {3, 1});  // pair far past the 3-variable table
  m.Set(40, 39, {2});
  EXPECT_EQ(Members(m.Get(0, 2)), (std::vector<size_t>{1}));  // survives growth
  EXPECT_EQ(Members(m.Get(5, 17)), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(Members(m.Get(39, 40)), (std::vector<size_t>{2}));
  EXPECT_FALSE(m.Get(16, 17).has_value());
  EXPECT_FALSE(m.Get(38, 40).has_value());
}

// Seeded Set/Erase churn against an ordered-map reference: every live set
// must survive the arena compactions, and right after each Set the arena
// holds at most twice the live members.
TEST(SepsetTest, ChurnKeepsLiveSetsAndBoundsTheArena) {
  Rng rng(17);
  constexpr size_t kVars = 30;
  SepsetMap m(kVars);
  std::map<std::pair<size_t, size_t>, std::vector<size_t>> reference;
  size_t live = 0;
  size_t max_arena = 0;
  for (int step = 0; step < 20000; ++step) {
    size_t a = rng.UniformInt(kVars);
    size_t b = rng.UniformInt(kVars);
    if (a == b) {
      continue;
    }
    if (a > b) {
      std::swap(a, b);
    }
    const auto it = reference.find({a, b});
    if (it != reference.end()) {
      live -= it->second.size();
      reference.erase(it);
    }
    if (rng.Uniform() < 0.4) {
      m.Erase(a, b);
      continue;
    }
    std::vector<size_t> s;
    const size_t size = rng.UniformInt(4);
    for (size_t k = 0; k < size; ++k) {
      s.push_back(rng.UniformInt(kVars));
    }
    std::sort(s.begin(), s.end());
    m.Set(b, a, s);
    live += s.size();
    reference[{a, b}] = s;
    ASSERT_LE(m.arena_size(), 2 * live) << "step " << step;
    max_arena = std::max(max_arena, m.arena_size());
  }
  for (size_t a = 0; a < kVars; ++a) {
    for (size_t b = a + 1; b < kVars; ++b) {
      const auto it = reference.find({a, b});
      const auto s = m.Get(a, b);
      ASSERT_EQ(s.has_value(), it != reference.end()) << a << "," << b;
      if (s.has_value()) {
        EXPECT_EQ(Members(s), it->second) << a << "," << b;
      }
    }
  }
  // 435 pairs with at most 3 members each bound the live members.
  EXPECT_LE(max_arena, 2 * 3 * kVars * (kVars - 1) / 2);
}

TEST(SubsetsTest, SizeZero) {
  const auto subs = Subsets({1, 2, 3}, 0, 10);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_TRUE(subs[0].empty());
}

TEST(SubsetsTest, ChooseTwoOfThree) {
  const auto subs = Subsets({1, 2, 3}, 2, 10);
  EXPECT_EQ(subs.size(), 3u);
}

TEST(SubsetsTest, TooLargeEmpty) { EXPECT_TRUE(Subsets({1, 2}, 3, 10).empty()); }

TEST(SubsetsTest, CapRespected) {
  const auto subs = Subsets({1, 2, 3, 4, 5, 6}, 3, 5);
  EXPECT_EQ(subs.size(), 5u);
}

// A synthetic linear SCM: o0 -> e0 -> y, o1 -> e0, o2 independent.
DataTable ChainData(size_t n, Rng* rng) {
  std::vector<Variable> vars = {
      {"o0", VarType::kContinuous, VarRole::kOption, {0, 1}},
      {"o1", VarType::kContinuous, VarRole::kOption, {0, 1}},
      {"o2", VarType::kContinuous, VarRole::kOption, {0, 1}},
      {"e0", VarType::kContinuous, VarRole::kEvent, {}},
      {"y", VarType::kContinuous, VarRole::kObjective, {}},
  };
  DataTable t(vars);
  for (size_t i = 0; i < n; ++i) {
    const double o0 = rng->Uniform();
    const double o1 = rng->Uniform();
    const double o2 = rng->Uniform();
    // Realistic noise: near-deterministic links leak through rank-based
    // partial correlations (monotone transforms are only approximately
    // partialled out).
    const double e0 = 2.0 * o0 - 1.5 * o1 + rng->Gaussian(0, 0.25);
    const double y = 3.0 * e0 + rng->Gaussian(0, 0.25);
    t.AddRow({o0, o1, o2, e0, y});
  }
  return t;
}

TEST(SkeletonTest, RecoversChainAdjacency) {
  Rng rng(11);
  const DataTable data = ChainData(1200, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const SkeletonResult result = LearnSkeleton(test, constraints, data.NumVars());
  const MixedGraph& g = result.graph;
  // True adjacencies present.
  EXPECT_TRUE(g.HasEdge(0, 3));  // o0 - e0
  EXPECT_TRUE(g.HasEdge(1, 3));  // o1 - e0
  EXPECT_TRUE(g.HasEdge(3, 4));  // e0 - y
  // Chain link o0 - y removed given e0.
  EXPECT_FALSE(g.HasEdge(0, 4));
  // Independent option isolated.
  EXPECT_FALSE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(2, 4));
}

TEST(SkeletonTest, OptionOptionEdgesForbidden) {
  Rng rng(12);
  const DataTable data = ChainData(500, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const SkeletonResult result = LearnSkeleton(test, constraints, data.NumVars());
  EXPECT_FALSE(result.graph.HasEdge(0, 1));
  EXPECT_FALSE(result.graph.HasEdge(0, 2));
  EXPECT_FALSE(result.graph.HasEdge(1, 2));
}

TEST(SkeletonTest, SepsetRecordedForRemovedEdge) {
  Rng rng(13);
  const DataTable data = ChainData(1200, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const SkeletonResult result = LearnSkeleton(test, constraints, data.NumVars());
  // o0 and y are separated by e0.
  ASSERT_TRUE(result.sepsets.Get(0, 4).has_value());
  EXPECT_TRUE(result.sepsets.Contains(0, 4, 3));
}

TEST(SkeletonTest, TestsCounted) {
  Rng rng(14);
  const DataTable data = ChainData(300, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const SkeletonResult result = LearnSkeleton(test, constraints, data.NumVars());
  EXPECT_GT(result.tests_performed, 0);
}

TEST(SkeletonTest, AllEdgesCircleMarked) {
  Rng rng(15);
  const DataTable data = ChainData(400, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const SkeletonResult result = LearnSkeleton(test, constraints, data.NumVars());
  const MixedGraph& g = result.graph;
  for (size_t a = 0; a < g.NumNodes(); ++a) {
    for (size_t b = a + 1; b < g.NumNodes(); ++b) {
      if (g.HasEdge(a, b)) {
        EXPECT_TRUE(g.HasCircleAt(a, b));
        EXPECT_TRUE(g.HasCircleAt(b, a));
      }
    }
  }
}

// One CI query as the cache would key it: unordered pair, sorted set.
using CIKey = std::tuple<int, int, std::vector<int>>;

CIKey KeyOf(int x, int y, std::vector<int> s) {
  std::sort(s.begin(), s.end());
  return {std::min(x, y), std::max(x, y), std::move(s)};
}

// Counts every (x, y | S) it is asked, then forwards to the wrapped test.
class RecordingTest : public CITest {
 public:
  explicit RecordingTest(const CITest& inner) : inner_(inner) {}

  double PValue(int x, int y, const std::vector<int>& s) const override {
    calls.Increment();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++asked_[KeyOf(x, y, s)];
    }
    return inner_.PValue(x, y, s);
  }

  const std::map<CIKey, int>& asked() const { return asked_; }

 private:
  const CITest& inner_;
  mutable std::mutex mu_;
  mutable std::map<CIKey, int> asked_;
};

// The textbook two-sided PC-stable sweep, serial: side 0 (sets from
// adj(x)\{y}), then, when side 0 found no separating set, all of side 1
// (sets from adj(y)\{x}), re-asking whatever side 0 already asked.
struct TwoSidedReference {
  MixedGraph graph;
  SepsetMap sepsets;
  long long requests = 0;
  long long repeats = 0;       // requests of a query asked before
  long long deep_repeats = 0;  // ... with a non-empty conditioning set
};

TwoSidedReference TwoSidedSweep(const CITest& test, const StructuralConstraints& constraints,
                                size_t n, const SkeletonOptions& options) {
  TwoSidedReference ref;
  ref.graph = MixedGraph(n);
  ref.sepsets = SepsetMap(n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (constraints.EdgeAllowed(a, b)) {
        ref.graph.AddCircleCircle(a, b);
      }
    }
  }
  std::set<CIKey> seen;
  for (int d = 0; d <= options.max_cond_size; ++d) {
    std::vector<std::vector<size_t>> adj(n);
    for (size_t v = 0; v < n; ++v) {
      adj[v] = ref.graph.Adjacent(v);
    }
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t x = 0; x < n; ++x) {
      for (size_t y = x + 1; y < n; ++y) {
        if (ref.graph.HasEdge(x, y) && !constraints.EdgeRequired(x, y)) {
          pairs.push_back({x, y});
        }
      }
    }
    bool any_tested = false;
    std::vector<std::pair<size_t, size_t>> removed;
    std::vector<std::vector<size_t>> removed_sets;
    for (const auto& [x, y] : pairs) {
      for (int side = 0; side < 2; ++side) {
        const size_t from = side == 0 ? x : y;
        const size_t other = side == 0 ? y : x;
        std::vector<size_t> pool;
        for (size_t v : adj[from]) {
          if (v != other && constraints.roles()[v] != VarRole::kObjective) {
            pool.push_back(v);
          }
        }
        if (pool.size() < static_cast<size_t>(d)) {
          continue;
        }
        any_tested = true;
        bool separated = false;
        for (const auto& subset : Subsets(pool, static_cast<size_t>(d), options.max_subsets)) {
          const std::vector<int> set(subset.begin(), subset.end());
          ++ref.requests;
          if (!seen.insert(KeyOf(static_cast<int>(x), static_cast<int>(y), set)).second) {
            ++ref.repeats;
            ref.deep_repeats += d > 0 ? 1 : 0;
          }
          if (test.PValue(static_cast<int>(x), static_cast<int>(y), set) >= options.alpha) {
            removed.push_back({x, y});
            removed_sets.push_back(subset);
            separated = true;
            break;
          }
        }
        if (separated) {
          break;
        }
      }
    }
    for (size_t i = 0; i < removed.size(); ++i) {
      ref.graph.RemoveEdge(removed[i].first, removed[i].second);
      ref.sepsets.Set(removed[i].first, removed[i].second, removed_sets[i]);
    }
    if (!any_tested && d > 0) {
      break;
    }
  }
  return ref;
}

TEST(SkeletonTest, ParallelSweepAsksEachTestOnceAndMatchesTwoSidedSweep) {
  SystemSpec spec;
  spec.num_events = 8;
  const SystemModel model = BuildSystem(SystemId::kDeepspeech, spec);
  Rng rng(21);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < 200; ++i) {
    configs.push_back(model.SampleConfig(&rng));
  }
  const DataTable data = model.MeasureMany(configs, Xavier(), DefaultWorkload(), &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest inner(data);
  const size_t n = data.NumVars();
  SkeletonOptions options;
  options.max_cond_size = 2;
  options.max_subsets = 16;

  const TwoSidedReference ref = TwoSidedSweep(inner, constraints, n, options);
  ASSERT_GT(ref.deep_repeats, 0);  // side 1 re-asks beyond level 0 too

  ThreadPool pool(3);  // plus the caller: a 4-thread sweep
  const RecordingTest recording(inner);
  const SkeletonResult result = LearnSkeleton(recording, constraints, n, options, {}, &pool);

  for (const auto& [key, times] : recording.asked()) {
    EXPECT_EQ(times, 1) << "pair (" << std::get<0>(key) << ", " << std::get<1>(key)
                        << ") |S| = " << std::get<2>(key).size();
  }
  EXPECT_EQ(result.tests_performed, ref.requests - ref.repeats);
  EXPECT_EQ(result.tests_performed, static_cast<long long>(recording.asked().size()));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      EXPECT_EQ(result.graph.HasEdge(a, b), ref.graph.HasEdge(a, b)) << a << "-" << b;
      const auto got = result.sepsets.Get(a, b);
      const auto want = ref.sepsets.Get(a, b);
      ASSERT_EQ(got.has_value(), want.has_value()) << a << "-" << b;
      if (got) {
        EXPECT_EQ(Members(got), Members(want)) << a << "-" << b;
      }
    }
  }
}

// Property sweep: tighter alpha never yields more edges.
class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, EdgeCountMonotoneInAlpha) {
  Rng rng(16);
  const DataTable data = ChainData(600, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  SkeletonOptions tight;
  tight.alpha = GetParam();
  SkeletonOptions loose;
  loose.alpha = GetParam() * 10.0;
  const auto g_tight = LearnSkeleton(test, constraints, data.NumVars(), tight);
  const auto g_loose = LearnSkeleton(test, constraints, data.NumVars(), loose);
  EXPECT_LE(g_tight.graph.NumEdges(), g_loose.graph.NumEdges());
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep, ::testing::Values(0.001, 0.005, 0.01));

}  // namespace
}  // namespace unicorn
