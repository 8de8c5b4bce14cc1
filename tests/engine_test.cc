// CausalModelEngine: the incremental path must be trustworthy.
//
// Two hard guarantees anchor the engine's correctness:
//   * exact mode (stale_epsilon = 0, the default): a refresh after streaming
//     rows in one at a time yields a model bit-identical to a from-scratch
//     relearn on the final table — caching and lazy statistics are pure
//     memoization, never approximation;
//   * any thread count: the parallel skeleton sweep merges per-pair outcomes
//     deterministically, so threads=4 equals threads=1 mark for mark.
// Warm-started (approximate) refreshes are only exercised for their own
// contract: periodic full refreshes re-anchor to the exact result, test
// counts shrink, and the output stays a valid ADMG.
#include "unicorn/model_learner.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/ci_cache.h"
#include "sysmodel/systems.h"
#include "util/rng.h"

namespace unicorn {
namespace {

DataTable MeasuredData(SystemId id, size_t rows, uint64_t seed, int num_events = 6) {
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

TEST(EngineTest, RowByRowAppendMatchesFromScratchRelearn) {
  const DataTable all = MeasuredData(SystemId::kX264, 70, 11, 5);
  const CausalModelOptions model_options = SmallModelOptions();

  // Stream every measurement through the engine one row at a time,
  // refreshing after each append (exact mode: the default EngineOptions).
  CausalModelEngine engine(all.Variables(), model_options);
  for (size_t r = 0; r < all.NumRows(); ++r) {
    engine.AddRow(all.Row(r));
    engine.Refresh(model_options.seed);
  }

  const LearnedModel scratch = LearnCausalPerformanceModel(all, model_options);
  EXPECT_TRUE(GraphsIdentical(engine.model().admg, scratch.admg));
  EXPECT_EQ(engine.model().independence_tests, scratch.independence_tests);
  EXPECT_EQ(engine.model().circle_marks_resolved, scratch.circle_marks_resolved);
}

// Engine-table warm starts: an engine seeded straight from a persisted
// MeasurementTable must be indistinguishable (bit-identical graph, same
// test counts) from one that absorbed the identical rows live — seeding is
// plumbing, never approximation. Provenance is accounting only.
TEST(EngineTest, SeedFromTableMatchesLiveAbsorbBitForBit) {
  const DataTable all = MeasuredData(SystemId::kX264, 60, 21, 5);
  const CausalModelOptions model_options = SmallModelOptions();

  MeasurementTable table;
  table.num_vars = all.NumVars();
  for (const Variable& v : all.Variables()) {
    table.num_options += v.role == VarRole::kOption ? 1 : 0;
  }
  for (size_t r = 0; r < all.NumRows(); ++r) {
    MeasurementTable::Entry entry;
    entry.row = all.Row(r);
    entry.config.assign(entry.row.begin(),
                        entry.row.begin() + static_cast<long>(table.num_options));
    entry.provenance = "Xavier";
    table.entries.push_back(std::move(entry));
  }

  CausalModelEngine seeded(all.Variables(), model_options);
  ASSERT_EQ(seeded.SeedFromTable(table), all.NumRows());
  seeded.Refresh(model_options.seed);

  CausalModelEngine live(all.Variables(), model_options);
  for (size_t r = 0; r < all.NumRows(); ++r) {
    live.AddRow(all.Row(r));
  }
  live.Refresh(model_options.seed);

  EXPECT_TRUE(GraphsIdentical(seeded.model().admg, live.model().admg));
  EXPECT_EQ(seeded.model().independence_tests, live.model().independence_tests);
  EXPECT_EQ(seeded.model().circle_marks_resolved, live.model().circle_marks_resolved);

  // Provenance split: seeded rows are source, live rows are target.
  EXPECT_EQ(seeded.ProvenanceRows(RowProvenance::kSource), all.NumRows());
  EXPECT_EQ(seeded.ProvenanceRows(RowProvenance::kTarget), 0u);
  EXPECT_EQ(live.ProvenanceRows(RowProvenance::kTarget), all.NumRows());
  EXPECT_EQ(seeded.provenance_of(0), RowProvenance::kSource);
}

// Shape validation happens at the engine layer too: a table for a different
// task must be rejected wholesale, leaving the engine untouched.
TEST(EngineTest, SeedFromTableRejectsShapeMismatch) {
  const DataTable all = MeasuredData(SystemId::kX264, 10, 22, 5);
  size_t options = 0;
  for (const Variable& v : all.Variables()) {
    options += v.role == VarRole::kOption ? 1 : 0;
  }

  CausalModelEngine engine(all.Variables(), SmallModelOptions());
  {
    MeasurementTable wrong_width;  // variable count off by one
    wrong_width.num_vars = all.NumVars() + 1;
    wrong_width.num_options = options;
    wrong_width.entries.push_back(
        {std::vector<double>(options, 0.0), std::vector<double>(all.NumVars() + 1, 0.0), ""});
    EXPECT_EQ(engine.SeedFromTable(wrong_width), 0u);
  }
  {
    MeasurementTable wrong_options;  // same width, different task shape
    wrong_options.num_vars = all.NumVars();
    wrong_options.num_options = options + 1;
    wrong_options.entries.push_back(
        {std::vector<double>(options + 1, 0.0), std::vector<double>(all.NumVars(), 0.0), ""});
    EXPECT_EQ(engine.SeedFromTable(wrong_options), 0u);
  }
  EXPECT_EQ(engine.SeedFromFile("/nonexistent/path.csv"), 0u);
  EXPECT_EQ(engine.data().NumRows(), 0u);
  EXPECT_EQ(engine.ProvenanceRows(RowProvenance::kSource), 0u);
}

TEST(EngineTest, ParallelRefreshBitIdenticalToSerial) {
  const DataTable data = MeasuredData(SystemId::kXception, 200, 12);
  const CausalModelOptions model_options = SmallModelOptions();

  EngineOptions serial;
  serial.num_threads = 1;
  CausalModelEngine one(data.Variables(), model_options, serial);
  one.AppendRows(data);
  one.Refresh(model_options.seed);

  EngineOptions parallel;
  parallel.num_threads = 4;
  CausalModelEngine four(data.Variables(), model_options, parallel);
  four.AppendRows(data);
  four.Refresh(model_options.seed);

  EXPECT_TRUE(GraphsIdentical(one.model().admg, four.model().admg));
  EXPECT_EQ(one.model().independence_tests, four.model().independence_tests);
}

TEST(EngineTest, RepeatedRefreshOnUnchangedDataIsAllCacheHits) {
  const DataTable data = MeasuredData(SystemId::kBert, 150, 13);
  // An engine attached to a shared cache serves a repeat refresh wholly from
  // it; an engine without one evaluates every test again, and relearns the
  // same graph.
  for (const bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "shared cache" : "no cache");
    CICache cache;
    CausalModelEngine engine(data.Variables(), SmallModelOptions());
    if (shared) {
      engine.ShareCICache(&cache, 0);
    }
    engine.AppendRows(data);
    engine.Refresh(99);
    const long long first_evaluated = engine.stats().tests_evaluated;
    EXPECT_GT(first_evaluated, 0);
    EXPECT_EQ(engine.stats().tests_requested,
              engine.stats().tests_evaluated + engine.stats().cache_hits);

    const MixedGraph before = engine.model().admg;
    engine.Refresh(99);  // no new rows
    EXPECT_TRUE(GraphsIdentical(before, engine.model().admg));
    if (shared) {
      EXPECT_EQ(engine.stats().tests_evaluated, 0);
      EXPECT_EQ(engine.stats().cache_hits, engine.stats().tests_requested);
    } else {
      EXPECT_EQ(engine.stats().cache_hits, 0);
      EXPECT_EQ(engine.stats().tests_evaluated, engine.stats().tests_requested);
      EXPECT_EQ(engine.stats().tests_evaluated, first_evaluated);
    }
  }
}

TEST(EngineTest, WarmRefreshShrinksTestsAndAnchorsRestoreExactness) {
  const DataTable all = MeasuredData(SystemId::kX264, 160, 14);
  const CausalModelOptions model_options = SmallModelOptions();

  EngineOptions incremental;
  incremental.stale_epsilon = 0.05;
  incremental.full_refresh_every = 4;
  CausalModelEngine engine(all.Variables(), model_options, incremental);

  std::vector<size_t> head;
  for (size_t r = 0; r < 120; ++r) {
    head.push_back(r);
  }
  engine.AppendRows(all.SelectRows(head));
  engine.Refresh(7);  // refresh 0: full (anchor)
  const long long full_requested = engine.stats().tests_requested;
  EXPECT_FALSE(engine.stats().warm);

  long long warm_requested_total = 0;
  size_t warm_refreshes = 0;
  for (size_t r = 120; r < all.NumRows(); ++r) {
    engine.AddRow(all.Row(r));
    engine.Refresh(7 + r);
    if (engine.stats().warm) {
      ++warm_refreshes;
      warm_requested_total += engine.stats().tests_requested;
      EXPECT_GT(engine.stats().pairs_reused, 0u);
    }
    EXPECT_TRUE(engine.model().admg.IsAdmg());
  }
  ASSERT_GT(warm_refreshes, 0u);
  // Warm refreshes must re-test far fewer pairs than the full anchor sweep.
  EXPECT_LT(warm_requested_total / static_cast<long long>(warm_refreshes), full_requested);

  // An anchor refresh (refresh count divisible by full_refresh_every) is a
  // full relearn: identical to from-scratch on the same data and seed.
  while (engine.stats().refreshes % incremental.full_refresh_every != 0) {
    engine.Refresh(42);
  }
  engine.Refresh(42);
  EXPECT_FALSE(engine.stats().warm);
  CausalModelOptions scratch_options = model_options;
  scratch_options.seed = 42;
  const LearnedModel scratch = LearnCausalPerformanceModel(engine.data(), scratch_options);
  EXPECT_TRUE(GraphsIdentical(engine.model().admg, scratch.admg));
}

// A warm refresh that finds no stale variable keeps its model: it asks no
// CI test, and its ADMG is the previous one bit for bit. It still rebuilds
// the estimator on the grown table, and the next anchor, which sees no new
// row of its own, relearns exactly: the row sync the kept refreshes skipped
// catches up there.
TEST(EngineTest, NothingStaleKeepsTheModelAndTheNextAnchorIsExact) {
  const DataTable all = MeasuredData(SystemId::kX264, 170, 31);
  const CausalModelOptions model_options = SmallModelOptions();
  EngineOptions incremental;
  incremental.stale_epsilon = 2.0;  // a correlation moves by at most 2: never stale
  incremental.full_refresh_every = 4;
  CausalModelEngine engine(all.Variables(), model_options, incremental);
  const size_t objective = all.NumVars() - 1;

  size_t next = 0;
  const auto append = [&](size_t rows) {
    for (size_t end = next + rows; next < end; ++next) {
      engine.AddRow(all.Row(next));
    }
  };
  append(110);
  engine.Refresh(5);  // refresh 0: the anchor
  EXPECT_FALSE(engine.stats().warm);
  EXPECT_EQ(engine.stats().adopted_refreshes, 0u);
  const MixedGraph anchored = engine.model().admg;
  const double anchored_effect = engine.Estimator().ExpectationDo(objective, 0, 0);

  for (size_t k = 1; k < incremental.full_refresh_every; ++k) {
    SCOPED_TRACE(k);
    append(20);
    engine.Refresh(5 + k);
    EXPECT_TRUE(engine.stats().warm);
    EXPECT_EQ(engine.stats().adopted_refreshes, k);
    EXPECT_EQ(engine.stats().tests_requested, 0);
    EXPECT_EQ(engine.stats().tests_evaluated, 0);
    EXPECT_EQ(engine.stats().pairs_reused, engine.stats().pairs_total);
    EXPECT_EQ(engine.model().independence_tests, 0);
    EXPECT_TRUE(GraphsIdentical(engine.model().admg, anchored));
    const CausalEffectEstimator grown(engine.model().admg, engine.data());
    EXPECT_EQ(engine.Estimator().ExpectationDo(objective, 0, 0),
              grown.ExpectationDo(objective, 0, 0));
    EXPECT_NE(engine.Estimator().ExpectationDo(objective, 0, 0), anchored_effect);
  }

  ASSERT_EQ(next, all.NumRows());
  engine.Refresh(42);  // refresh 4: the next anchor
  EXPECT_FALSE(engine.stats().warm);
  EXPECT_EQ(engine.stats().adopted_refreshes, incremental.full_refresh_every - 1);
  CausalModelOptions scratch_options = model_options;
  scratch_options.seed = 42;
  const LearnedModel scratch = LearnCausalPerformanceModel(engine.data(), scratch_options);
  EXPECT_TRUE(GraphsIdentical(engine.model().admg, scratch.admg));
  EXPECT_EQ(engine.model().independence_tests, scratch.independence_tests);
  EXPECT_EQ(engine.stats().tests_evaluated, scratch.independence_tests);
}

// Staleness is measured against the last refresh, kept or not, and per
// pair: a pair whose correlation moves marks both its endpoints, so a warm
// refresh flags no variable or at least two. Two small drifts that together
// pass the threshold keep the model twice; decorrelating e2 from everything
// then flags exactly e2 and its one partner e3, and the refresh re-tests
// their pairs instead of keeping the model.
TEST(EngineTest, WarmRefreshKeepsItsModelOnlyWhileNothingIsStale) {
  const std::vector<Variable> vars = {
      {"o0", VarType::kContinuous, VarRole::kOption, {0, 1}},
      {"e0", VarType::kContinuous, VarRole::kEvent, {}},
      {"e1", VarType::kContinuous, VarRole::kEvent, {}},
      {"e2", VarType::kContinuous, VarRole::kEvent, {}},
      {"e3", VarType::kContinuous, VarRole::kEvent, {}},
      {"y", VarType::kContinuous, VarRole::kObjective, {}},
  };
  Rng rng(41);
  // e3 tracks e2 (r ~ 0.96) unless `split`, when it is independent noise.
  const auto sample = [&](bool split) {
    const double o0 = rng.Uniform();
    const double e0 = 2.0 * o0 + rng.Gaussian(0, 0.2);
    const double e1 = e0 + rng.Gaussian(0, 0.2);
    const double e2 = rng.Gaussian();
    const double e3 = (split ? rng.Gaussian() : e2) + rng.Gaussian(0, 0.3);
    return std::vector<double>{o0, e0, e1, e2, e3, e1 + rng.Gaussian(0, 0.2)};
  };
  EngineOptions incremental;
  incremental.stale_epsilon = 0.1;
  CausalModelEngine engine(vars, SmallModelOptions(), incremental);
  std::vector<std::vector<double>> anchor_rows;
  for (int i = 0; i < 1500; ++i) {
    anchor_rows.push_back(sample(false));
    engine.AddRow(anchor_rows.back());
  }
  engine.Refresh(1);
  const MixedGraph anchored = engine.model().admg;

  // The two batches move r(e2, e3) by 0.07 and 0.08: under the threshold
  // each time, over it (0.15) against the anchor. No other pair moves 0.03.
  for (size_t step = 1; step <= 2; ++step) {
    SCOPED_TRACE(step);
    for (int i = 0; i < 120; ++i) {
      engine.AddRow(sample(true));
    }
    engine.Refresh(1 + step);
    EXPECT_TRUE(engine.stats().warm);
    EXPECT_EQ(engine.stats().adopted_refreshes, step);
    EXPECT_EQ(engine.stats().tests_requested, 0);
    EXPECT_TRUE(GraphsIdentical(engine.model().admg, anchored));
  }

  // The anchor rows again with e2 shifted far off: e2 decorrelates from
  // everything, but only its pair with e3 was ever correlated.
  for (std::vector<double> row : anchor_rows) {
    row[3] += 50.0;
    engine.AddRow(row);
  }
  engine.Refresh(4);
  EXPECT_TRUE(engine.stats().warm);
  EXPECT_EQ(engine.stats().adopted_refreshes, 2u);
  const size_t clean = vars.size() - 2;
  EXPECT_EQ(engine.stats().pairs_reused, clean * (clean - 1) / 2);
  EXPECT_GT(engine.stats().tests_requested, 0);
}

// Warm refreshes that keep their model and warm refreshes that re-test mix
// in one sequence, and the staleness scan runs on the engine's threads: the
// whole sequence is the same at one thread and at four.
TEST(EngineTest, WarmSequenceWithKeptAndRetestedRefreshesIsThreadCountInvariant) {
  const DataTable all = MeasuredData(SystemId::kX264, 240, 14);
  const CausalModelOptions model_options = SmallModelOptions();
  EngineOptions serial;
  serial.stale_epsilon = 0.05;
  serial.full_refresh_every = 8;
  EngineOptions parallel = serial;
  parallel.num_threads = 4;
  CausalModelEngine one(all.Variables(), model_options, serial);
  CausalModelEngine four(all.Variables(), model_options, parallel);

  size_t next = 0;
  size_t kept = 0;
  size_t retested = 0;
  const size_t batches[] = {100, 1, 1, 40, 1, 2, 1, 30, 1, 1, 20, 1, 1, 1, 35, 1};
  for (const size_t rows : batches) {
    for (size_t end = next + rows; next < end; ++next) {
      one.AddRow(all.Row(next));
      four.AddRow(all.Row(next));
    }
    const size_t kept_before = one.stats().adopted_refreshes;
    one.Refresh(100 + next);
    four.Refresh(100 + next);
    SCOPED_TRACE(next);
    EXPECT_TRUE(GraphsIdentical(one.model().admg, four.model().admg));
    EXPECT_EQ(one.stats().warm, four.stats().warm);
    EXPECT_EQ(one.stats().adopted_refreshes, four.stats().adopted_refreshes);
    EXPECT_EQ(one.stats().pairs_reused, four.stats().pairs_reused);
    EXPECT_EQ(one.stats().tests_requested, four.stats().tests_requested);
    if (one.stats().adopted_refreshes > kept_before) {
      ++kept;
    } else if (one.stats().warm) {
      ++retested;
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(retested, 0u);
}

TEST(EngineTest, CITestsSnapshotRowsUntilUpdate) {
  const DataTable all = MeasuredData(SystemId::kX264, 120, 16);
  std::vector<size_t> head;
  for (size_t r = 0; r < 100; ++r) {
    head.push_back(r);
  }
  DataTable grown = all.SelectRows(head);
  CompositeTest test(grown);
  const double fisher_before = test.PValue(0, 1, {2});
  const double gsq_before = test.PValue(0, 2, {1});
  // Appending rows without Update() must not change (or crash) the test:
  // it reasons on the construction-time snapshot.
  for (size_t r = 100; r < all.NumRows(); ++r) {
    grown.AddRow(all.Row(r));
  }
  EXPECT_DOUBLE_EQ(test.PValue(0, 1, {2}), fisher_before);
  EXPECT_DOUBLE_EQ(test.PValue(0, 2, {1}), gsq_before);
  // After Update the new rows are visible and p-values stay well-formed.
  test.Update(grown);
  const double after = test.PValue(0, 1, {2});
  EXPECT_GE(after, 0.0);
  EXPECT_LE(after, 1.0);
}

TEST(EngineTest, StreamingMomentsMatchBatchStatistics) {
  Rng rng(21);
  StreamingMoments moments(3);
  std::vector<std::vector<double>> cols(3);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.Uniform(-2.0, 2.0);
    const double b = 0.7 * a + 0.1 * rng.Uniform();
    const double c = rng.Uniform();
    moments.AddRow({a, b, c});
    cols[0].push_back(a);
    cols[1].push_back(b);
    cols[2].push_back(c);
  }
  EXPECT_EQ(moments.NumRows(), 500u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = i + 1; j < 3; ++j) {
      EXPECT_NEAR(moments.Pearson(i, j), PearsonCorrelation(cols[i], cols[j]), 1e-9);
    }
  }
  EXPECT_GT(moments.Pearson(0, 1), 0.9);
  EXPECT_LT(std::fabs(moments.Pearson(0, 2)), 0.2);
}

TEST(EngineTest, EstimatorAndQueryRideTheCurrentModel) {
  const DataTable data = MeasuredData(SystemId::kX264, 150, 15);
  CausalModelEngine engine(data.Variables(), SmallModelOptions());
  engine.AppendRows(data);
  engine.Refresh();
  const CausalEffectEstimator& estimator = engine.Estimator();
  // The lazily built estimator is cached until the next refresh.
  EXPECT_EQ(&estimator, &engine.Estimator());
  engine.Refresh();
  EXPECT_TRUE(engine.HasModel());
  EXPECT_GT(engine.stats().refreshes, 1u);
}

}  // namespace
}  // namespace unicorn
