// Equivalence pinning of the batched/SIMD CI kernels against the legacy
// scalar arithmetic (simd::SetReferenceKernels(true)).
//
// Contract under test (stats/simd.h, stats/independence.h):
//   - GSquareTest p-values are BIT-IDENTICAL between the fused single-pass
//     contingency kernel and the unfused reference path, for every table
//     shape, conditioning size, and degenerate column.
//   - FisherZTest correlations differ only in the blocked reduction order:
//     at most a few ulps on the correlation, documented here as <= 4.
//   - Incremental GSquareTest::Update (absorbing appended rows) produces
//     exactly what a cold test built on the grown table computes, including
//     the new-level full-recode fallback and stratum extension.
//   - FirstIndependent is serially equivalent to a per-set PValue loop:
//     same index, same p-value, same `calls` accounting, same early exit.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "stats/independence.h"
#include "stats/simd.h"
#include "stats/table.h"
#include "util/rng.h"

namespace unicorn {
namespace {

// Restores the process-wide kernel switch no matter how the test exits.
class ReferenceModeGuard {
 public:
  ReferenceModeGuard() : prev_(simd::UseReferenceKernels()) {}
  ~ReferenceModeGuard() { simd::SetReferenceKernels(prev_); }

 private:
  bool prev_;
};

// Ulp distance between two finite doubles (0 when bit-identical).
int64_t UlpDistance(double a, double b) {
  int64_t ia;
  int64_t ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  // Map the sign-magnitude bit pattern to a monotonic integer line.
  if (ia < 0) ia = INT64_MIN - ia;
  if (ib < 0) ib = INT64_MIN - ib;
  const int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

// A mixed table exercising every column kind the kernels special-case:
//   0 continuous, dense ranks          3 discrete two-level
//   1 continuous, correlated with 0    4 discrete constant (one level)
//   2 continuous, CONSTANT (all ranks  5 discrete three-level, correlated
//     tied — degenerate Fisher column)    with 3
//   6 continuous heavy-tie column (two distinct values — mid-ranks tie)
DataTable MixedTable(size_t rows, uint64_t seed) {
  std::vector<Variable> vars = {
      {"c0", VarType::kContinuous, VarRole::kEvent, {}},
      {"c1", VarType::kContinuous, VarRole::kEvent, {}},
      {"c_const", VarType::kContinuous, VarRole::kEvent, {}},
      {"d_two", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"d_const", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"d_three", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"c_ties", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double c0 = rng.Gaussian();
    const double d3 = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({c0,
              0.8 * c0 + rng.Gaussian(0, 0.5),
              2.5,  // constant: all ranks tied
              static_cast<double>(rng.UniformInt(uint64_t{2})),
              1.0,  // constant discrete: single level
              rng.Bernoulli(0.8) ? d3 : static_cast<double>(rng.UniformInt(uint64_t{3})),
              rng.Bernoulli(0.5) ? 0.0 : 1.0});
  }
  return t;
}

// Conditioning sets of size 0..4 over the 7-column table, avoiding x/y.
std::vector<std::vector<int>> ConditioningSets(int x, int y) {
  std::vector<int> others;
  for (int v = 0; v < 7; ++v) {
    if (v != x && v != y) {
      others.push_back(v);
    }
  }
  std::vector<std::vector<int>> sets = {{}};
  for (size_t size = 1; size <= 4; ++size) {
    std::vector<int> s(others.begin(), others.begin() + size);
    sets.push_back(s);
    // A second set of the same size starting elsewhere, when possible.
    if (size < others.size()) {
      std::vector<int> s2(others.end() - size, others.end());
      if (s2 != s) {
        sets.push_back(s2);
      }
    }
  }
  return sets;
}

constexpr size_t kRowCounts[] = {3, 64, 65, 1000};

TEST(KernelEquivalence, GSquareBitIdenticalAcrossShapes) {
  ReferenceModeGuard guard;
  for (size_t rows : kRowCounts) {
    const DataTable t = MixedTable(rows, 100 + rows);
    for (int x : {3, 4, 5}) {
      for (int y : {3, 5}) {
        if (x == y) continue;
        for (const auto& s : ConditioningSets(x, y)) {
          simd::SetReferenceKernels(false);
          GSquareTest fast(t);
          const double p_fast = fast.PValue(x, y, s);
          simd::SetReferenceKernels(true);
          GSquareTest ref(t);
          const double p_ref = ref.PValue(x, y, s);
          EXPECT_EQ(p_fast, p_ref)
              << "rows=" << rows << " x=" << x << " y=" << y << " |s|=" << s.size();
        }
      }
    }
  }
}

TEST(KernelEquivalence, FisherWithinUlpBoundAcrossShapes) {
  ReferenceModeGuard guard;
  for (size_t rows : kRowCounts) {
    const DataTable t = MixedTable(rows, 200 + rows);
    for (int x : {0, 2, 6}) {
      for (int y : {1, 6}) {
        if (x == y) continue;
        for (const auto& s : ConditioningSets(x, y)) {
          // Fisher-z conditions on continuous columns only in practice, but
          // the kernel must stay robust to any index set.
          std::vector<int> cont_s;
          for (int v : s) {
            if (v == 0 || v == 1 || v == 2 || v == 6) {
              cont_s.push_back(v);
            }
          }
          simd::SetReferenceKernels(false);
          FisherZTest fast(t);
          const double corr_fast = fast.Correlation(x, y);
          const double p_fast = fast.PValue(x, y, cont_s);
          simd::SetReferenceKernels(true);
          FisherZTest ref(t);
          const double corr_ref = ref.Correlation(x, y);
          const double p_ref = ref.PValue(x, y, cont_s);
          // The blocked reduction reorders additions: documented bound of
          // <= 4 ulps on the pairwise correlation.
          EXPECT_LE(UlpDistance(corr_fast, corr_ref), 4)
              << "rows=" << rows << " x=" << x << " y=" << y;
          // The z-transform can amplify correlation ulps near |r| = 1; a
          // tight relative bound on the p-value still pins the kernels.
          EXPECT_NEAR(p_fast, p_ref, 1e-9 * std::max(1.0, std::fabs(p_ref)))
              << "rows=" << rows << " x=" << x << " y=" << y << " |s|=" << cont_s.size();
        }
      }
    }
  }
}

TEST(KernelEquivalence, GSquareDegenerateColumns) {
  ReferenceModeGuard guard;
  // Constant discrete column as endpoint and inside the conditioning set.
  const DataTable t = MixedTable(65, 7);
  const std::vector<std::vector<int>> queries_s = {{}, {4}, {4, 3}, {2, 4}, {3, 4, 5}};
  for (const auto& s : queries_s) {
    simd::SetReferenceKernels(false);
    GSquareTest fast(t);
    const double p_fast_endpoint = fast.PValue(4, 3, {});
    const double p_fast = fast.PValue(3, 5, s);
    simd::SetReferenceKernels(true);
    GSquareTest ref(t);
    EXPECT_EQ(p_fast_endpoint, ref.PValue(4, 3, {}));
    EXPECT_EQ(p_fast, ref.PValue(3, 5, s));
  }
}

// Appends rows that stay inside the existing discrete levels: incremental
// Update must extend codes and strata, and the result must equal a cold test.
TEST(KernelEquivalence, IncrementalUpdateExtendsWithoutNewLevels) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  DataTable t = MixedTable(200, 11);
  GSquareTest incremental(t);
  // Materialize codes and strata at the old size.
  (void)incremental.PValue(3, 5, {});
  (void)incremental.PValue(3, 5, {0});
  (void)incremental.PValue(3, 5, {0, 6});
  // Append rows drawn from the same level sets (MixedTable's generator only
  // emits {0,1}, {1}, {0,1,2}, {0,1} for the discrete/tied columns).
  const DataTable extra = MixedTable(64, 12);
  for (size_t r = 0; r < extra.NumRows(); ++r) {
    t.AddRow(extra.Row(r));
  }
  incremental.Update(t);
  GSquareTest cold(t);
  for (const auto& s :
       std::vector<std::vector<int>>{{}, {0}, {0, 6}, {4}, {0, 4, 6}}) {
    EXPECT_EQ(incremental.PValue(3, 5, s), cold.PValue(3, 5, s)) << "|s|=" << s.size();
  }
}

// Appends a row carrying a brand-new discrete level: extension is impossible
// bit-identically (codes are assigned in sorted-value order), so Update must
// fall back to a full recode — and still match a cold test exactly.
TEST(KernelEquivalence, IncrementalUpdateNewLevelFallsBackToRecode) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  std::vector<Variable> vars = {
      {"d0", VarType::kDiscrete, VarRole::kOption, {0, 1, 2, 3}},
      {"d1", VarType::kDiscrete, VarRole::kOption, {0, 1, 2, 3}},
      {"d2", VarType::kDiscrete, VarRole::kOption, {0, 1, 2, 3}},
  };
  DataTable t(vars);
  Rng rng(13);
  for (int r = 0; r < 300; ++r) {
    // Levels {0, 2} only — level 1 is reserved for the appended rows, and it
    // sorts BETWEEN the existing levels, so every code shifts on recode.
    const double a = rng.Bernoulli(0.5) ? 0.0 : 2.0;
    t.AddRow({a, rng.Bernoulli(0.7) ? a : 2.0 - a, rng.Bernoulli(0.5) ? 0.0 : 2.0});
  }
  GSquareTest incremental(t);
  (void)incremental.PValue(0, 1, {});
  (void)incremental.PValue(0, 1, {2});
  for (int r = 0; r < 40; ++r) {
    t.AddRow({1.0, rng.Bernoulli(0.5) ? 0.0 : 1.0, 1.0});
  }
  incremental.Update(t);
  GSquareTest cold(t);
  EXPECT_EQ(incremental.PValue(0, 1, {}), cold.PValue(0, 1, {}));
  EXPECT_EQ(incremental.PValue(0, 1, {2}), cold.PValue(0, 1, {2}));
  EXPECT_EQ(incremental.PValue(0, 2, {1}), cold.PValue(0, 2, {1}));
}

// Quantile-binned continuous columns can never extend (appends shift the
// cuts); Update must recode them and match a cold test.
TEST(KernelEquivalence, IncrementalUpdateRecodesQuantileBinnedColumns) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  std::vector<Variable> vars = {
      {"d", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"c", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  Rng rng(17);
  for (int r = 0; r < 400; ++r) {
    const double d = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({d, 1.5 * d + rng.Gaussian()});
  }
  GSquareTest incremental(t);
  (void)incremental.PValue(0, 1, {});
  for (int r = 0; r < 100; ++r) {
    const double d = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({d, 1.5 * d + rng.Gaussian()});
  }
  incremental.Update(t);
  GSquareTest cold(t);
  EXPECT_EQ(incremental.PValue(0, 1, {}), cold.PValue(0, 1, {}));
}

TEST(KernelEquivalence, FisherUpdateMatchesFresh) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  DataTable t = MixedTable(100, 19);
  FisherZTest updated(t);
  (void)updated.PValue(0, 1, {});
  const DataTable extra = MixedTable(50, 20);
  for (size_t r = 0; r < extra.NumRows(); ++r) {
    t.AddRow(extra.Row(r));
  }
  updated.Update(t);
  FisherZTest fresh(t);
  EXPECT_EQ(updated.PValue(0, 1, {}), fresh.PValue(0, 1, {}));
  EXPECT_EQ(updated.PValue(0, 1, {6}), fresh.PValue(0, 1, {6}));
  EXPECT_EQ(updated.PValue(0, 6, {1, 2}), fresh.PValue(0, 6, {1, 2}));
}

// FirstIndependent vs. the per-set serial loop it replaces: same index, same
// p-value, same early exit, and `calls` advances once per examined set.
template <typename TestT>
void CheckFirstIndependentEquivalence(const DataTable& t, int x, int y,
                                      const std::vector<std::vector<int>>& sets,
                                      double alpha) {
  TestT batched(t);
  TestT serial(t);
  // Manual serial loop — the exact code the skeleton search used to run.
  int want_idx = -1;
  double want_p = 0.0;
  for (size_t i = 0; i < sets.size(); ++i) {
    const double p = serial.PValue(x, y, sets[i]);
    if (p >= alpha) {
      want_idx = static_cast<int>(i);
      want_p = p;
      break;
    }
  }
  BatchedCIRequest req;
  req.x = x;
  req.y = y;
  req.sets = &sets;
  req.alpha = alpha;
  double got_p = 0.0;
  const int got_idx = batched.FirstIndependent(req, &got_p);
  EXPECT_EQ(got_idx, want_idx);
  if (want_idx >= 0) {
    EXPECT_EQ(got_p, want_p);
  }
  EXPECT_EQ(batched.calls.Value(), serial.calls.Value());
}

TEST(KernelEquivalence, FirstIndependentMatchesSerialLoop) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  const DataTable t = MixedTable(500, 23);
  for (double alpha : {0.01, 0.05, 0.5, 1.0}) {
    // Continuous pair (dispatches to Fisher-z inside CompositeTest).
    CheckFirstIndependentEquivalence<CompositeTest>(t, 0, 1, ConditioningSets(0, 1), alpha);
    // Discrete pair (dispatches to the G-test).
    CheckFirstIndependentEquivalence<CompositeTest>(t, 3, 5, ConditioningSets(3, 5), alpha);
    CheckFirstIndependentEquivalence<GSquareTest>(t, 3, 5, ConditioningSets(3, 5), alpha);
    CheckFirstIndependentEquivalence<FisherZTest>(t, 0, 1, ConditioningSets(0, 1), alpha);
  }
  // Independent pair: early exit at index 0 for reasonable alpha.
  CheckFirstIndependentEquivalence<GSquareTest>(t, 3, 4, {{}, {0}}, 0.05);
  // Empty set list: no test runs, -1 comes back.
  CompositeTest test(t);
  const std::vector<std::vector<int>> empty;
  BatchedCIRequest req;
  req.x = 0;
  req.y = 1;
  req.sets = &empty;
  EXPECT_EQ(test.FirstIndependent(req), -1);
  EXPECT_EQ(test.calls.Value(), 0);
}

TEST(KernelEquivalence, FirstIndependentOnEmptyTable) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  std::vector<Variable> vars = {
      {"a", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"b", VarType::kDiscrete, VarRole::kOption, {0, 1}},
  };
  const DataTable t(vars);
  CheckFirstIndependentEquivalence<GSquareTest>(t, 0, 1, {{}, {}}, 0.05);
}

}  // namespace
}  // namespace unicorn
