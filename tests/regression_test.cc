#include "stats/regression.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "stats/correlation.h"
#include "stats/linalg.h"
#include "util/rng.h"

namespace unicorn {
namespace {

DataTable MakeTable(size_t num_features, size_t rows, Rng* rng) {
  std::vector<Variable> vars;
  for (size_t i = 0; i < num_features; ++i) {
    vars.push_back({"x" + std::to_string(i), VarType::kContinuous, VarRole::kOption, {0, 1}});
  }
  vars.push_back({"y", VarType::kContinuous, VarRole::kObjective, {}});
  DataTable t(vars);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> row(num_features + 1, 0.0);
    for (size_t i = 0; i < num_features; ++i) {
      row[i] = rng->Uniform();
    }
    t.AddRow(row);
  }
  return t;
}

::testing::AssertionResult SameBits(const std::vector<double>& got,
                                    const std::vector<double>& want) {
  if (got.size() == want.size() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  auto failure = ::testing::AssertionFailure();
  for (size_t i = 0; i < got.size(); ++i) {
    failure << got[i] << " ";
  }
  return failure;
}

// The expected solutions are the bits the vector-of-vectors solver this one
// replaced produced for the same systems.
TEST(SolveLinearSystemTest, OneByOne) {
  std::vector<double> m = {3.0};
  std::vector<double> rhs = {1.0};
  ASSERT_TRUE(SolveLinearSystem(1, m.data(), rhs.data()));
  EXPECT_TRUE(SameBits(rhs, {0x1.5555555555555p-2}));
}

TEST(SolveLinearSystemTest, ThreeByThreeWithRowSwap) {
  // The first column's pivot is the last row.
  std::vector<double> m = {1e-3, 2.0, 3.0,  //
                           4.0,  5.0, 6.5,  //
                           7.0,  8.25, 10.0};
  std::vector<double> rhs = {1.0, 2.0, 3.5};
  ASSERT_TRUE(SolveLinearSystem(3, m.data(), rhs.data()));
  EXPECT_TRUE(SameBits(rhs, {-0x1.cd2262f3a53b2p-3, 0x1.19a9d4f93e3b7p+0,
                             -0x1.99b135c7a055ep-2}));
}

// Two right-hand sides (stored row-major as 3 x 2) through one elimination,
// with the same row swap, are bit-equal to two one-column solves.
TEST(SolveLinearSystemTest, TwoRightHandSidesMatchOneColumnSolves) {
  const std::vector<double> m = {1e-3, 2.0, 3.0,  //
                                 4.0,  5.0, 6.5,  //
                                 7.0,  8.25, 10.0};
  const std::vector<double> first = {1.0, 2.0, 3.5};
  const std::vector<double> second = {-0.3, 0.7, 1.9};
  std::vector<double> both(6);
  for (size_t i = 0; i < 3; ++i) {
    both[2 * i] = first[i];
    both[2 * i + 1] = second[i];
  }
  std::vector<double> m_both = m;
  ASSERT_TRUE(SolveLinearSystem(3, m_both.data(), both.data(), 2));

  std::vector<double> m_first = m;
  std::vector<double> x_first = first;
  ASSERT_TRUE(SolveLinearSystem(3, m_first.data(), x_first.data()));
  std::vector<double> m_second = m;
  std::vector<double> x_second = second;
  ASSERT_TRUE(SolveLinearSystem(3, m_second.data(), x_second.data()));

  EXPECT_TRUE(SameBits({both[0], both[2], both[4]}, x_first));
  EXPECT_TRUE(SameBits({both[1], both[3], both[5]}, x_second));
  EXPECT_TRUE(SameBits(x_first, {-0x1.cd2262f3a53b2p-3, 0x1.19a9d4f93e3b7p+0,
                                 -0x1.99b135c7a055ep-2}));
}

TEST(SolveLinearSystemTest, SingularMatrixIsRejected) {
  std::vector<double> m = {1.0, 2.0,  //
                           2.0, 4.0};
  std::vector<double> rhs = {1.0, 2.0};
  EXPECT_FALSE(SolveLinearSystem(2, m.data(), rhs.data()));
}

TEST(OlsTest, RecoversLinearCoefficients) {
  Rng rng(1);
  DataTable t = MakeTable(2, 500, &rng);
  const size_t y = 2;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, y, 3.0 + 2.0 * t.At(r, 0) - 5.0 * t.At(r, 1) + rng.Gaussian(0, 0.01));
  }
  const InfluenceModel m = FitOls(t, {{{0}}, {{1}}}, y);
  ASSERT_EQ(m.coefficients.size(), 3u);
  EXPECT_NEAR(m.coefficients[0], 3.0, 0.05);
  EXPECT_NEAR(m.coefficients[1], 2.0, 0.05);
  EXPECT_NEAR(m.coefficients[2], -5.0, 0.05);
  EXPECT_GT(m.train_r2, 0.99);
}

TEST(OlsTest, InterceptOnlyModelPredictsMean) {
  Rng rng(2);
  DataTable t = MakeTable(1, 100, &rng);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, 1, 7.0);
  }
  const InfluenceModel m = FitOls(t, {}, 1);
  EXPECT_NEAR(m.Predict({0.3, 0.0}), 7.0, 1e-9);
}

TEST(OlsTest, InteractionTermColumn) {
  Rng rng(3);
  DataTable t = MakeTable(2, 800, &rng);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, 2, 4.0 * t.At(r, 0) * t.At(r, 1) + rng.Gaussian(0, 0.01));
  }
  const InfluenceModel m = FitOls(t, {{{0, 1}}}, 2);
  EXPECT_NEAR(m.coefficients[1], 4.0, 0.05);
}

TEST(StepwiseTest, SelectsTrueTerms) {
  Rng rng(4);
  DataTable t = MakeTable(5, 600, &rng);
  const size_t y = 5;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, y,
          1.0 + 3.0 * t.At(r, 0) + 2.0 * t.At(r, 1) * t.At(r, 2) + rng.Gaussian(0, 0.02));
  }
  const InfluenceModel m = FitStepwiseRegression(t, {0, 1, 2, 3, 4}, y);
  // The true singleton and the true interaction must be selected.
  bool has_x0 = false;
  bool has_x1x2 = false;
  for (const auto& term : m.terms) {
    if (term.vars == std::vector<size_t>{0}) {
      has_x0 = true;
    }
    if (term.vars == std::vector<size_t>{1, 2}) {
      has_x1x2 = true;
    }
  }
  EXPECT_TRUE(has_x0);
  EXPECT_TRUE(has_x1x2);
  EXPECT_GT(m.train_r2, 0.98);
}

TEST(StepwiseTest, PrunesIrrelevantFeatures) {
  Rng rng(5);
  DataTable t = MakeTable(6, 500, &rng);
  const size_t y = 6;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, y, 2.0 * t.At(r, 0) + rng.Gaussian(0, 0.05));
  }
  const InfluenceModel m = FitStepwiseRegression(t, {0, 1, 2, 3, 4, 5}, y);
  // BIC keeps the model small: at most a couple of spurious terms.
  EXPECT_LE(m.terms.size(), 3u);
}

TEST(StepwiseTest, MaxTermsRespected) {
  Rng rng(6);
  DataTable t = MakeTable(8, 400, &rng);
  const size_t y = 8;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    double acc = 0.0;
    for (size_t f = 0; f < 8; ++f) {
      acc += static_cast<double>(f + 1) * t.At(r, f);
    }
    t.Set(r, y, acc + rng.Gaussian(0, 0.01));
  }
  StepwiseOptions options;
  options.max_terms = 4;
  const InfluenceModel m = FitStepwiseRegression(t, {0, 1, 2, 3, 4, 5, 6, 7}, y, options);
  EXPECT_LE(m.terms.size(), 4u);
}

TEST(StepwiseTest, PredictAllMatchesLoop) {
  Rng rng(7);
  DataTable t = MakeTable(3, 50, &rng);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, 3, t.At(r, 0) + rng.Gaussian(0, 0.1));
  }
  const InfluenceModel m = FitStepwiseRegression(t, {0, 1, 2}, 3);
  const auto preds = m.PredictAll(t);
  ASSERT_EQ(preds.size(), t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    EXPECT_NEAR(preds[r], m.Predict(t.Row(r)), 1e-12);
  }
}

TEST(StepwiseTest, TermNameReadable) {
  Rng rng(8);
  const DataTable t = MakeTable(2, 10, &rng);
  RegressionTerm term{{0, 1}};
  EXPECT_EQ(term.Name(t), "x0 x x1");
}

TEST(StepwiseTest, DegenerateTargetYieldsInterceptModel) {
  Rng rng(9);
  DataTable t = MakeTable(3, 100, &rng);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, 3, 5.5);
  }
  const InfluenceModel m = FitStepwiseRegression(t, {0, 1, 2}, 3);
  EXPECT_TRUE(m.terms.empty());
  EXPECT_NEAR(m.Predict({0.1, 0.9, 0.5, 0.0}), 5.5, 1e-6);
}

// Property sweep: stepwise regression train error decreases (weakly) with
// more allowed terms.
class StepwiseBudgetSweep : public ::testing::TestWithParam<int> {};

TEST_P(StepwiseBudgetSweep, MoreTermsNeverHurtTrainFit) {
  Rng rng(10);
  DataTable t = MakeTable(6, 300, &rng);
  const size_t y = 6;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    t.Set(r, y,
          2 * t.At(r, 0) - 3 * t.At(r, 1) + 1.5 * t.At(r, 2) * t.At(r, 3) +
              rng.Gaussian(0, 0.05));
  }
  StepwiseOptions small;
  small.max_terms = GetParam();
  StepwiseOptions large;
  large.max_terms = GetParam() + 3;
  const auto m_small = FitStepwiseRegression(t, {0, 1, 2, 3, 4, 5}, y, small);
  const auto m_large = FitStepwiseRegression(t, {0, 1, 2, 3, 4, 5}, y, large);
  EXPECT_LE(m_large.train_rmse, m_small.train_rmse + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, StepwiseBudgetSweep, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace unicorn
