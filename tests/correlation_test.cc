#include "stats/correlation.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

TEST(CorrelationTest, PearsonPerfectPositive) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
}

TEST(CorrelationTest, PearsonPerfectNegative) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(CorrelationTest, PearsonDegenerateZero) {
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
  EXPECT_EQ(PearsonCorrelation({1}, {2}), 0.0);
}

TEST(CorrelationTest, PearsonApproxZeroForIndependent) {
  Rng rng(1);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 20000; ++i) {
    a.push_back(rng.Gaussian());
    b.push_back(rng.Gaussian());
  }
  EXPECT_NEAR(PearsonCorrelation(a, b), 0.0, 0.02);
}

TEST(CorrelationTest, MidRanksSimple) {
  EXPECT_EQ(MidRanks({10, 30, 20}), (std::vector<double>{1, 3, 2}));
}

TEST(CorrelationTest, MidRanksTiesAveraged) {
  EXPECT_EQ(MidRanks({5, 5, 1}), (std::vector<double>{2.5, 2.5, 1}));
}

TEST(CorrelationTest, SpearmanMonotoneNonlinear) {
  // Spearman is 1 for any strictly increasing transform.
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(i * i * i);
  }
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(CorrelationTest, SpearmanReversed) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {5, 4, 3, 2, 1};
  EXPECT_NEAR(SpearmanCorrelation(x, y), -1.0, 1e-12);
}

TEST(CorrelationTest, MapeBasic) {
  EXPECT_NEAR(Mape({100, 200}, {90, 220}), 10.0, 1e-9);
}

TEST(CorrelationTest, MapePerfectPrediction) {
  EXPECT_EQ(Mape({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(CorrelationTest, MapeSkipsZeroTruth) {
  EXPECT_NEAR(Mape({0.0, 100.0}, {50.0, 110.0}), 10.0, 1e-9);
}

// Appends `rows` rows over 23 variables that reach every branch of the
// streaming Pearson: a constant column, a saturated counter (large offset,
// tiny spread), an exact copy, a negated copy and plain noise.
void AddScanRows(StreamingMoments* moments, size_t rows, Rng* rng) {
  std::vector<double> row(moments->NumVars());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t v = 0; v < row.size(); ++v) {
      row[v] = rng->Gaussian();
    }
    row[3] = 7.0;
    row[4] = 1e9 + rng->Uniform(0.0, 1e-3);
    row[5] = row[0];
    row[6] = -2.0 * row[1] + 0.1 * row[2];
    row[9] = 0.5 * row[8] + (rng->Bernoulli(0.3) ? 3.0 : 0.0);
    moments->AddRow(row);
  }
}

// The staleness scan, split into row ranges however unevenly, equals the
// per-pair Pearson bit for bit, and its per-variable drift equals the
// largest |r - r_previous| over each variable's pairs, for any split and
// any pool width.
TEST(StreamingMomentsTest, RangedScanMatchesPearsonOnEveryPairUnderAnySplit) {
  const size_t num_vars = 23;
  const size_t tri_size = num_vars * (num_vars + 1) / 2;
  StreamingMoments moments(num_vars);
  Rng rng(17);
  std::vector<double> previous;
  std::vector<double> unused;
  AddScanRows(&moments, 1, &rng);  // one row: every off-diagonal entry is 0
  moments.PearsonUpperTri({}, &previous, &unused, nullptr);
  for (size_t tri = 0, a = 0; a < num_vars; ++a) {
    for (size_t b = a; b < num_vars; ++b, ++tri) {
      EXPECT_EQ(previous[tri], a == b ? 1.0 : 0.0);
    }
  }
  EXPECT_EQ(unused, std::vector<double>(num_vars, 0.0));
  AddScanRows(&moments, 120, &rng);
  moments.PearsonUpperTri({}, &previous, &unused, nullptr);
  AddScanRows(&moments, 40, &rng);

  std::vector<double> want_drift(num_vars, 0.0);
  for (size_t tri = 0, a = 0; a < num_vars; ++a) {
    for (size_t b = a; b < num_vars; ++b, ++tri) {
      if (a != b) {
        const double d = std::fabs(moments.Pearson(a, b) - previous[tri]);
        want_drift[a] = std::max(want_drift[a], d);
        want_drift[b] = std::max(want_drift[b], d);
      }
    }
  }
  ASSERT_GT(*std::max_element(want_drift.begin(), want_drift.end()), 0.0);

  const auto expect_scan = [&](const std::vector<double>& out, const std::vector<double>& drift) {
    ASSERT_EQ(out.size(), tri_size);
    for (size_t tri = 0, a = 0; a < num_vars; ++a) {
      for (size_t b = a; b < num_vars; ++b, ++tri) {
        EXPECT_EQ(out[tri], a == b ? 1.0 : moments.Pearson(a, b)) << a << ", " << b;
      }
    }
    EXPECT_EQ(drift, want_drift);
  };

  const std::vector<std::vector<size_t>> splits = {
      {0, num_vars},     {0, 1, num_vars}, {0, num_vars - 1, num_vars},
      {0, 0, 5, 5, 6, 17, num_vars},       {0, 2, 3, 11, 12, 21, 22, num_vars}};
  for (const std::vector<size_t>& split : splits) {
    std::vector<double> out(tri_size, -3.0);
    std::vector<double> drift(num_vars, 0.0);
    for (size_t r = 0; r + 1 < split.size(); ++r) {
      std::vector<double> range_drift(num_vars, 0.0);
      moments.PearsonRows(split[r], split[r + 1], previous, &out, range_drift.data());
      for (size_t v = 0; v < num_vars; ++v) {
        drift[v] = std::max(drift[v], range_drift[v]);
      }
    }
    expect_scan(out, drift);
  }

  for (const int workers : {0, 1, 3, 6}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    std::vector<double> out;
    std::vector<double> drift;
    moments.PearsonUpperTri(previous, &out, &drift, &pool);
    expect_scan(out, drift);
  }
  std::vector<double> out;
  std::vector<double> drift;
  moments.PearsonUpperTri(previous, &out, &drift, nullptr);
  expect_scan(out, drift);
  // Without a previous scan there is nothing to drift from.
  moments.PearsonUpperTri({}, &out, &drift, nullptr);
  EXPECT_EQ(drift, std::vector<double>(num_vars, 0.0));
}

}  // namespace
}  // namespace unicorn
