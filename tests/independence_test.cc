#include "stats/independence.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace unicorn {
namespace {

// Builds a table of continuous variables from column generators.
DataTable ContinuousTable(const std::vector<std::vector<double>>& cols,
                          VarRole role = VarRole::kEvent) {
  std::vector<Variable> vars(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    vars[i] = {"v" + std::to_string(i), VarType::kContinuous, role, {}};
  }
  DataTable t(vars);
  for (size_t r = 0; r < cols[0].size(); ++r) {
    std::vector<double> row(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      row[c] = cols[c][r];
    }
    t.AddRow(row);
  }
  return t;
}

class FisherZFixture : public ::testing::Test {
 protected:
  static constexpr int kN = 800;
};

TEST_F(FisherZFixture, DetectsMarginalDependence) {
  Rng rng(1);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < kN; ++i) {
    const double xi = rng.Gaussian();
    x.push_back(xi);
    y.push_back(2.0 * xi + rng.Gaussian(0, 0.5));
  }
  const DataTable t = ContinuousTable({x, y});
  FisherZTest test(t);
  EXPECT_LT(test.PValue(0, 1, {}), 0.001);
}

TEST_F(FisherZFixture, AcceptsIndependence) {
  Rng rng(2);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < kN; ++i) {
    x.push_back(rng.Gaussian());
    y.push_back(rng.Gaussian());
  }
  const DataTable t = ContinuousTable({x, y});
  FisherZTest test(t);
  EXPECT_GT(test.PValue(0, 1, {}), 0.01);
}

TEST_F(FisherZFixture, ChainBlockedByConditioning) {
  // X -> Z -> Y: X ⊥ Y | Z but not marginally.
  Rng rng(3);
  std::vector<double> x;
  std::vector<double> z;
  std::vector<double> y;
  for (int i = 0; i < kN; ++i) {
    const double xi = rng.Gaussian();
    const double zi = 1.5 * xi + rng.Gaussian(0, 0.4);
    const double yi = -2.0 * zi + rng.Gaussian(0, 0.4);
    x.push_back(xi);
    z.push_back(zi);
    y.push_back(yi);
  }
  const DataTable t = ContinuousTable({x, z, y});
  FisherZTest test(t);
  EXPECT_LT(test.PValue(0, 2, {}), 0.001);
  EXPECT_GT(test.PValue(0, 2, {1}), 0.01);
}

TEST_F(FisherZFixture, ColliderOpenedByConditioning) {
  // X -> Z <- Y: X ⊥ Y marginally, dependent given Z.
  Rng rng(4);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  for (int i = 0; i < kN; ++i) {
    const double xi = rng.Gaussian();
    const double yi = rng.Gaussian();
    x.push_back(xi);
    y.push_back(yi);
    z.push_back(xi + yi + rng.Gaussian(0, 0.3));
  }
  const DataTable t = ContinuousTable({x, y, z});
  FisherZTest test(t);
  EXPECT_GT(test.PValue(0, 1, {}), 0.01);
  EXPECT_LT(test.PValue(0, 1, {2}), 0.001);
}

TEST_F(FisherZFixture, PartialCorrelationMatchesAnalytic) {
  // For standardized X, Z = aX + e1, Y = bZ + e2, partial corr of (X, Y)
  // given Z is 0; marginal corr is a*b / norm.
  Rng rng(5);
  std::vector<double> x;
  std::vector<double> z;
  std::vector<double> y;
  for (int i = 0; i < 4000; ++i) {
    const double xi = rng.Gaussian();
    const double zi = 0.8 * xi + rng.Gaussian(0, std::sqrt(1 - 0.64));
    const double yi = 0.7 * zi + rng.Gaussian(0, std::sqrt(1 - 0.49));
    x.push_back(xi);
    z.push_back(zi);
    y.push_back(yi);
  }
  const DataTable t = ContinuousTable({x, z, y});
  FisherZTest test(t);
  EXPECT_NEAR(test.PartialCorrelation(0, 2, {}), 0.56, 0.05);
  EXPECT_NEAR(test.PartialCorrelation(0, 2, {1}), 0.0, 0.05);
}

TEST_F(FisherZFixture, InsufficientSamplesReturnsOne) {
  const DataTable t = ContinuousTable({{1.0, 2.0}, {2.0, 1.0}});
  FisherZTest test(t);
  EXPECT_EQ(test.PValue(0, 1, {}), 1.0);
}

DataTable DiscreteTable(const std::vector<std::vector<double>>& cols) {
  std::vector<Variable> vars(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    vars[i] = {"d" + std::to_string(i), VarType::kDiscrete, VarRole::kOption, {0, 1, 2}};
  }
  DataTable t(vars);
  for (size_t r = 0; r < cols[0].size(); ++r) {
    std::vector<double> row(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      row[c] = cols[c][r];
    }
    t.AddRow(row);
  }
  return t;
}

TEST(GSquareTest, DetectsDiscreteDependence) {
  Rng rng(6);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    const int xi = static_cast<int>(rng.UniformInt(uint64_t{3}));
    x.push_back(xi);
    y.push_back(rng.Bernoulli(0.85) ? xi : static_cast<int>(rng.UniformInt(uint64_t{3})));
  }
  const DataTable t = DiscreteTable({x, y});
  GSquareTest test(t);
  EXPECT_LT(test.PValue(0, 1, {}), 0.001);
}

TEST(GSquareTest, AcceptsDiscreteIndependence) {
  Rng rng(7);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    x.push_back(static_cast<double>(rng.UniformInt(uint64_t{3})));
    y.push_back(static_cast<double>(rng.UniformInt(uint64_t{3})));
  }
  const DataTable t = DiscreteTable({x, y});
  GSquareTest test(t);
  EXPECT_GT(test.PValue(0, 1, {}), 0.01);
}

TEST(GSquareTest, ConditionalIndependenceChain) {
  Rng rng(8);
  std::vector<double> x;
  std::vector<double> z;
  std::vector<double> y;
  for (int i = 0; i < 1500; ++i) {
    const int xi = static_cast<int>(rng.UniformInt(uint64_t{3}));
    const int zi = rng.Bernoulli(0.9) ? xi : static_cast<int>(rng.UniformInt(uint64_t{3}));
    const int yi = rng.Bernoulli(0.9) ? zi : static_cast<int>(rng.UniformInt(uint64_t{3}));
    x.push_back(xi);
    z.push_back(zi);
    y.push_back(yi);
  }
  const DataTable t = DiscreteTable({x, z, y});
  GSquareTest test(t);
  EXPECT_LT(test.PValue(0, 2, {}), 0.001);
  EXPECT_GT(test.PValue(0, 2, {1}), 0.01);
}

TEST(CompositeTest, DispatchesOnTypes) {
  // Mixed table: discrete option + continuous event. Should not crash and
  // should find the dependence either way.
  Rng rng(9);
  std::vector<Variable> vars = {
      {"opt", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"event", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 500; ++i) {
    const double o = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({o, 3.0 * o + rng.Gaussian(0, 0.3)});
  }
  CompositeTest test(t);
  EXPECT_LT(test.PValue(0, 1, {}), 0.001);
}

TEST(CompositeTest, TracksCallCount) {
  Rng rng(10);
  std::vector<Variable> vars = {
      {"a", VarType::kContinuous, VarRole::kEvent, {}},
      {"b", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 50; ++i) {
    t.AddRow({rng.Gaussian(), rng.Gaussian()});
  }
  CompositeTest test(t);
  test.PValue(0, 1, {});
  test.PValue(0, 1, {});
  EXPECT_GE(test.calls.Value(), 2);
}

// TSan target: eight threads race on the lock-free memo reads — Fisher-z
// correlations, G² coded columns and G² empty / singleton strata — from
// their first touch on, then again after an incremental Update. Every
// p-value must equal a serial test's bit for bit.
TEST(IndependenceConcurrencyTest, MemoReadHammerMatchesSerialBitForBit) {
  constexpr size_t kContinuous = 6;
  constexpr size_t kDiscrete = 6;
  std::vector<Variable> vars;
  for (size_t v = 0; v < kContinuous; ++v) {
    vars.push_back({"c" + std::to_string(v), VarType::kContinuous, VarRole::kEvent, {}});
  }
  for (size_t v = 0; v < kDiscrete; ++v) {
    vars.push_back({"d" + std::to_string(v), VarType::kDiscrete, VarRole::kOption, {0, 1, 2}});
  }
  DataTable table(vars);
  Rng rng(11);
  const auto add_rows = [&](int rows) {
    for (int r = 0; r < rows; ++r) {
      std::vector<double> row(vars.size());
      const double base = rng.Gaussian();
      for (size_t v = 0; v < kContinuous; ++v) {
        row[v] = (v % 2 == 0 ? base : -base) * (v + 1) + rng.Gaussian(0, 1.0);
      }
      for (size_t v = 0; v < kDiscrete; ++v) {
        row[kContinuous + v] = base > 0.3 * static_cast<double>(v % 3)
                                   ? static_cast<double>(rng.UniformInt(uint64_t{2}))
                                   : 2.0;
      }
      table.AddRow(row);
    }
  };
  add_rows(300);

  struct Query {
    int x;
    int y;
    std::vector<int> s;
  };
  std::vector<Query> queries;
  const int n = static_cast<int>(vars.size());
  for (int x = 0; x < n; ++x) {
    for (int y = x + 1; y < n; ++y) {
      queries.push_back({x, y, {}});
      for (int z = 0; z < n; ++z) {
        if (z != x && z != y) {
          queries.push_back({x, y, {z}});
        }
      }
    }
  }
  const auto bits = [](double d) {
    uint64_t b = 0;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };

  FisherZTest fisher(table);
  GSquareTest gsq(table);
  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) {
      // Appended rows: G² extends or recodes its columns and drops strata
      // whose members recoded, so the fast paths must be re-derived.
      add_rows(40);
      fisher.Update(table);
      gsq.Update(table);
    }
    const FisherZTest serial_fisher(table);
    const GSquareTest serial_gsq(table);
    std::vector<uint64_t> want_fisher;
    std::vector<uint64_t> want_gsq;
    for (const Query& q : queries) {
      want_fisher.push_back(bits(serial_fisher.PValue(q.x, q.y, q.s)));
      want_gsq.push_back(bits(serial_gsq.PValue(q.x, q.y, q.s)));
    }

    constexpr int kThreads = 8;
    std::atomic<long long> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 2; ++round) {
          // Staggered starts make the threads race on first touches.
          for (size_t k = 0; k < queries.size(); ++k) {
            const size_t i = (k + static_cast<size_t>(t) * queries.size() / kThreads) %
                             queries.size();
            const Query& q = queries[i];
            if (bits(fisher.PValue(q.x, q.y, q.s)) != want_fisher[i] ||
                bits(gsq.PValue(q.x, q.y, q.s)) != want_gsq[i] ||
                bits(fisher.Correlation(static_cast<size_t>(q.x), static_cast<size_t>(q.y))) !=
                    bits(serial_fisher.Correlation(static_cast<size_t>(q.x),
                                                   static_cast<size_t>(q.y)))) {
              ++mismatches;
            }
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(mismatches.load(), 0) << "phase " << phase;
  }
}

}  // namespace
}  // namespace unicorn
