#include "causal/entropic.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/entropy.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

CodedColumn Coded(std::vector<int> codes, int card) {
  CodedColumn c;
  c.codes = std::move(codes);
  c.cardinality = card;
  return c;
}

TEST(ExogenousNoiseTest, DeterministicFunctionZeroNoise) {
  // y = x: conditionals are point masses.
  std::vector<int> xs;
  std::vector<int> ys;
  Rng rng(1);
  for (int i = 0; i < 400; ++i) {
    const int x = static_cast<int>(rng.UniformInt(uint64_t{3}));
    xs.push_back(x);
    ys.push_back(x);
  }
  EXPECT_NEAR(ExogenousNoiseEntropy(Coded(xs, 3), Coded(ys, 3)), 0.0, 1e-9);
}

TEST(ExogenousNoiseTest, PureNoiseFullEntropy) {
  std::vector<int> xs;
  std::vector<int> ys;
  Rng rng(2);
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(static_cast<int>(rng.UniformInt(uint64_t{2})));
    ys.push_back(static_cast<int>(rng.UniformInt(uint64_t{2})));
  }
  const double h = ExogenousNoiseEntropy(Coded(xs, 2), Coded(ys, 2));
  EXPECT_NEAR(h, std::log(2.0), 0.1);
}

TEST(EntropicDirectionTest, ManyToFewPrefersTrueDirection) {
  // X uniform over 8 values; Y = X mod 2. The model X -> Y needs no noise;
  // Y -> X needs ~2 bits of noise. Entropic complexity H(X)+H(E) = ln 8
  // vs H(Y)+H(E~) = ln 2 + ln 4 = ln 8 ... use a skewed X so the
  // asymmetry is strict.
  std::vector<int> xs;
  std::vector<int> ys;
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    // Skewed distribution over 4 values.
    const double u = rng.Uniform();
    int x = 0;
    if (u > 0.55) {
      x = 1;
    }
    if (u > 0.8) {
      x = 2;
    }
    if (u > 0.95) {
      x = 3;
    }
    xs.push_back(x);
    ys.push_back(x >= 2 ? 1 : 0);  // deterministic coarse-graining
  }
  EntropicOptions options;
  Rng rng2(4);
  const EdgeDecision d = DecideEdgeDirection(Coded(xs, 4), Coded(ys, 2), options, &rng2);
  // Deterministic X -> Y has zero forward noise; reverse needs noise.
  EXPECT_LE(d.entropy_forward, d.entropy_backward + 1e-6);
}

TEST(EntropicDirectionTest, ConfounderDetected) {
  // X, Y noisy copies of a low-entropy coin: LatentSearch should find the
  // confounder and declare the edge bidirected.
  std::vector<int> xs;
  std::vector<int> ys;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const int z = rng.Bernoulli(0.5) ? 1 : 0;
    xs.push_back(rng.Bernoulli(0.92) ? z : 1 - z);
    ys.push_back(rng.Bernoulli(0.92) ? z : 1 - z);
  }
  EntropicOptions options;
  options.latent.cmi_tolerance = 0.02;
  Rng rng2(6);
  const EdgeDecision d = DecideEdgeDirection(Coded(xs, 2), Coded(ys, 2), options, &rng2);
  // Binary/binary with a binary confounder: H(Z) ~ ln 2 = H(X) = H(Y), so the
  // 0.8 threshold rejects it. What matters: decision is well-formed.
  EXPECT_TRUE(d.kind == EdgeDecision::Kind::kForward ||
              d.kind == EdgeDecision::Kind::kBackward ||
              d.kind == EdgeDecision::Kind::kBidirected);
}

// ResolveWithEntropy integration: circles disappear and the ADMG is valid.
TEST(ResolveTest, ProducesValidAdmg) {
  Rng rng(7);
  std::vector<Variable> vars = {
      {"o0", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"e0", VarType::kContinuous, VarRole::kEvent, {}},
      {"e1", VarType::kContinuous, VarRole::kEvent, {}},
      {"y", VarType::kContinuous, VarRole::kObjective, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 600; ++i) {
    const double o0 = static_cast<double>(rng.UniformInt(uint64_t{3}));
    const double e0 = 1.5 * o0 + rng.Gaussian(0, 0.1);
    const double e1 = 2.0 * e0 + rng.Gaussian(0, 0.1);
    const double y = e1 + rng.Gaussian(0, 0.1);
    t.AddRow({o0, e0, e1, y});
  }
  const StructuralConstraints constraints(t.Variables());
  MixedGraph pag(4);
  pag.AddDirected(0, 1);
  pag.AddCircleCircle(1, 2);
  pag.SetEdge(2, 3, Mark::kCircle, Mark::kArrow);
  EntropicOptions options;
  Rng resolver_rng(8);
  ResolveWithEntropy(t, constraints, options, &resolver_rng, &pag);
  EXPECT_EQ(pag.NumCircleMarks(), 0u);
  EXPECT_TRUE(pag.IsAdmg());
}

TEST(ResolveTest, NeverOrientsIntoOption) {
  Rng rng(9);
  std::vector<Variable> vars = {
      {"o0", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"e0", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 300; ++i) {
    const double o0 = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    t.AddRow({o0, o0 * 2.0 + rng.Gaussian(0, 0.1)});
  }
  const StructuralConstraints constraints(t.Variables());
  MixedGraph pag(2);
  pag.AddCircleCircle(0, 1);
  constraints.ApplyOrientations(&pag);
  EntropicOptions options;
  Rng resolver_rng(10);
  ResolveWithEntropy(t, constraints, options, &resolver_rng, &pag);
  EXPECT_TRUE(pag.IsDirected(0, 1));
}

TEST(ResolveTest, AcyclicityPreserved) {
  // Chain of events all circle-circle: whatever the entropic choices, the
  // result must stay acyclic.
  Rng rng(11);
  std::vector<Variable> vars;
  for (int i = 0; i < 5; ++i) {
    vars.push_back({"e" + std::to_string(i), VarType::kContinuous, VarRole::kEvent, {}});
  }
  DataTable t(vars);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(5);
    row[0] = rng.Gaussian();
    for (int v = 1; v < 5; ++v) {
      row[static_cast<size_t>(v)] = 0.9 * row[static_cast<size_t>(v - 1)] + rng.Gaussian(0, 0.3);
    }
    t.AddRow(row);
  }
  const StructuralConstraints constraints(t.Variables());
  MixedGraph pag(5);
  for (size_t i = 0; i + 1 < 5; ++i) {
    pag.AddCircleCircle(i, i + 1);
  }
  pag.AddCircleCircle(0, 4);
  EntropicOptions options;
  Rng resolver_rng(12);
  ResolveWithEntropy(t, constraints, options, &resolver_rng, &pag);
  EXPECT_FALSE(pag.HasDirectedCycle());
  EXPECT_EQ(pag.NumCircleMarks(), 0u);
}

// The engine keeps its model on a warm refresh with nothing stale because
// the entropic pass, handed every decision it made last time, reproduces its
// output from those decisions alone: same ADMG, same decision map, and not
// one draw from the Rng, whatever its seed.
TEST(ResolveTest, FullReuseReproducesTheResultWithoutDrawing) {
  Rng rng(13);
  std::vector<Variable> vars = {
      {"o0", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"o1", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"e0", VarType::kContinuous, VarRole::kEvent, {}},
      {"e1", VarType::kContinuous, VarRole::kEvent, {}},
      {"e2", VarType::kContinuous, VarRole::kEvent, {}},
      {"y", VarType::kContinuous, VarRole::kObjective, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 500; ++i) {
    const double o0 = static_cast<double>(rng.UniformInt(uint64_t{3}));
    const double o1 = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    const double e0 = 1.5 * o0 + rng.Gaussian(0, 0.3);
    const double e1 = e0 - o1 + rng.Gaussian(0, 0.3);
    const double e2 = 0.7 * e1 + rng.Gaussian(0, 0.3);
    t.AddRow({o0, o1, e0, e1, e2, e2 + e0 + rng.Gaussian(0, 0.1)});
  }
  const StructuralConstraints constraints(t.Variables());
  MixedGraph pag(6);
  pag.AddCircleCircle(0, 2);
  pag.AddCircleCircle(1, 3);
  pag.AddCircleCircle(2, 3);
  pag.SetEdge(2, 4, Mark::kTail, Mark::kTail);  // a tail-tail leftover is decided too
  pag.SetEdge(3, 4, Mark::kCircle, Mark::kArrow);
  pag.AddCircleCircle(4, 5);
  pag.AddDirected(2, 5);
  constraints.ApplyOrientations(&pag);
  EntropicOptions options;
  options.latent.restarts = 1;
  options.latent.iterations = 20;

  MixedGraph first = pag;
  EdgeDecisionMap decisions;
  Rng first_rng(8);
  ResolveWithEntropy(t, constraints, options, &first_rng, &first, nullptr, &decisions);
  // The option edges are oriented by the constraints; e0-e1, the tail-tail
  // e0-e2, e1-e2 and e2-y need a decision.
  ASSERT_EQ(decisions.size(), 4u);

  for (const bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pool" : "serial");
    ThreadPool pool(2);
    MixedGraph second = pag;
    EdgeDecisionMap second_decisions;
    Rng second_rng(9001);
    Rng untouched = second_rng;
    ResolveWithEntropy(t, constraints, options, &second_rng, &second, &decisions,
                       &second_decisions, pooled ? &pool : nullptr);
    EXPECT_TRUE(second == first);
    ASSERT_EQ(second_decisions.size(), decisions.size());
    for (const auto& [pair, d] : decisions) {
      const auto it = second_decisions.find(pair);
      ASSERT_NE(it, second_decisions.end());
      EXPECT_EQ(it->second.kind, d.kind);
      EXPECT_EQ(it->second.latent_found, d.latent_found);
      EXPECT_EQ(it->second.latent_entropy, d.latent_entropy);
      EXPECT_EQ(it->second.entropy_forward, d.entropy_forward);
      EXPECT_EQ(it->second.entropy_backward, d.entropy_backward);
    }
    EXPECT_EQ(second_rng.NextU64(), untouched.NextU64());  // no stream was forked
  }
}

}  // namespace
}  // namespace unicorn
