// Oracle tests for constraint-based discovery: replace the statistical CI
// test with exact d-separation on a known ground-truth DAG. With a perfect
// oracle, the skeleton must equal the true adjacency structure and the
// orientation machinery must respect every sound implication — the canonical
// correctness check for PC/FCI implementations.
#include <algorithm>

#include <gtest/gtest.h>

#include "causal/fci.h"
#include "graph/algorithms.h"
#include "util/rng.h"

namespace unicorn {
namespace {

// CI oracle backed by d-separation on a DAG.
class DSepOracle : public CITest {
 public:
  explicit DSepOracle(const MixedGraph& dag) : dag_(dag) {}

  double PValue(int x, int y, const std::vector<int>& s) const override {
    calls.Increment();
    std::vector<size_t> z(s.begin(), s.end());
    return DSeparated(dag_, static_cast<size_t>(x), static_cast<size_t>(y), z) ? 1.0 : 0.0;
  }

 private:
  const MixedGraph& dag_;
};

// Random sparse DAG over options -> events -> objectives.
struct OracleWorld {
  MixedGraph dag;
  std::vector<Variable> vars;
};

OracleWorld RandomWorld(size_t options, size_t events, size_t objectives, uint64_t seed) {
  OracleWorld world;
  const size_t n = options + events + objectives;
  world.dag = MixedGraph(n);
  world.vars.resize(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    world.vars[i].name = "v" + std::to_string(i);
    world.vars[i].type = VarType::kContinuous;
    world.vars[i].role = i < options                ? VarRole::kOption
                         : i < options + events     ? VarRole::kEvent
                                                    : VarRole::kObjective;
    if (world.vars[i].role == VarRole::kOption) {
      world.vars[i].domain = {0, 1};
    }
  }
  // Events: 1-3 parents among options and earlier events.
  for (size_t e = options; e < options + events; ++e) {
    const size_t num_parents = 1 + rng.UniformInt(uint64_t{3});
    for (size_t p = 0; p < num_parents; ++p) {
      const size_t parent = rng.UniformInt(static_cast<uint64_t>(e));
      if (parent != e && !world.dag.HasEdge(parent, e) &&
          world.vars[parent].role != VarRole::kObjective) {
        world.dag.AddDirected(parent, e);
      }
    }
  }
  // Objectives: 2-3 event parents.
  for (size_t o = options + events; o < n; ++o) {
    const size_t num_parents = 2 + rng.UniformInt(uint64_t{2});
    for (size_t p = 0; p < num_parents && events > 0; ++p) {
      const size_t parent = options + rng.UniformInt(static_cast<uint64_t>(events));
      if (!world.dag.HasEdge(parent, o)) {
        world.dag.AddDirected(parent, o);
      }
    }
  }
  return world;
}

class OracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleSweep, SkeletonMatchesTrueAdjacencies) {
  const OracleWorld world = RandomWorld(5, 6, 2, GetParam());
  const StructuralConstraints constraints(world.vars);
  const DSepOracle oracle(world.dag);
  SkeletonOptions options;
  options.max_cond_size = 6;
  options.max_subsets = 4096;
  const SkeletonResult result = LearnSkeleton(oracle, constraints, world.dag.NumNodes(), options);
  for (size_t a = 0; a < world.dag.NumNodes(); ++a) {
    for (size_t b = a + 1; b < world.dag.NumNodes(); ++b) {
      // Note: objectives are excluded from conditioning sets by design; with
      // objectives as pure sinks this does not change separability of
      // non-objective pairs.
      EXPECT_EQ(result.graph.HasEdge(a, b), world.dag.HasEdge(a, b))
          << "pair (" << a << ", " << b << ") seed " << GetParam();
    }
  }
}

TEST_P(OracleSweep, FciOrientationsNeverContradictTruth) {
  const OracleWorld world = RandomWorld(5, 6, 2, GetParam() + 100);
  const StructuralConstraints constraints(world.vars);
  const DSepOracle oracle(world.dag);
  FciOptions options;
  options.skeleton.max_cond_size = 6;
  options.skeleton.max_subsets = 4096;
  options.max_pds_cond_size = 3;
  const FciResult result = RunFci(oracle, constraints, world.dag.NumNodes(), options);
  // Soundness: a definite directed edge a -> b in the PAG implies b is NOT
  // an ancestor of a in the truth (arrowheads are ancestral statements).
  for (size_t a = 0; a < world.dag.NumNodes(); ++a) {
    const auto ancestors = Ancestors(world.dag, a);
    for (size_t b = 0; b < world.dag.NumNodes(); ++b) {
      if (a == b || !result.pag.IsDirected(a, b)) {
        continue;
      }
      EXPECT_EQ(std::find(ancestors.begin(), ancestors.end(), b), ancestors.end())
          << "PAG claims " << a << " -> " << b << " but " << b << " is an ancestor of " << a;
    }
  }
}

TEST_P(OracleSweep, VStructuresRecovered) {
  const OracleWorld world = RandomWorld(5, 6, 2, GetParam() + 200);
  const StructuralConstraints constraints(world.vars);
  const DSepOracle oracle(world.dag);
  FciOptions options;
  options.skeleton.max_cond_size = 6;
  options.skeleton.max_subsets = 4096;
  const FciResult result = RunFci(oracle, constraints, world.dag.NumNodes(), options);
  // Every unshielded collider of the truth must carry arrowheads in the PAG.
  const size_t n = world.dag.NumNodes();
  for (size_t z = 0; z < n; ++z) {
    const auto parents = world.dag.Parents(z);
    for (size_t i = 0; i < parents.size(); ++i) {
      for (size_t j = i + 1; j < parents.size(); ++j) {
        const size_t x = parents[i];
        const size_t y = parents[j];
        if (world.dag.HasEdge(x, y)) {
          continue;  // shielded
        }
        ASSERT_TRUE(result.pag.HasEdge(x, z));
        ASSERT_TRUE(result.pag.HasEdge(y, z));
        EXPECT_TRUE(result.pag.HasArrowAt(x, z))
            << "missing arrowhead at collider " << z << " from " << x;
        EXPECT_TRUE(result.pag.HasArrowAt(y, z))
            << "missing arrowhead at collider " << z << " from " << y;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace unicorn
