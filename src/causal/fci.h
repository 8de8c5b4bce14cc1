// Fast Causal Inference (FCI) producing a partial ancestral graph.
//
// Implements the constraint-based pipeline of Spirtes et al. adapted with the
// performance-modeling background knowledge (paper §4 Stage II):
//   1. skeleton + sepsets (PC-stable search, structural constraints),
//   2. collider (v-structure) orientation from sepsets,
//   3. Possible-D-SEP pruning and re-orientation (the step that makes FCI
//      sound under latent confounders),
//   4. Zhang's orientation rules R1-R4 to a fixpoint.
// Selection bias is assumed absent (rules R5-R7 omitted), matching the
// measurement setup of the paper: configurations are sampled, not selected
// on outcomes.
#ifndef UNICORN_CAUSAL_FCI_H_
#define UNICORN_CAUSAL_FCI_H_

#include "causal/skeleton.h"

namespace unicorn {

struct FciOptions {
  SkeletonOptions skeleton;
  // Cap on Possible-D-SEP conditioning-set size (the dominant cost).
  int max_pds_cond_size = 3;
  bool use_possible_dsep = true;
};

struct FciResult {
  MixedGraph pag;
  SepsetMap sepsets;
  // CI tests requested across the skeleton and Possible-D-SEP phases,
  // derived from CITest::calls (single source of truth for test accounting).
  long long tests_performed = 0;
};

// `warm` (see skeleton.h) restricts both the skeleton sweep and the
// Possible-D-SEP re-tests to pairs whose statistics changed since the
// engine's previous refresh; clean pairs keep their previous adjacency.
// `pool` optionally supplies worker threads for the skeleton sweep.
FciResult RunFci(const CITest& test, const StructuralConstraints& constraints, size_t num_vars,
                 const FciOptions& options = {}, const SkeletonWarmStart& warm = {},
                 ThreadPool* pool = nullptr);

// Exposed for tests --------------------------------------------------------

// Orients unshielded colliders x *-> z <-* y whenever z is not in
// sepset(x, y).
void OrientVStructures(const SepsetMap& sepsets, MixedGraph* g);

// Possible-D-SEP set of x: nodes v reachable from x along a path on which
// every interior vertex w is either a collider or has its neighbours
// adjacent to each other.
std::vector<size_t> PossibleDSep(const MixedGraph& g, size_t x);

// Applies Zhang rules R1-R4 until no rule fires. Returns number of end-mark
// changes applied.
size_t ApplyOrientationRules(const SepsetMap& sepsets, MixedGraph* g);

}  // namespace unicorn

#endif  // UNICORN_CAUSAL_FCI_H_
