// Skeleton recovery with separating sets (paper Fig. 9, steps 1-2).
//
// PC-stable adjacency search: start from the complete graph restricted by the
// structural constraints, then for growing conditioning-set sizes remove the
// edge (x, y) whenever x ⊥ y | S for some S drawn from the current adjacency
// of x or y. The separating sets feed the v-structure orientation in FCI.
//
// Two engine-oriented extensions over the textbook algorithm:
//   * The per-level edge sweep can run on a thread pool. PC-stable freezes
//     adjacency within a level, so same-level pairs are independent; per-pair
//     outcomes are merged in deterministic pair order and the result is
//     bit-identical to the serial sweep for any thread count.
//   * A warm start adopts the previous refresh's decision (edge present or
//     absent + separating set) for every pair whose endpoint statistics did
//     not change materially, and re-tests only the dirty pairs.
#ifndef UNICORN_CAUSAL_SKELETON_H_
#define UNICORN_CAUSAL_SKELETON_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "causal/constraints.h"
#include "graph/mixed_graph.h"
#include "stats/independence.h"
#include "util/thread_pool.h"

namespace unicorn {

// Separating sets keyed by unordered node pair (stored with first < second).
// Get/Contains sit on the orientation hot path (every unshielded triple asks
// for one), so the pair key is packed into 64 bits and stored in a hash map
// instead of a tree. Node indices are variable indices, far below 2^32.
class SepsetMap {
 public:
  void Set(size_t a, size_t b, std::vector<size_t> s);
  // Null when no separating set was recorded for (a, b).
  const std::vector<size_t>* Get(size_t a, size_t b) const;
  bool Contains(size_t a, size_t b, size_t v) const;
  // Pre-sizes the table (a skeleton sweep knows its pair count up front;
  // growing a ~100k-entry map by rehashing costs more than the inserts).
  void Reserve(size_t pairs) { sets_.reserve(pairs); }

 private:
  static uint64_t Key(size_t a, size_t b) {
    if (a > b) {
      std::swap(a, b);
    }
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
  }
  std::unordered_map<uint64_t, std::vector<size_t>> sets_;
};

struct SkeletonOptions {
  double alpha = 0.05;      // independence-test significance level
  int max_cond_size = 3;    // largest conditioning set tried
  size_t max_subsets = 64;  // cap on subsets tested per (pair, size)
};

// Warm-start state from the engine's previous model refresh. All three
// pointers must be set for the warm start to be active; `pair_dirty` is
// indexed a * num_vars + b (a < b) and marks pairs that must be re-tested.
// Clean pairs adopt the previous adjacency decision and separating set
// without issuing any CI test.
struct SkeletonWarmStart {
  const MixedGraph* graph = nullptr;      // previous final adjacency
  const SepsetMap* sepsets = nullptr;     // previous separating sets
  const std::vector<char>* pair_dirty = nullptr;

  bool Active() const {
    return graph != nullptr && sepsets != nullptr && pair_dirty != nullptr;
  }
  bool Dirty(size_t a, size_t b, size_t num_vars) const {
    if (a > b) {
      std::swap(a, b);
    }
    return (*pair_dirty)[a * num_vars + b] != 0;
  }
};

struct SkeletonResult {
  MixedGraph graph;  // all present edges carry circle-circle marks
  SepsetMap sepsets;
  // CI tests requested during the search (derived from CITest::calls, so it
  // can never disagree with the test's own accounting).
  long long tests_performed = 0;
};

// `pool` runs the per-level edge sweep; null sweeps serially.
SkeletonResult LearnSkeleton(const CITest& test, const StructuralConstraints& constraints,
                             size_t num_vars, const SkeletonOptions& options = {},
                             const SkeletonWarmStart& warm = {}, ThreadPool* pool = nullptr);

// Enumerates up to `max_subsets` size-k subsets of `pool` (lexicographic).
std::vector<std::vector<size_t>> Subsets(const std::vector<size_t>& pool, size_t k,
                                         size_t max_subsets);

}  // namespace unicorn

#endif  // UNICORN_CAUSAL_SKELETON_H_
