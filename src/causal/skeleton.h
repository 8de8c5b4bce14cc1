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
//     bit-identical to the serial sweep for any thread count. A pair asks
//     each (x, y | S) once: its second side skips the sets its first side
//     already found dependent, which leaves every outcome unchanged.
//   * A warm start adopts the previous refresh's decision (edge present or
//     absent + separating set) for every pair whose endpoint statistics did
//     not change materially, and re-tests only the dirty pairs.
#ifndef UNICORN_CAUSAL_SKELETON_H_
#define UNICORN_CAUSAL_SKELETON_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "causal/constraints.h"
#include "graph/mixed_graph.h"
#include "stats/independence.h"
#include "util/thread_pool.h"

namespace unicorn {

// One recorded separating set: its members in ascending order. A view into
// the owning SepsetMap, valid until that map is next modified.
class SepsetView {
 public:
  SepsetView(const uint32_t* members, size_t size) : members_(members), size_(size) {}

  const uint32_t* begin() const { return members_; }
  const uint32_t* end() const { return members_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool Contains(size_t v) const { return std::binary_search(begin(), end(), v); }

  bool operator==(const SepsetView& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }
  bool operator!=(const SepsetView& other) const { return !(*this == other); }

 private:
  const uint32_t* members_;
  size_t size_;
};

// Separating sets keyed by unordered node pair. Every pair owns one flat slot
// (pair a < b at b(b-1)/2 + a) pointing into a single member arena, so a
// lookup is an array read and copying or dropping the whole table moves two
// buffers. Node indices are variable indices, far below 2^32.
class SepsetMap {
 public:
  // Sized for every pair of `num_vars` variables; Set grows the table past
  // that, so a default-constructed map accepts any pair.
  explicit SepsetMap(size_t num_vars = 0)
      : slots_(num_vars < 2 ? 0 : num_vars * (num_vars - 1) / 2) {}

  void Set(size_t a, size_t b, std::vector<size_t> s);
  void Erase(size_t a, size_t b);
  // Empty when no separating set was recorded for (a, b).
  std::optional<SepsetView> Get(size_t a, size_t b) const;
  bool Contains(size_t a, size_t b, size_t v) const;
  // Members held in the arena, live or dead; right after any Set it is at
  // most twice the members of the recorded sets.
  size_t arena_size() const { return arena_.size(); }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  struct Slot {
    uint32_t offset = 0;
    uint32_t size = kAbsent;
  };
  static size_t SlotIndex(size_t a, size_t b) {
    if (a > b) {
      std::swap(a, b);
    }
    return b * (b - 1) / 2 + a;
  }
  // Drops a recorded set's members from the arena's live count.
  void Release(Slot* slot);
  // Rewrites the arena with only the members that slots still reference.
  void Compact();

  std::vector<Slot> slots_;
  std::vector<uint32_t> arena_;
  size_t dead_ = 0;  // arena members no slot references (erased/overwritten)
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
  // can never disagree with the test's own accounting): the two-sided
  // sweep's requests minus the repeats a pair no longer asks.
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
