#include "causal/skeleton.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"

namespace unicorn {

void SepsetMap::Set(size_t a, size_t b, std::vector<size_t> s) {
  std::sort(s.begin(), s.end());
  const size_t i = SlotIndex(a, b);
  if (i >= slots_.size()) {
    slots_.resize(i + 1);
  }
  Release(&slots_[i]);
  // Overwrites and erasures leave dead members behind; reclaim them before
  // they outnumber the live ones, so the arena stays within twice its live
  // size however long the map is reused.
  if (dead_ > arena_.size() - dead_) {
    Compact();
  }
  if (arena_.size() + s.size() >= kAbsent) {
    throw std::length_error("SepsetMap: member arena exceeds 2^32 entries");
  }
  slots_[i] = {static_cast<uint32_t>(arena_.size()), static_cast<uint32_t>(s.size())};
  arena_.insert(arena_.end(), s.begin(), s.end());
}

void SepsetMap::Erase(size_t a, size_t b) {
  const size_t i = SlotIndex(a, b);
  if (i < slots_.size()) {
    Release(&slots_[i]);
  }
}

std::optional<SepsetView> SepsetMap::Get(size_t a, size_t b) const {
  const size_t i = SlotIndex(a, b);
  if (i >= slots_.size() || slots_[i].size == kAbsent) {
    return std::nullopt;
  }
  return SepsetView(arena_.data() + slots_[i].offset, slots_[i].size);
}

bool SepsetMap::Contains(size_t a, size_t b, size_t v) const {
  const auto s = Get(a, b);
  return s.has_value() && s->Contains(v);
}

void SepsetMap::Release(Slot* slot) {
  if (slot->size != kAbsent) {
    dead_ += slot->size;
    slot->size = kAbsent;
  }
}

void SepsetMap::Compact() {
  std::vector<uint32_t> live;
  live.reserve(arena_.size() - dead_);
  for (Slot& slot : slots_) {
    if (slot.size != kAbsent) {
      const auto first = arena_.begin() + slot.offset;
      slot.offset = static_cast<uint32_t>(live.size());
      live.insert(live.end(), first, first + slot.size);
    }
  }
  arena_ = std::move(live);
  dead_ = 0;
}

std::vector<std::vector<size_t>> Subsets(const std::vector<size_t>& pool, size_t k,
                                         size_t max_subsets) {
  std::vector<std::vector<size_t>> out;
  if (k > pool.size()) {
    return out;
  }
  if (k == 0) {
    out.push_back({});
    return out;
  }
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) {
    idx[i] = i;
  }
  while (out.size() < max_subsets) {
    std::vector<size_t> subset(k);
    for (size_t i = 0; i < k; ++i) {
      subset[i] = pool[idx[i]];
    }
    out.push_back(std::move(subset));
    // Advance lexicographically.
    size_t i = k;
    while (i-- > 0) {
      if (idx[i] != i + pool.size() - k) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) {
          idx[j] = idx[j - 1] + 1;
        }
        break;
      }
      if (i == 0) {
        return out;
      }
    }
  }
  return out;
}

namespace {

// Outcome of examining one (x, y) pair at one conditioning-set size.
struct PairOutcome {
  bool tested = false;   // some conditioning pool was large enough
  bool removed = false;
  std::vector<size_t> sepset;
};

// The per-pair body of the PC-stable level sweep. Reads only the frozen
// adjacency and the (thread-safe) CI test, so pairs can run concurrently and
// the outcome is independent of sweep order.
//
// Each (x, y | S) is asked at most once per pair. At level 0 both sides'
// only set is {}, so one request decides the pair. At deeper levels side 1
// runs only when side 0 found no separating set, so every set side 0
// examined is known dependent and side 1 skips it: the first independent
// set, and so the outcome, is the one the two-sided sweep would find.
PairOutcome ExaminePair(const CITest& test, const StructuralConstraints& constraints,
                        const std::vector<std::vector<size_t>>& adj, size_t x, size_t y,
                        int d, const SkeletonOptions& options) {
  PairOutcome out;
  // Scratch reused across pairs: the level-0 sweep visits every allowed pair
  // and a fresh pool/sets allocation per pair dominates the sweep's own cost.
  thread_local std::vector<size_t> pool;
  thread_local std::vector<std::vector<int>> sets;
  BatchedCIRequest request;
  request.x = static_cast<int>(x);
  request.y = static_cast<int>(y);
  request.sets = &sets;
  request.alpha = options.alpha;
  if (d == 0) {
    out.tested = true;
    sets.resize(1);
    sets[0].clear();
    out.removed = test.FirstIndependent(request) >= 0;
    return out;
  }
  // Side 0's subsets, in the lexicographic order Subsets emits them.
  std::vector<std::vector<size_t>> examined;
  // Candidate conditioning variables: adj(x)\{y} and adj(y)\{x}.
  for (int side = 0; side < 2; ++side) {
    const size_t from = side == 0 ? x : y;
    const size_t other = side == 0 ? y : x;
    // Objectives are sinks (structural constraint): conditioning on a
    // pure sink can only open collider paths, never block one, and
    // near-deterministic objectives otherwise destroy true edges.
    //
    // For singleton conditioning sets the lexicographic enumeration in
    // Subsets emits the first max_subsets pool entries and nothing else, so
    // the adjacency scan can stop there. Larger sets need the full pool:
    // past the emitted prefix the lexicographic sequence depends on the
    // pool's total size.
    const bool cap_pool = d == 1;
    const size_t pool_cap = std::max(options.max_subsets, static_cast<size_t>(d));
    pool.clear();
    for (size_t v : adj[from]) {
      if (v != other && constraints.roles()[v] != VarRole::kObjective) {
        pool.push_back(v);
        if (cap_pool && pool.size() >= pool_cap) {
          break;
        }
      }
    }
    if (pool.size() < static_cast<size_t>(d)) {
      continue;
    }
    out.tested = true;
    std::vector<std::vector<size_t>> subsets =
        Subsets(pool, static_cast<size_t>(d), options.max_subsets);
    // Both pools ascend (adjacency lists do), so both subset lists are
    // sorted and a binary search finds side 0's sets.
    sets.resize(subsets.size());
    size_t kept = 0;
    for (const std::vector<size_t>& subset : subsets) {
      if (!std::binary_search(examined.begin(), examined.end(), subset)) {
        sets[kept++].assign(subset.begin(), subset.end());
      }
    }
    sets.resize(kept);
    // Submit the whole level for this side as one batched request: the test
    // examines the sets in subset order with the serial early exit, but can
    // amortize per-pair setup (coded columns, cache keys) across them.
    const int idx = sets.empty() ? -1 : test.FirstIndependent(request);
    if (idx >= 0) {
      out.removed = true;
      const std::vector<int>& sepset = sets[static_cast<size_t>(idx)];
      out.sepset.assign(sepset.begin(), sepset.end());
      return out;
    }
    examined = std::move(subsets);
  }
  return out;
}

}  // namespace

SkeletonResult LearnSkeleton(const CITest& test, const StructuralConstraints& constraints,
                             size_t num_vars, const SkeletonOptions& options,
                             const SkeletonWarmStart& warm, ThreadPool* pool) {
  const long long calls_at_entry = test.calls.Value();
  SkeletonResult result;
  result.graph = MixedGraph(num_vars);
  MixedGraph& g = result.graph;
  const bool warm_active = warm.Active();
  {
    TRACE_SPAN("skeleton.setup", "engine");
    // A warm start adopts the previous separating sets wholesale, then drops
    // every entry this sweep must not keep: only a clean, allowed pair that
    // the previous graph separates keeps its set.
    result.sepsets = warm_active ? *warm.sepsets : SepsetMap(num_vars);
    for (size_t a = 0; a < num_vars; ++a) {
      for (size_t b = a + 1; b < num_vars; ++b) {
        bool keep_set = false;
        if (constraints.EdgeAllowed(a, b)) {
          if (warm_active && !warm.Dirty(a, b, num_vars) && !warm.graph->HasEdge(a, b)) {
            keep_set = true;  // clean pair: adopt the previous decision verbatim
          } else {
            g.AddCircleCircle(a, b);
          }
        }
        if (warm_active && !keep_set) {
          result.sepsets.Erase(a, b);
        }
      }
    }
  }

  for (int d = 0; d <= options.max_cond_size; ++d) {
    obs::trace::Span level_span("skeleton.level", "engine");
    level_span.SetArg("level", static_cast<double>(d));
    // Work list in deterministic pair order; warm starts only sweep pairs
    // whose statistics changed.
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t x = 0; x < num_vars; ++x) {
      for (size_t y = x + 1; y < num_vars; ++y) {
        if (!g.HasEdge(x, y)) {
          continue;
        }
        if (constraints.EdgeRequired(x, y)) {
          continue;  // domain knowledge: never test this edge away
        }
        if (warm_active && !warm.Dirty(x, y, num_vars)) {
          continue;
        }
        pairs.push_back({x, y});
      }
    }
    // PC-stable: freeze adjacency for this level so removal order does not
    // change which tests are run. A level with nothing to test skips it.
    std::vector<std::vector<size_t>> adj;
    if (!pairs.empty()) {
      adj.resize(num_vars);
      for (size_t v = 0; v < num_vars; ++v) {
        adj[v] = g.Adjacent(v);
      }
    }

    level_span.SetArg("pairs", static_cast<double>(pairs.size()));
    std::vector<PairOutcome> outcomes(pairs.size());
    auto body = [&](size_t i) {
      outcomes[i] =
          ExaminePair(test, constraints, adj, pairs[i].first, pairs[i].second, d, options);
    };
    if (pool != nullptr && pairs.size() > 1) {
      pool->ParallelFor(pairs.size(), body);
    } else {
      for (size_t i = 0; i < pairs.size(); ++i) {
        body(i);
      }
    }

    // Deterministic merge: same-level pairs are independent under PC-stable,
    // so applying the removals in pair order reproduces the serial result.
    bool any_tested = false;
    for (size_t i = 0; i < pairs.size(); ++i) {
      any_tested |= outcomes[i].tested;
      if (outcomes[i].removed) {
        g.RemoveEdge(pairs[i].first, pairs[i].second);
        result.sepsets.Set(pairs[i].first, pairs[i].second, outcomes[i].sepset);
      }
    }
    if (!any_tested && d > 0) {
      break;
    }
  }
  result.tests_performed = test.calls.Value() - calls_at_entry;
  return result;
}

}  // namespace unicorn
