#include "causal/skeleton.h"

#include <algorithm>
#include <memory>

#include "obs/trace.h"

namespace unicorn {

void SepsetMap::Set(size_t a, size_t b, std::vector<size_t> s) {
  std::sort(s.begin(), s.end());
  sets_[Key(a, b)] = std::move(s);
}

const std::vector<size_t>* SepsetMap::Get(size_t a, size_t b) const {
  auto it = sets_.find(Key(a, b));
  return it == sets_.end() ? nullptr : &it->second;
}

bool SepsetMap::Contains(size_t a, size_t b, size_t v) const {
  const auto* s = Get(a, b);
  return s != nullptr && std::binary_search(s->begin(), s->end(), v);
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
PairOutcome ExaminePair(const CITest& test, const StructuralConstraints& constraints,
                        const std::vector<std::vector<size_t>>& adj, size_t x, size_t y,
                        int d, const SkeletonOptions& options) {
  PairOutcome out;
  // Scratch reused across pairs: the level-0 sweep visits every allowed pair
  // and a fresh pool/sets allocation per pair dominates the sweep's own cost.
  thread_local std::vector<size_t> pool;
  thread_local std::vector<std::vector<int>> sets;
  // Candidate conditioning variables: adj(x)\{y} and adj(y)\{x}.
  for (int side = 0; side < 2; ++side) {
    const size_t from = side == 0 ? x : y;
    const size_t other = side == 0 ? y : x;
    std::vector<std::vector<size_t>> subsets;
    if (d == 0) {
      // The only size-0 conditioning set is {} regardless of the pool, so the
      // pool is not built; the request below is identical to the general path.
      out.tested = true;
      sets.resize(1);
      sets[0].clear();
    } else {
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
      subsets = Subsets(pool, static_cast<size_t>(d), options.max_subsets);
      sets.resize(subsets.size());
      for (size_t i = 0; i < subsets.size(); ++i) {
        sets[i].assign(subsets[i].begin(), subsets[i].end());
      }
    }
    // Submit the whole level for this side as one batched request: the test
    // examines the sets in subset order with the serial early exit, but can
    // amortize per-pair setup (coded columns, cache keys) across them.
    BatchedCIRequest request;
    request.x = static_cast<int>(x);
    request.y = static_cast<int>(y);
    request.sets = &sets;
    request.alpha = options.alpha;
    const int idx = test.FirstIndependent(request);
    if (idx >= 0) {
      out.removed = true;
      if (d > 0) {
        out.sepset = std::move(subsets[static_cast<size_t>(idx)]);
      }
      return out;
    }
  }
  return out;
}

}  // namespace

SkeletonResult LearnSkeleton(const CITest& test, const StructuralConstraints& constraints,
                             size_t num_vars, const SkeletonOptions& options,
                             const SkeletonWarmStart& warm, ThreadPool* pool) {
  const long long calls_at_entry = test.calls;
  SkeletonResult result;
  result.graph = MixedGraph(num_vars);
  MixedGraph& g = result.graph;
  const bool warm_active = warm.Active();
  size_t allowed_pairs = 0;
  for (size_t a = 0; a < num_vars; ++a) {
    for (size_t b = a + 1; b < num_vars; ++b) {
      allowed_pairs += constraints.EdgeAllowed(a, b) ? 1 : 0;
    }
  }
  result.sepsets.Reserve(allowed_pairs);
  for (size_t a = 0; a < num_vars; ++a) {
    for (size_t b = a + 1; b < num_vars; ++b) {
      if (!constraints.EdgeAllowed(a, b)) {
        continue;
      }
      if (warm_active && !warm.Dirty(a, b, num_vars)) {
        // Clean pair: adopt the previous refresh's decision verbatim.
        if (warm.graph->HasEdge(a, b)) {
          g.AddCircleCircle(a, b);
        } else if (const auto* s = warm.sepsets->Get(a, b)) {
          result.sepsets.Set(a, b, *s);
        }
        continue;
      }
      g.AddCircleCircle(a, b);
    }
  }

  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr && options.num_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(options.num_threads);
    pool = local_pool.get();
  }

  for (int d = 0; d <= options.max_cond_size; ++d) {
    obs::trace::Span level_span("skeleton.level", "engine");
    level_span.SetArg("level", static_cast<double>(d));
    // PC-stable: freeze adjacency for this level so removal order does not
    // change which tests are run.
    std::vector<std::vector<size_t>> adj(num_vars);
    for (size_t v = 0; v < num_vars; ++v) {
      adj[v] = g.Adjacent(v);
    }
    // Work list in deterministic pair order; warm starts only sweep pairs
    // whose statistics changed.
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t x = 0; x < num_vars; ++x) {
      for (size_t y : adj[x]) {
        if (y <= x || !g.HasEdge(x, y)) {
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
  result.tests_performed = test.calls - calls_at_entry;
  return result;
}

}  // namespace unicorn
