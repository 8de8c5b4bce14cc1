#include "causal/fci.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

// Sets an arrowhead at z on edge (u, z) if not already an arrowhead.
// Returns true when the mark changed. `circles`, when given, tracks how many
// incident circle marks each node still has at its own end (see
// ApplyOrientationRules); destroying a circle decrements the count.
bool PutArrow(MixedGraph* g, size_t u, size_t z, std::vector<int>* circles = nullptr) {
  const Mark at_z = g->EndMark(u, z);
  if (at_z == Mark::kArrow) {
    return false;
  }
  if (circles != nullptr && at_z == Mark::kCircle) {
    --(*circles)[z];
  }
  g->SetEndMark(u, z, Mark::kArrow);
  return true;
}

// Sets a tail at z's end of edge (u, z). Returns true when changed.
bool PutTail(MixedGraph* g, size_t u, size_t z, std::vector<int>* circles = nullptr) {
  const Mark at_z = g->EndMark(u, z);
  if (at_z == Mark::kTail) {
    return false;
  }
  if (circles != nullptr && at_z == Mark::kCircle) {
    --(*circles)[z];
  }
  g->SetEndMark(u, z, Mark::kTail);
  return true;
}

}  // namespace

void OrientVStructures(const SepsetMap& sepsets, MixedGraph* g) {
  const size_t n = g->NumNodes();
  // Iterate unshielded pairs and intersect their (frozen) adjacency rows as
  // bitsets instead of enumerating triples z-outer: the triple order
  // re-queried the sepset map once per common neighbor, while here one fetch
  // per pair suffices and the intersection is a handful of word ANDs. The
  // set of visited (x, y, z) triples is unchanged — bit extraction walks the
  // common neighbors in ascending order — and the upgrades are idempotent
  // circle->arrow promotions whose guards never re-enable, so the final
  // marks are identical in either order.
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> bits(n * words, 0);
  for (size_t v = 0; v < n; ++v) {
    for (size_t u : g->Adjacent(v)) {
      bits[v * words + u / 64] |= uint64_t{1} << (u % 64);
    }
  }
  for (size_t x = 0; x < n; ++x) {
    const uint64_t* bx = &bits[x * words];
    for (size_t y = x + 1; y < n; ++y) {
      if (g->HasEdge(x, y)) {
        continue;  // shielded
      }
      const uint64_t* by = &bits[y * words];
      const std::vector<size_t>* s = nullptr;
      bool sepset_fetched = false;
      for (size_t w = 0; w < words; ++w) {
        uint64_t common = bx[w] & by[w];
        while (common != 0) {
          const size_t z = w * 64 + static_cast<size_t>(__builtin_ctzll(common));
          common &= common - 1;
          if (!sepset_fetched) {
            s = sepsets.Get(x, y);
            sepset_fetched = true;
          }
          if (s == nullptr || !std::binary_search(s->begin(), s->end(), z)) {
            // x *-> z <-* y. Only upgrade circle marks; background-knowledge
            // tails (options) stay tails to keep constraints satisfied.
            if (g->HasCircleAt(x, z)) {
              PutArrow(g, x, z);
            }
            if (g->HasCircleAt(y, z)) {
              PutArrow(g, y, z);
            }
          }
        }
      }
    }
  }
}

std::vector<size_t> PossibleDSep(const MixedGraph& g, size_t x) {
  const size_t n = g.NumNodes();
  // BFS over edges (u, v): extendable to (v, w) when w is a collider on
  // <u, v, w> or u and w are adjacent.
  std::vector<std::vector<bool>> visited(n, std::vector<bool>(n, false));
  std::vector<std::pair<size_t, size_t>> frontier;
  std::vector<bool> in_result(n, false);
  for (size_t v : g.Adjacent(x)) {
    frontier.push_back({x, v});
    visited[x][v] = true;
    in_result[v] = true;
  }
  while (!frontier.empty()) {
    auto [u, v] = frontier.back();
    frontier.pop_back();
    for (size_t w : g.Adjacent(v)) {
      if (w == u || visited[v][w]) {
        continue;
      }
      const bool collider = g.IsCollider(u, v, w);
      const bool triangle = g.HasEdge(u, w);
      if (collider || triangle) {
        visited[v][w] = true;
        in_result[w] = true;
        frontier.push_back({v, w});
      }
    }
  }
  std::vector<size_t> out;
  for (size_t v = 0; v < n; ++v) {
    if (v != x && in_result[v]) {
      out.push_back(v);
    }
  }
  return out;
}

namespace {

// Orientation rules R1-R4 only upgrade edge marks; they never add or remove
// an edge. Adjacency is therefore frozen for the whole fixpoint loop, and the
// rules share one precomputed set of adjacency lists instead of rescanning
// the dense mark matrix (and allocating a fresh vector) on every visit.
using AdjacencyLists = std::vector<std::vector<size_t>>;

AdjacencyLists BuildAdjacencyLists(const MixedGraph& g) {
  AdjacencyLists adj(g.NumNodes());
  for (size_t v = 0; v < g.NumNodes(); ++v) {
    adj[v] = g.Adjacent(v);
  }
  return adj;
}

// R1: a *-> b o-* c, a and c non-adjacent  =>  b -> c (tail at b, arrow at c).
bool RuleR1(const AdjacencyLists& adj, std::vector<int>* circles, MixedGraph* g) {
  const size_t n = g->NumNodes();
  bool changed = false;
  for (size_t b = 0; b < n; ++b) {
    if ((*circles)[b] == 0) {
      // R1 fires only through HasCircleAt(c, b) — a circle at b's own end.
      // Rules never create circles, so once b runs out they stay out and the
      // arrow-parent scan below can be skipped exactly.
      continue;
    }
    for (size_t a : adj[b]) {
      if (!g->HasArrowAt(a, b)) {
        continue;
      }
      for (size_t c : adj[b]) {
        if (c == a || g->HasEdge(a, c)) {
          continue;
        }
        if (g->HasCircleAt(c, b)) {
          // mark at b on edge b-c is circle -> make it tail; arrow at c.
          changed |= PutTail(g, c, b, circles);
          if (g->HasCircleAt(b, c)) {
            changed |= PutArrow(g, b, c, circles);
          }
        }
      }
    }
  }
  return changed;
}

// R2: (a -> b *-> c) or (a *-> b -> c), and a *-o c  =>  arrow at c on a-c.
bool RuleR2(const AdjacencyLists& adj, std::vector<int>* circles, MixedGraph* g) {
  const size_t n = g->NumNodes();
  bool changed = false;
  for (size_t a = 0; a < n; ++a) {
    for (size_t c : adj[a]) {
      if (!g->HasCircleAt(a, c)) {
        continue;
      }
      for (size_t b : adj[a]) {
        if (b == c || !g->HasEdge(b, c)) {
          continue;
        }
        const bool chain1 = g->IsDirected(a, b) && g->HasArrowAt(b, c);
        const bool chain2 = g->HasArrowAt(a, b) && g->IsDirected(b, c);
        if (chain1 || chain2) {
          changed |= PutArrow(g, a, c, circles);
          break;
        }
      }
    }
  }
  return changed;
}

// R3: a *-> b <-* c, a *-o d o-* c, a and c non-adjacent, d *-o b
//     =>  arrow at b on d-b.
bool RuleR3(const AdjacencyLists& adj, std::vector<int>* circles, MixedGraph* g) {
  const size_t n = g->NumNodes();
  bool changed = false;
  for (size_t d = 0; d < n; ++d) {
    if ((*circles)[d] == 0) {
      // R3 needs a *-o d and c *-o d — circle marks at d's own end. None
      // left (and rules never create them) means d can be skipped exactly.
      continue;
    }
    for (size_t b : adj[d]) {
      if (!g->HasCircleAt(d, b)) {
        continue;
      }
      const auto& adj_d = adj[d];
      for (size_t a : adj_d) {
        if (a == b || !g->HasCircleAt(a, d) || !g->HasEdge(a, b) || !g->HasArrowAt(a, b)) {
          continue;
        }
        for (size_t c : adj_d) {
          if (c == a || c == b || g->HasEdge(a, c)) {
            continue;
          }
          if (g->HasCircleAt(c, d) && g->HasEdge(c, b) && g->HasArrowAt(c, b)) {
            changed |= PutArrow(g, d, b, circles);
            break;
          }
        }
      }
    }
  }
  return changed;
}

// R4 (discriminating path): if p = <d, ..., a, b, c> is a discriminating path
// for b (every interior vertex is a collider on p and a parent of c; d and c
// non-adjacent) and b o-* c, then: if b in sepset(d, c) orient b -> c, else
// orient a <-> b <-> c.
//
// We search discriminating paths with a bounded DFS extending backwards from
// <a, b, c>.
bool RuleR4(const SepsetMap& sepsets, const AdjacencyLists& adj, std::vector<int>* circles,
            MixedGraph* g) {
  const size_t n = g->NumNodes();
  bool changed = false;
  constexpr size_t kMaxPathLen = 8;
  for (size_t b = 0; b < n; ++b) {
    for (size_t c : adj[b]) {
      if (!g->HasCircleAt(b, c) && !g->HasCircleAt(c, b)) {
        continue;
      }
      for (size_t a : adj[b]) {
        if (a == c || !g->HasEdge(a, c)) {
          continue;
        }
        // Interior vertices must be colliders on the path and parents of c.
        if (!g->HasArrowAt(b, a) && !g->IsDirected(a, c)) {
          continue;
        }
        if (!g->IsDirected(a, c) || !g->HasArrowAt(b, a)) {
          continue;
        }
        // DFS backwards from a; the path so far is <v, ..., a, b, c>.
        std::vector<bool> on_path(n, false);
        on_path[a] = true;
        on_path[b] = true;
        on_path[c] = true;
        std::function<bool(size_t, size_t)> extend = [&](size_t v, size_t depth) -> bool {
          if (depth > kMaxPathLen) {
            return false;
          }
          for (size_t d : adj[v]) {
            if (on_path[d]) {
              continue;
            }
            if (!g->HasArrowAt(d, v)) {
              continue;  // path edges must point into the collider chain
            }
            if (!g->HasEdge(d, c)) {
              // Found a discriminating path <d, ..., b, c>.
              if (sepsets.Contains(d, c, b)) {
                bool local = false;
                local |= PutTail(g, c, b, circles);
                local |= PutArrow(g, b, c, circles);
                return local;
              }
              bool local = false;
              local |= PutArrow(g, b, a, circles);
              local |= PutArrow(g, a, b, circles);
              local |= PutArrow(g, c, b, circles);
              local |= PutArrow(g, b, c, circles);
              return local;
            }
            // d is adjacent to c: to stay discriminating it must be a
            // collider on the path and a parent of c.
            if (g->IsDirected(d, c) && g->HasArrowAt(v, d)) {
              on_path[d] = true;
              const bool found = extend(d, depth + 1);
              on_path[d] = false;
              if (found) {
                return true;
              }
            }
          }
          return false;
        };
        if (extend(a, 3)) {
          changed = true;
        }
      }
    }
  }
  return changed;
}

}  // namespace

size_t ApplyOrientationRules(const SepsetMap& sepsets, MixedGraph* g) {
  const AdjacencyLists adj = BuildAdjacencyLists(*g);
  // Incident circle marks at each node's own end. The rules only ever destroy
  // circles (every mark write is an upgrade via PutArrow/PutTail), so the
  // counts shrink monotonically and a zero lets R1/R3 skip the node for the
  // rest of the fixpoint loop.
  const size_t n = g->NumNodes();
  std::vector<int> circles(n, 0);
  for (size_t v = 0; v < n; ++v) {
    for (size_t u : adj[v]) {
      if (g->HasCircleAt(u, v)) {
        ++circles[v];
      }
    }
  }
  size_t total = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    if (RuleR1(adj, &circles, g)) {
      changed = true;
      ++total;
    }
    if (RuleR2(adj, &circles, g)) {
      changed = true;
      ++total;
    }
    if (RuleR3(adj, &circles, g)) {
      changed = true;
      ++total;
    }
    if (RuleR4(sepsets, adj, &circles, g)) {
      changed = true;
      ++total;
    }
  }
  return total;
}

namespace {

// --- Possible-D-SEP phase ---------------------------------------------------
//
// The serial reference walks sources x in order, neighbors y in adjacency
// order, and for each remaining edge sweeps subsets of pds(x)\{y} by size
// until one renders the pair independent; a removal immediately refreshes
// pds(x) for later neighbors. Unlike the PC-stable skeleton levels, later
// pairs therefore *do* depend on earlier removals — so the parallel form
// below speculates every sweep against the phase-entry graph and re-validates
// each pair's conditioning pool during a deterministic in-order merge,
// falling back to an inline re-sweep when an earlier removal changed it.

// Pool of conditioning candidates the serial loop uses for side (x, y):
// pds(x) minus {y} and the objective sinks.
std::vector<size_t> FilterPdsPool(const std::vector<size_t>& pds_base, size_t y,
                                  const StructuralConstraints& constraints) {
  std::vector<size_t> pds = pds_base;
  pds.erase(std::remove_if(pds.begin(), pds.end(),
                           [&](size_t v) {
                             return v == y || constraints.roles()[v] == VarRole::kObjective;
                           }),
            pds.end());
  return pds;
}

// One side's whole sweep, precomputed: the subsets in exactly the order the
// serial d-loop examines them (sizes 1..max_pds_cond_size, lexicographic
// within a size, capped per size), plus their int form for the CI request.
struct PdsSweep {
  std::vector<std::vector<size_t>> subsets;  // for SepsetMap::Set
  std::vector<std::vector<int>> sets;        // for BatchedCIRequest
};

PdsSweep BuildPdsSweep(const std::vector<size_t>& pool, const FciOptions& options) {
  PdsSweep sweep;
  for (int d = 1; d <= options.max_pds_cond_size; ++d) {
    for (auto& subset :
         Subsets(pool, static_cast<size_t>(d), options.max_pds_subsets)) {
      sweep.sets.emplace_back(subset.begin(), subset.end());
      sweep.subsets.push_back(std::move(subset));
    }
  }
  return sweep;
}

// One ordered side (x, y) of a remaining edge in the parallel phase.
struct PdsSide {
  size_t x = 0;
  size_t y = 0;
  bool candidate = false;   // passed the static (graph-independent) filters
  bool speculated = false;  // a worker ran the speculative sweep
  bool resolved = false;    // merge adopted or discarded the speculation
  std::vector<size_t> pool0;  // filtered pool against the phase-entry graph
  PdsSweep sweep;
  CISpeculation spec;

  BatchedCIRequest Request(double alpha) const {
    BatchedCIRequest req;
    req.x = static_cast<int>(x);
    req.y = static_cast<int>(y);
    req.sets = &sweep.sets;
    req.alpha = alpha;
    return req;
  }
};

// Both sides of one remaining edge {a, b}: side[0] = (a, b) is the side the
// serial loop visits first (turn a comes before turn b).
struct PdsEdgeGroup {
  PdsSide side[2];
  bool side0_clean_adopt = false;  // side[0] adopted as speculated, no removal
};

void PossibleDSepPhase(const CITest& test, const StructuralConstraints& constraints,
                       size_t num_vars, const FciOptions& options,
                       const SkeletonWarmStart& warm, ThreadPool* pool, MixedGraph* graph,
                       SepsetMap* sepsets) {
  MixedGraph& g = *graph;
  const size_t n = num_vars;
  const bool warm_active = warm.Active();
  const double alpha = options.skeleton.alpha;
  // Graph-independent per-side filters, shared by the serial loop, the task
  // construction, and the merge.
  const auto static_candidate = [&](size_t x, size_t y) {
    return !constraints.EdgeRequired(x, y) && !(warm_active && !warm.Dirty(x, y, n));
  };

  if (pool == nullptr || pool->num_threads() <= 1) {
    // Serial reference: identical control flow to the parallel merge below,
    // with each side's subsets submitted as one batched FirstIndependent.
    for (size_t x = 0; x < n; ++x) {
      const auto adj = g.Adjacent(x);
      // PossibleDSep depends only on the graph, which changes only on edge
      // removal: compute it once per x and refresh after removals instead of
      // re-running the O(n^2) BFS for every neighbor.
      std::vector<size_t> pds_base = PossibleDSep(g, x);
      for (size_t y : adj) {
        if (!g.HasEdge(x, y) || !static_candidate(x, y)) {
          continue;
        }
        const PdsSweep sweep = BuildPdsSweep(FilterPdsPool(pds_base, y, constraints), options);
        BatchedCIRequest req;
        req.x = static_cast<int>(x);
        req.y = static_cast<int>(y);
        req.sets = &sweep.sets;
        req.alpha = alpha;
        const int idx = test.FirstIndependent(req);
        if (idx >= 0) {
          g.RemoveEdge(x, y);
          sepsets->Set(x, y, sweep.subsets[static_cast<size_t>(idx)]);
          pds_base = PossibleDSep(g, x);  // graph changed; refresh for later y
        }
      }
    }
    return;
  }

  // Parallel phase. Stage A/B run against a snapshot of the phase-entry
  // graph; the merge then replays the serial order exactly.
  const MixedGraph g0 = g;
  std::vector<PdsEdgeGroup> groups;
  std::vector<int32_t> group_of(n * n, -1);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b : g0.Adjacent(a)) {
      if (b <= a) {
        continue;
      }
      PdsEdgeGroup grp;
      grp.side[0].x = a;
      grp.side[0].y = b;
      grp.side[0].candidate = static_candidate(a, b);
      grp.side[1].x = b;
      grp.side[1].y = a;
      grp.side[1].candidate = static_candidate(b, a);
      if (!grp.side[0].candidate && !grp.side[1].candidate) {
        continue;
      }
      group_of[a * n + b] = static_cast<int32_t>(groups.size());
      groups.push_back(std::move(grp));
    }
  }

  // Stage A: Possible-D-SEP pools per source node, in parallel against g0.
  std::vector<char> need_pds(n, 0);
  for (const PdsEdgeGroup& grp : groups) {
    for (const PdsSide& side : grp.side) {
      if (side.candidate) {
        need_pds[side.x] = 1;
      }
    }
  }
  std::vector<size_t> sources;
  for (size_t v = 0; v < n; ++v) {
    if (need_pds[v] != 0) {
      sources.push_back(v);
    }
  }
  std::vector<std::vector<size_t>> pds0(n);
  pool->ParallelFor(sources.size(),
                    [&](size_t i) { pds0[sources[i]] = PossibleDSep(g0, sources[i]); });

  // Stage B: speculative batched sweeps, one task per remaining edge. The
  // second side runs only when the first found no independence (the serial
  // loop would otherwise have removed the edge before its turn) and sees the
  // first side's would-be cache stores through the overlay.
  pool->ParallelFor(groups.size(), [&](size_t gi) {
    TRACE_SPAN("fci.possible_dsep.sweep", "engine");
    PdsEdgeGroup& grp = groups[gi];
    PendingPValues overlay;
    for (int si = 0; si < 2; ++si) {
      PdsSide& side = grp.side[si];
      if (!side.candidate) {
        continue;
      }
      side.pool0 = FilterPdsPool(pds0[side.x], side.y, constraints);
      side.sweep = BuildPdsSweep(side.pool0, options);
      const BatchedCIRequest req = side.Request(alpha);
      test.SpeculateFirstIndependent(req, si == 1 ? &overlay : nullptr, &side.spec);
      side.speculated = true;
      if (side.spec.first_independent >= 0) {
        break;
      }
      if (si == 0) {
        test.AppendPendingOverlay(side.spec, req, &overlay);
      }
    }
  });

  // Deterministic merge: walk sides in the exact serial order, adopting a
  // speculation whenever the pool the serial loop would use still equals the
  // speculated one, re-sweeping inline otherwise.
  bool any_removed = false;
  for (size_t x = 0; x < n; ++x) {
    const auto adj0 = g0.Adjacent(x);
    bool have_live = false;
    std::vector<size_t> pds_live;
    for (size_t y : adj0) {
      if (!g.HasEdge(x, y)) {
        continue;  // removed by an earlier turn, exactly as in serial
      }
      const size_t a = std::min(x, y);
      const size_t b = std::max(x, y);
      const int32_t gi = group_of[a * n + b];
      if (gi < 0) {
        continue;
      }
      PdsEdgeGroup& grp = groups[static_cast<size_t>(gi)];
      PdsSide& side = grp.side[x < y ? 0 : 1];
      if (!side.candidate) {
        continue;
      }
      bool adopt = side.speculated;
      if (adopt && x > y && grp.side[0].candidate && !grp.side0_clean_adopt) {
        // The overlay this side consumed came from a side[0] sweep the
        // serial order did not reproduce; its hit pattern may be off by a
        // store, so re-sweep.
        adopt = false;
      }
      if (adopt && any_removed) {
        if (!have_live) {
          pds_live = PossibleDSep(g, x);
          have_live = true;
        }
        adopt = FilterPdsPool(pds_live, y, constraints) == side.pool0;
      }
      if (adopt) {
        test.AdoptSpeculation(side.spec, side.Request(alpha));
        side.resolved = true;
        if (side.spec.first_independent >= 0) {
          g.RemoveEdge(x, y);
          sepsets->Set(x, y,
                       side.sweep.subsets[static_cast<size_t>(side.spec.first_independent)]);
          any_removed = true;
          have_live = false;  // serial refreshes pds(x) after a removal
        } else if (x < y) {
          grp.side0_clean_adopt = true;
        }
        continue;
      }
      // Inputs changed under this side: discard the speculation and re-run
      // the sweep inline against the live graph, exactly as serial would.
      if (side.speculated) {
        test.DiscardSpeculation(side.spec);
        side.resolved = true;
      }
      if (!have_live) {
        pds_live = PossibleDSep(g, x);
        have_live = true;
      }
      const PdsSweep sweep = BuildPdsSweep(FilterPdsPool(pds_live, y, constraints), options);
      BatchedCIRequest req;
      req.x = static_cast<int>(x);
      req.y = static_cast<int>(y);
      req.sets = &sweep.sets;
      req.alpha = alpha;
      const int idx = test.FirstIndependent(req);
      if (idx >= 0) {
        g.RemoveEdge(x, y);
        sepsets->Set(x, y, sweep.subsets[static_cast<size_t>(idx)]);
        any_removed = true;
        have_live = false;
      }
    }
  }
  // Speculations the merge never reached (edge removed before its turn, or a
  // second side skipped because the first removed the edge) advanced the
  // inner test's counters while sweeping; roll those back.
  for (PdsEdgeGroup& grp : groups) {
    for (PdsSide& side : grp.side) {
      if (side.speculated && !side.resolved) {
        test.DiscardSpeculation(side.spec);
      }
    }
  }
}

}  // namespace

FciResult RunFci(const CITest& test, const StructuralConstraints& constraints, size_t num_vars,
                 const FciOptions& options, const SkeletonWarmStart& warm, ThreadPool* pool) {
  const long long calls_at_entry = test.calls;
  FciResult result;
  // One pool serves the skeleton levels and the Possible-D-SEP phase; a
  // caller-provided pool always wins.
  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr && options.skeleton.num_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(options.skeleton.num_threads);
    pool = local_pool.get();
  }
  obs::trace::Begin("fci.skeleton", "engine");
  SkeletonResult skel = LearnSkeleton(test, constraints, num_vars, options.skeleton, warm, pool);
  obs::trace::End("tests", static_cast<double>(skel.tests_performed));
  result.sepsets = std::move(skel.sepsets);
  MixedGraph& g = skel.graph;

  constraints.ApplyOrientations(&g);
  OrientVStructures(result.sepsets, &g);

  if (options.use_possible_dsep) {
    TRACE_SPAN("fci.possible_dsep", "engine");
    // Possible-D-SEP pruning: retest every remaining edge against subsets of
    // pds(x) \ {x, y}; remove on independence.
    const size_t n = num_vars;
    PossibleDSepPhase(test, constraints, num_vars, options, warm, pool, &g, &result.sepsets);
    // Reset remaining edges to circle-circle and re-orient with the final
    // adjacency structure.
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        if (g.HasEdge(a, b)) {
          g.AddCircleCircle(a, b);
        }
      }
    }
    constraints.ApplyOrientations(&g);
    OrientVStructures(result.sepsets, &g);
  }

  {
    TRACE_SPAN("fci.orient", "engine");
    ApplyOrientationRules(result.sepsets, &g);
    constraints.ApplyOrientations(&g);
  }

  result.tests_performed = test.calls - calls_at_entry;
  result.pag = std::move(g);
  return result;
}

}  // namespace unicorn
