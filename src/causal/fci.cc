#include "causal/fci.h"

#include <algorithm>
#include <functional>

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
  // Every unshielded triple x *-* z *-* y with z not in sepset(x, y) puts an
  // arrow at z on x-z, but only over a circle: background-knowledge tails
  // (options) stay tails to keep constraints satisfied. So a circle at z on
  // x-z becomes an arrow exactly when some triple through x fires, and the
  // search for one around centre z stops at the first. Adjacency never
  // changes here and only centre z writes marks at z's end, so the result
  // does not depend on visit order.
  for (size_t z = 0; z < n; ++z) {
    const std::vector<size_t> nbrs = g->Adjacent(z);
    for (const size_t x : nbrs) {
      for (size_t j = 0; j < nbrs.size() && g->HasCircleAt(x, z); ++j) {
        const size_t y = nbrs[j];
        if (y == x || g->HasEdge(x, y)) {
          continue;  // x itself, or a shielded triple
        }
        const auto s = sepsets.Get(x, y);
        if (!s.has_value() || !s->Contains(z)) {
          PutArrow(g, x, z);
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
  // Vertices on the current path. extend() restores its own marks, so only
  // the three seeds are cleared after each candidate.
  std::vector<bool> on_path(n, false);
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
        if (!g->IsDirected(a, c) || !g->HasArrowAt(b, a)) {
          continue;
        }
        // DFS backwards from a; the path so far is <v, ..., a, b, c>.
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
        on_path[a] = false;
        on_path[b] = false;
        on_path[c] = false;
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
// Walks sources x in order, neighbors y in adjacency order, and for each
// remaining edge sweeps subsets of pds(x)\{y} by size until one renders the
// pair independent; a removal immediately refreshes pds(x) for later
// neighbors. Unlike the PC-stable skeleton levels, later pairs therefore
// depend on earlier removals, so the phase runs serially: sweeps run in
// parallel against a graph snapshot would have to be revalidated in this
// order, and on PDS-heavy workloads most of them would be re-run.

// Pool of conditioning candidates for side (x, y): pds(x) minus {y} and the
// objective sinks.
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

// Cap on the conditioning subsets one side examines per size.
constexpr size_t kMaxPdsSubsets = 64;

// One side's whole sweep, precomputed: the subsets in examination order
// (sizes 1..max_pds_cond_size, lexicographic within a size, at most
// kMaxPdsSubsets per size), plus their int form for the CI request.
struct PdsSweep {
  std::vector<std::vector<size_t>> subsets;  // for SepsetMap::Set
  std::vector<std::vector<int>> sets;        // for BatchedCIRequest
};

PdsSweep BuildPdsSweep(const std::vector<size_t>& pool, const FciOptions& options) {
  PdsSweep sweep;
  for (int d = 1; d <= options.max_pds_cond_size; ++d) {
    for (auto& subset : Subsets(pool, static_cast<size_t>(d), kMaxPdsSubsets)) {
      sweep.sets.emplace_back(subset.begin(), subset.end());
      sweep.subsets.push_back(std::move(subset));
    }
  }
  return sweep;
}

void PossibleDSepPhase(const CITest& test, const StructuralConstraints& constraints,
                       size_t num_vars, const FciOptions& options,
                       const SkeletonWarmStart& warm, MixedGraph* graph, SepsetMap* sepsets) {
  MixedGraph& g = *graph;
  const size_t n = num_vars;
  const bool warm_active = warm.Active();
  for (size_t x = 0; x < n; ++x) {
    const auto adj = g.Adjacent(x);
    // PossibleDSep depends only on the graph, which changes only on edge
    // removal: compute it once per x and refresh after removals instead of
    // re-running the O(n^2) BFS for every neighbor.
    std::vector<size_t> pds_base = PossibleDSep(g, x);
    for (size_t y : adj) {
      if (!g.HasEdge(x, y) || constraints.EdgeRequired(x, y) ||
          (warm_active && !warm.Dirty(x, y, n))) {
        continue;
      }
      // Each side's subsets go to the test as one batched FirstIndependent.
      const PdsSweep sweep = BuildPdsSweep(FilterPdsPool(pds_base, y, constraints), options);
      BatchedCIRequest req;
      req.x = static_cast<int>(x);
      req.y = static_cast<int>(y);
      req.sets = &sweep.sets;
      req.alpha = options.skeleton.alpha;
      const int idx = test.FirstIndependent(req);
      if (idx >= 0) {
        g.RemoveEdge(x, y);
        sepsets->Set(x, y, sweep.subsets[static_cast<size_t>(idx)]);
        pds_base = PossibleDSep(g, x);  // graph changed; refresh for later y
      }
    }
  }
}

}  // namespace

FciResult RunFci(const CITest& test, const StructuralConstraints& constraints, size_t num_vars,
                 const FciOptions& options, const SkeletonWarmStart& warm, ThreadPool* pool) {
  const long long calls_at_entry = test.calls.Value();
  FciResult result;
  // The pool serves the skeleton levels (Possible-D-SEP runs serially).
  obs::trace::Begin("fci.skeleton", "engine");
  SkeletonResult skel = LearnSkeleton(test, constraints, num_vars, options.skeleton, warm, pool);
  obs::trace::End("tests", static_cast<double>(skel.tests_performed));
  result.sepsets = std::move(skel.sepsets);
  MixedGraph& g = skel.graph;

  {
    TRACE_SPAN("fci.vstructs", "engine");
    constraints.ApplyOrientations(&g);
    OrientVStructures(result.sepsets, &g);
  }

  if (options.use_possible_dsep) {
    TRACE_SPAN("fci.possible_dsep", "engine");
    // Possible-D-SEP pruning: retest every remaining edge against subsets of
    // pds(x) \ {x, y}; remove on independence.
    const size_t n = num_vars;
    PossibleDSepPhase(test, constraints, num_vars, options, warm, &g, &result.sepsets);
    // Reset remaining edges to circle-circle and re-orient with the final
    // adjacency structure.
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        if (g.HasEdge(a, b)) {
          g.AddCircleCircle(a, b);
        }
      }
    }
    TRACE_SPAN("fci.vstructs", "engine");
    constraints.ApplyOrientations(&g);
    OrientVStructures(result.sepsets, &g);
  }

  {
    TRACE_SPAN("fci.orient", "engine");
    ApplyOrientationRules(result.sepsets, &g);
    constraints.ApplyOrientations(&g);
  }

  result.tests_performed = test.calls.Value() - calls_at_entry;
  result.pag = std::move(g);
  return result;
}

}  // namespace unicorn
