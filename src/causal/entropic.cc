#include "causal/entropic.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/trace.h"
#include "stats/entropy.h"
#include "util/thread_pool.h"

namespace unicorn {

double ExogenousNoiseEntropy(const CodedColumn& x, const CodedColumn& y) {
  const auto joint = JointDistribution(x, y);
  // Rows of the coupling input: P(Y | X = x) for every x with support.
  std::vector<std::vector<double>> conditionals;
  for (const auto& row : joint) {
    double px = 0.0;
    for (double v : row) {
      px += v;
    }
    if (px <= 1e-12) {
      continue;
    }
    std::vector<double> cond(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      cond[i] = row[i] / px;
    }
    conditionals.push_back(std::move(cond));
  }
  return GreedyMinimumEntropyCoupling(conditionals);
}

EdgeDecision DecideEdgeDirection(const CodedColumn& x, const CodedColumn& y,
                                 const EntropicOptions& options, Rng* rng) {
  EdgeDecision decision;
  const double hx = Entropy(x);
  const double hy = Entropy(y);

  // Step 1: try to explain the dependence with a low-entropy latent cause.
  const auto joint = JointDistribution(x, y);
  const LatentSearchResult latent = LatentSearch(joint, options.latent, rng);
  decision.latent_entropy = latent.latent_entropy;
  const double theta_r = options.confounder_threshold * std::min(hx, hy);
  if (latent.independence_achieved && latent.latent_entropy < theta_r) {
    decision.latent_found = true;
    decision.kind = EdgeDecision::Kind::kBidirected;
    return decision;
  }

  // Step 2: direction with lower total entropic complexity.
  decision.entropy_forward = hx + ExogenousNoiseEntropy(x, y);
  decision.entropy_backward = hy + ExogenousNoiseEntropy(y, x);
  decision.kind = decision.entropy_forward <= decision.entropy_backward
                      ? EdgeDecision::Kind::kForward
                      : EdgeDecision::Kind::kBackward;
  return decision;
}

namespace {

// Would adding the directed edge from -> to create a directed cycle?
bool CreatesCycle(const MixedGraph& g, size_t from, size_t to) {
  // Cycle iff `from` is reachable from `to` via directed edges.
  std::vector<bool> seen(g.NumNodes(), false);
  std::vector<size_t> stack = {to};
  seen[to] = true;
  while (!stack.empty()) {
    const size_t v = stack.back();
    stack.pop_back();
    if (v == from) {
      return true;
    }
    for (size_t c : g.Children(v)) {
      if (!seen[c]) {
        seen[c] = true;
        stack.push_back(c);
      }
    }
  }
  return false;
}

}  // namespace

void ResolveWithEntropy(const DataTable& data, const StructuralConstraints& constraints,
                        const EntropicOptions& options, Rng* rng, MixedGraph* pag,
                        const EdgeDecisionMap* reuse, EdgeDecisionMap* decisions_out,
                        ThreadPool* pool) {
  const size_t n = pag->NumNodes();
  const auto& roles = constraints.roles();

  // Phase 1 (serial): enumerate the pairs that will need a decision. The
  // mutation loop below only ever rewrites the pair's own edge, so whether a
  // pair calls decide() is fully determined by the entry marks — the set can
  // be fixed up front. Each fresh pair forks its own Rng stream from `rng`
  // here, in deterministic pair order, so the scoring phase can run the
  // pairs in any order (or concurrently) without perturbing the draws.
  struct FreshPair {
    size_t a;
    size_t b;
    Rng rng;
    EdgeDecision decision;
  };
  std::vector<FreshPair> fresh;
  EdgeDecisionMap computed;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (!pag->HasEdge(a, b)) {
        continue;
      }
      const Mark at_a = pag->EndMark(b, a);
      const Mark at_b = pag->EndMark(a, b);
      const bool needs_decision = at_a == Mark::kCircle || at_b == Mark::kCircle ||
                                  (at_a == Mark::kTail && at_b == Mark::kTail);
      if (!needs_decision) {
        continue;
      }
      if (reuse != nullptr) {
        auto it = reuse->find({a, b});
        if (it != reuse->end()) {
          computed[{a, b}] = it->second;
          continue;
        }
      }
      fresh.push_back(FreshPair{a, b, rng->Fork(), EdgeDecision{}});
    }
  }

  // Phase 2 (parallel): discretize the endpoint columns the fresh pairs
  // need, then score each pair on its own forked stream. A warm refresh that
  // reuses every pair decision never pays for coding the table at all.
  std::vector<std::unique_ptr<CodedColumn>> coded(data.NumVars());
  if (!fresh.empty()) {
    std::vector<size_t> vars;
    {
      std::vector<char> need(data.NumVars(), 0);
      for (const FreshPair& fp : fresh) {
        need[fp.a] = 1;
        need[fp.b] = 1;
      }
      for (size_t v = 0; v < data.NumVars(); ++v) {
        if (need[v] != 0) {
          vars.push_back(v);
        }
      }
    }
    auto code_var = [&](size_t i) {
      const size_t v = vars[i];
      coded[v] = std::make_unique<CodedColumn>(
          DiscretizeColumn(data.Col(v), data.Var(v).type, options.max_bins));
    };
    auto score_pair = [&](size_t i) {
      TRACE_SPAN("engine.entropic.score", "engine");
      FreshPair& fp = fresh[i];
      fp.decision = DecideEdgeDirection(*coded[fp.a], *coded[fp.b], options, &fp.rng);
    };
    if (pool != nullptr) {
      pool->ParallelFor(vars.size(), code_var);
      pool->ParallelFor(fresh.size(), score_pair);
    } else {
      for (size_t i = 0; i < vars.size(); ++i) {
        code_var(i);
      }
      for (size_t i = 0; i < fresh.size(); ++i) {
        score_pair(i);
      }
    }
    for (FreshPair& fp : fresh) {
      computed[{fp.a, fp.b}] = fp.decision;
    }
  }

  // Phase 3 (serial): the original mutation loop, with decide() now a pure
  // lookup into the precomputed decisions.
  auto decide = [&](size_t a, size_t b) -> const EdgeDecision& {
    const EdgeDecision& d = computed.at({a, b});
    if (decisions_out != nullptr) {
      (*decisions_out)[{a, b}] = d;
    }
    return d;
  };

  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      if (!pag->HasEdge(a, b)) {
        continue;
      }
      const Mark at_a = pag->EndMark(b, a);
      const Mark at_b = pag->EndMark(a, b);
      if (at_a != Mark::kCircle && at_b != Mark::kCircle) {
        // Already fully resolved; normalize tail-tail leftovers to a
        // directed edge chosen entropically (tail-tail is not a valid ADMG
        // edge and can only arise from degenerate rule interactions).
        if (at_a == Mark::kTail && at_b == Mark::kTail) {
          const EdgeDecision d = decide(a, b);
          const bool fwd_allowed =
              roles[b] != VarRole::kOption && roles[a] != VarRole::kObjective;
          const bool bwd_allowed =
              roles[a] != VarRole::kOption && roles[b] != VarRole::kObjective;
          if (d.kind == EdgeDecision::Kind::kForward && fwd_allowed &&
              !CreatesCycle(*pag, a, b)) {
            pag->AddDirected(a, b);
          } else if (bwd_allowed && !CreatesCycle(*pag, b, a)) {
            pag->AddDirected(b, a);
          } else if (fwd_allowed && !CreatesCycle(*pag, a, b)) {
            pag->AddDirected(a, b);
          } else {
            pag->AddBidirected(a, b);
          }
        }
        continue;
      }

      // Allowed resolutions given the non-circle mark and the roles:
      // nothing points into an option, nothing points out of an objective.
      const bool a_can_be_head = at_a == Mark::kCircle && roles[a] != VarRole::kOption;
      const bool b_can_be_head = at_b == Mark::kCircle && roles[b] != VarRole::kOption;
      const bool forward_ok = (at_b == Mark::kCircle || at_b == Mark::kArrow) &&
                              roles[b] != VarRole::kOption && roles[a] != VarRole::kObjective;
      const bool backward_ok = (at_a == Mark::kCircle || at_a == Mark::kArrow) &&
                               roles[a] != VarRole::kOption && roles[b] != VarRole::kObjective;

      const EdgeDecision d = decide(a, b);

      if (d.latent_found && a_can_be_head && b_can_be_head) {
        pag->AddBidirected(a, b);
        continue;
      }
      const bool prefer_forward = d.kind != EdgeDecision::Kind::kBackward;
      if (prefer_forward && forward_ok && !CreatesCycle(*pag, a, b)) {
        pag->AddDirected(a, b);
      } else if (backward_ok && !CreatesCycle(*pag, b, a)) {
        pag->AddDirected(b, a);
      } else if (forward_ok && !CreatesCycle(*pag, a, b)) {
        pag->AddDirected(a, b);
      } else if (a_can_be_head && b_can_be_head) {
        pag->AddBidirected(a, b);
      } else if (roles[a] == VarRole::kOption || roles[b] == VarRole::kObjective) {
        pag->AddDirected(a, b);
      } else {
        pag->AddDirected(b, a);
      }
    }
  }
}

}  // namespace unicorn
