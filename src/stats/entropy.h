// Entropy, mutual information, and minimum-entropy coupling on coded data.
//
// These are the information-theoretic primitives behind (a) the G-test of
// conditional independence used while pruning the causal skeleton and (b) the
// entropic edge-orientation step (Kocaoglu et al.) that resolves the circle
// marks FCI leaves behind.
#ifndef UNICORN_STATS_ENTROPY_H_
#define UNICORN_STATS_ENTROPY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/discretize.h"

namespace unicorn {

// Shannon entropy (nats) of a distribution given as non-negative weights
// (normalized internally; zero entries ignored).
double DistributionEntropy(const std::vector<double>& weights);

// Entropy terms by integer count: entry c of the returned table (c in
// [0, total]) is the term DistributionEntropy adds for a weight of c when
// the positive weights sum to `total`, -(c/total) log(c/total), and entry 0
// is 0. Built once per row count, it replaces one log per contingency cell.
std::vector<double> PlogPTable(size_t total);

// DistributionEntropy of integer counts whose sum is the `plogp` table's
// total, bit-identical to it: counts are exact in doubles, so the table
// entries are the very terms it would add, in the same order.
double CountEntropy(const std::vector<uint32_t>& counts, const std::vector<double>& plogp);

// Empirical entropy (nats) of a coded column.
double Entropy(const CodedColumn& x);

// Empirical joint entropy H(X, Y).
double JointEntropy(const CodedColumn& x, const CodedColumn& y);

// Empirical mutual information I(X; Y) >= 0.
double MutualInformation(const CodedColumn& x, const CodedColumn& y);

// Empirical conditional mutual information I(X; Y | Z) >= 0.
double ConditionalMutualInformation(const CodedColumn& x, const CodedColumn& y,
                                    const CodedColumn& z);

// Empirical joint distribution p(x, y) as a matrix [card_x][card_y].
std::vector<std::vector<double>> JointDistribution(const CodedColumn& x, const CodedColumn& y);

// Greedy minimum-entropy coupling (Kocaoglu et al., AAAI'17).
//
// Given m marginal distributions (rows of `marginals`, each summing to ~1),
// greedily constructs a joint distribution whose marginals match and whose
// entropy is (approximately) minimal; returns the entropy of that coupling.
// Used to score candidate causal directions: for X -> Y the exogenous noise E
// must couple the conditionals {P(Y | X = x)}, so H(E) is approximated by the
// minimum-entropy coupling of those conditionals.
double GreedyMinimumEntropyCoupling(const std::vector<std::vector<double>>& marginals);

}  // namespace unicorn

#endif  // UNICORN_STATS_ENTROPY_H_
