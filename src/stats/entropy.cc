#include "stats/entropy.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace unicorn {
namespace {

double PlogP(double p) { return p > 0.0 ? -p * std::log(p) : 0.0; }

}  // namespace

double DistributionEntropy(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      total += w;
    }
  }
  if (total <= 0.0) {
    return 0.0;
  }
  double h = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      h += PlogP(w / total);
    }
  }
  return h;
}

std::vector<double> PlogPTable(size_t total) {
  std::vector<double> table(total + 1, 0.0);
  for (size_t c = 1; c <= total; ++c) {
    table[c] = PlogP(static_cast<double>(c) / static_cast<double>(total));
  }
  return table;
}

double CountEntropy(const std::vector<uint32_t>& counts, const std::vector<double>& plogp) {
  double h = 0.0;
  for (uint32_t c : counts) {
    if (c > 0) {
      h += plogp[c];
    }
  }
  return h;
}

double Entropy(const CodedColumn& x) {
  if (x.codes.empty()) {
    return 0.0;
  }
  std::vector<double> counts(static_cast<size_t>(std::max(1, x.cardinality)), 0.0);
  for (int c : x.codes) {
    counts[static_cast<size_t>(c)] += 1.0;
  }
  return DistributionEntropy(counts);
}

double JointEntropy(const CodedColumn& x, const CodedColumn& y) {
  if (x.codes.empty()) {
    return 0.0;
  }
  const size_t cy = static_cast<size_t>(std::max(1, y.cardinality));
  std::vector<double> counts(static_cast<size_t>(std::max(1, x.cardinality)) * cy, 0.0);
  for (size_t r = 0; r < x.codes.size(); ++r) {
    counts[static_cast<size_t>(x.codes[r]) * cy + static_cast<size_t>(y.codes[r])] += 1.0;
  }
  return DistributionEntropy(counts);
}

double MutualInformation(const CodedColumn& x, const CodedColumn& y) {
  const double mi = Entropy(x) + Entropy(y) - JointEntropy(x, y);
  return std::max(0.0, mi);
}

double ConditionalMutualInformation(const CodedColumn& x, const CodedColumn& y,
                                    const CodedColumn& z) {
  // I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z).
  // Build the (X,Y) pair column to reuse JointEntropy for the triple.
  CodedColumn xy;
  xy.codes.resize(x.codes.size());
  const int cy = std::max(1, y.cardinality);
  for (size_t r = 0; r < x.codes.size(); ++r) {
    xy.codes[r] = x.codes[r] * cy + y.codes[r];
  }
  xy.cardinality = std::max(1, x.cardinality) * cy;
  const double cmi = JointEntropy(x, z) + JointEntropy(y, z) - JointEntropy(xy, z) - Entropy(z);
  return std::max(0.0, cmi);
}

std::vector<std::vector<double>> JointDistribution(const CodedColumn& x, const CodedColumn& y) {
  const size_t cx = static_cast<size_t>(std::max(1, x.cardinality));
  const size_t cy = static_cast<size_t>(std::max(1, y.cardinality));
  std::vector<std::vector<double>> p(cx, std::vector<double>(cy, 0.0));
  if (x.codes.empty()) {
    return p;
  }
  const double inv = 1.0 / static_cast<double>(x.codes.size());
  for (size_t r = 0; r < x.codes.size(); ++r) {
    p[static_cast<size_t>(x.codes[r])][static_cast<size_t>(y.codes[r])] += inv;
  }
  return p;
}

double GreedyMinimumEntropyCoupling(const std::vector<std::vector<double>>& marginals) {
  if (marginals.empty()) {
    return 0.0;
  }
  std::vector<std::vector<double>> rows = marginals;
  std::vector<double> atoms;
  constexpr double kEps = 1e-12;
  // Greedily peel off the largest mass simultaneously available in every
  // marginal. Each peeled atom becomes one outcome of the coupling variable.
  while (true) {
    double peel = std::numeric_limits<double>::infinity();
    std::vector<size_t> argmax(rows.size());
    bool exhausted = false;
    for (size_t i = 0; i < rows.size(); ++i) {
      size_t best = 0;
      double best_mass = -1.0;
      for (size_t j = 0; j < rows[i].size(); ++j) {
        if (rows[i][j] > best_mass) {
          best_mass = rows[i][j];
          best = j;
        }
      }
      if (best_mass <= kEps) {
        exhausted = true;
        break;
      }
      argmax[i] = best;
      peel = std::min(peel, best_mass);
    }
    if (exhausted || peel <= kEps) {
      break;
    }
    atoms.push_back(peel);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i][argmax[i]] -= peel;
    }
  }
  return DistributionEntropy(atoms);
}

}  // namespace unicorn
