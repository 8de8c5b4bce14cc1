#include "stats/regression.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "stats/correlation.h"
#include "stats/linalg.h"

namespace unicorn {
namespace {

// Evaluates one term (product of columns) for every row.
std::vector<double> TermColumn(const DataTable& table, const RegressionTerm& term) {
  std::vector<double> col(table.NumRows(), 1.0);
  for (size_t v : term.vars) {
    const auto& src = table.Col(v);
    for (size_t r = 0; r < col.size(); ++r) {
      col[r] *= src[r];
    }
  }
  return col;
}

// Residual sum of squares of a fitted model.
double Rss(const DataTable& table, const InfluenceModel& model, size_t target_var) {
  const auto& y = table.Col(target_var);
  double rss = 0.0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const double e = y[r] - model.Predict(table.Row(r));
    rss += e * e;
  }
  return rss;
}

// Bayesian information criterion: n*ln(rss/n) + k*ln(n).
double Bic(double rss, size_t n, size_t k) {
  const double safe_rss = std::max(rss, 1e-12);
  return static_cast<double>(n) * std::log(safe_rss / static_cast<double>(n)) +
         static_cast<double>(k) * std::log(static_cast<double>(n));
}

// Generates candidate terms up to max_degree over the feature variables,
// keeping only the `max_candidates` with highest |correlation| to the target.
std::vector<RegressionTerm> CandidateTerms(const DataTable& table,
                                           const std::vector<size_t>& feature_vars,
                                           size_t target_var, const StepwiseOptions& options) {
  std::vector<RegressionTerm> all;
  for (size_t i = 0; i < feature_vars.size(); ++i) {
    all.push_back({{feature_vars[i]}});
  }
  if (options.max_degree >= 2) {
    for (size_t i = 0; i < feature_vars.size(); ++i) {
      for (size_t j = i + 1; j < feature_vars.size(); ++j) {
        all.push_back({{feature_vars[i], feature_vars[j]}});
      }
    }
  }
  if (options.max_degree >= 3) {
    for (size_t i = 0; i < feature_vars.size(); ++i) {
      for (size_t j = i + 1; j < feature_vars.size(); ++j) {
        for (size_t k = j + 1; k < feature_vars.size(); ++k) {
          all.push_back({{feature_vars[i], feature_vars[j], feature_vars[k]}});
        }
      }
    }
  }
  if (all.size() <= static_cast<size_t>(options.max_candidates)) {
    return all;
  }
  // Score by marginal correlation with the target; always keep singletons.
  const auto& y = table.Col(target_var);
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(all.size());
  for (size_t t = 0; t < all.size(); ++t) {
    double score = std::numeric_limits<double>::infinity();  // singletons first
    if (all[t].vars.size() > 1) {
      score = std::fabs(PearsonCorrelation(TermColumn(table, all[t]), y));
    }
    scored.push_back({score, t});
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<RegressionTerm> kept;
  kept.reserve(static_cast<size_t>(options.max_candidates));
  for (int i = 0; i < options.max_candidates; ++i) {
    kept.push_back(all[scored[static_cast<size_t>(i)].second]);
  }
  return kept;
}

}  // namespace

std::string RegressionTerm::Name(const DataTable& table) const {
  std::string out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i) {
      out += " x ";
    }
    out += table.Var(vars[i]).name;
  }
  return out;
}

double InfluenceModel::Predict(const std::vector<double>& row) const {
  double y = coefficients.empty() ? 0.0 : coefficients[0];
  for (size_t t = 0; t < terms.size(); ++t) {
    double prod = 1.0;
    for (size_t v : terms[t].vars) {
      prod *= row[v];
    }
    y += coefficients[t + 1] * prod;
  }
  return y;
}

std::vector<double> InfluenceModel::PredictAll(const DataTable& table) const {
  std::vector<double> out;
  out.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    out.push_back(Predict(table.Row(r)));
  }
  return out;
}

InfluenceModel FitOls(const DataTable& table, const std::vector<RegressionTerm>& terms,
                      size_t target_var, double ridge) {
  const size_t n = table.NumRows();
  const size_t k = terms.size() + 1;  // + intercept
  // Design matrix columns.
  std::vector<std::vector<double>> design;
  design.reserve(k);
  design.emplace_back(n, 1.0);
  for (const auto& t : terms) {
    design.push_back(TermColumn(table, t));
  }
  // Normal equations: (X'X + ridge I) b = X'y, X'X row-major.
  std::vector<double> xtx(k * k, 0.0);
  std::vector<double> xty(k, 0.0);
  const auto& y = table.Col(target_var);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a; b < k; ++b) {
      double acc = 0.0;
      for (size_t r = 0; r < n; ++r) {
        acc += design[a][r] * design[b][r];
      }
      xtx[a * k + b] = acc;
      xtx[b * k + a] = acc;
    }
    xtx[a * k + a] += ridge;
    double acc = 0.0;
    for (size_t r = 0; r < n; ++r) {
      acc += design[a][r] * y[r];
    }
    xty[a] = acc;
  }
  InfluenceModel model;
  model.terms = terms;
  if (SolveLinearSystem(k, xtx.data(), xty.data())) {
    model.coefficients = std::move(xty);
  } else {
    model.coefficients.assign(k, 0.0);
    // Fall back to predicting the mean.
    double mean = 0.0;
    for (size_t r = 0; r < n; ++r) {
      mean += y[r];
    }
    model.coefficients[0] = n > 0 ? mean / static_cast<double>(n) : 0.0;
  }
  // Training fit statistics.
  double rss = 0.0;
  double mean_y = 0.0;
  for (size_t r = 0; r < n; ++r) {
    mean_y += y[r];
  }
  mean_y = n > 0 ? mean_y / static_cast<double>(n) : 0.0;
  double tss = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double e = y[r] - model.Predict(table.Row(r));
    rss += e * e;
    tss += (y[r] - mean_y) * (y[r] - mean_y);
  }
  model.train_rmse = n > 0 ? std::sqrt(rss / static_cast<double>(n)) : 0.0;
  model.train_r2 = tss > 0.0 ? 1.0 - rss / tss : 0.0;
  return model;
}

InfluenceModel FitStepwiseRegression(const DataTable& table,
                                     const std::vector<size_t>& feature_vars, size_t target_var,
                                     const StepwiseOptions& options) {
  const size_t n = table.NumRows();
  std::vector<RegressionTerm> candidates = CandidateTerms(table, feature_vars, target_var, options);
  std::vector<RegressionTerm> selected;
  std::vector<bool> used(candidates.size(), false);

  InfluenceModel current = FitOls(table, selected, target_var, options.ridge);
  double current_bic = Bic(Rss(table, current, target_var), n, 1);

  // Forward selection.
  while (selected.size() < static_cast<size_t>(options.max_terms)) {
    double best_bic = current_bic;
    size_t best_idx = candidates.size();
    InfluenceModel best_model;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (used[c]) {
        continue;
      }
      std::vector<RegressionTerm> trial = selected;
      trial.push_back(candidates[c]);
      InfluenceModel m = FitOls(table, trial, target_var, options.ridge);
      const double bic = Bic(Rss(table, m, target_var), n, trial.size() + 1);
      if (bic < best_bic - options.min_bic_gain) {
        best_bic = bic;
        best_idx = c;
        best_model = std::move(m);
      }
    }
    if (best_idx == candidates.size()) {
      break;
    }
    used[best_idx] = true;
    selected.push_back(candidates[best_idx]);
    current = std::move(best_model);
    current_bic = best_bic;
  }

  // Backward elimination.
  bool removed = true;
  while (removed && !selected.empty()) {
    removed = false;
    for (size_t t = 0; t < selected.size(); ++t) {
      std::vector<RegressionTerm> trial;
      trial.reserve(selected.size() - 1);
      for (size_t u = 0; u < selected.size(); ++u) {
        if (u != t) {
          trial.push_back(selected[u]);
        }
      }
      InfluenceModel m = FitOls(table, trial, target_var, options.ridge);
      const double bic = Bic(Rss(table, m, target_var), n, trial.size() + 1);
      if (bic < current_bic - options.min_bic_gain) {
        selected = std::move(trial);
        current = std::move(m);
        current_bic = bic;
        removed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace unicorn
