// Rank and linear correlation helpers used by the transferability analyses
// (Fig. 4: Spearman rank correlation between source/target model terms) and
// the incremental statistics of the causal-model engine.
#ifndef UNICORN_STATS_CORRELATION_H_
#define UNICORN_STATS_CORRELATION_H_

#include <cstddef>
#include <vector>

namespace unicorn {

class ThreadPool;

// Pearson linear correlation; 0 for degenerate input.
double PearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b);

// Spearman rank correlation (Pearson on mid-ranks).
double SpearmanCorrelation(const std::vector<double>& a, const std::vector<double>& b);

// Mid-ranks of a vector (ties get averaged ranks).
std::vector<double> MidRanks(const std::vector<double>& v);

// Mean absolute percentage error of predictions vs. truth (percent).
// Entries with |truth| < eps are skipped.
double Mape(const std::vector<double>& truth, const std::vector<double>& pred,
            double eps = 1e-9);

// Streaming first and second moments over a fixed set of variables.
//
// AddRow is a rank-1 update of the per-variable sums and the pairwise
// cross-moment matrix, so appending measurements never rebuilds anything.
// The causal-model engine uses the implied Pearson correlations to decide
// which variables' statistics "changed materially" since the last model
// refresh (paper §4 Stage IV, incremental update).
class StreamingMoments {
 public:
  explicit StreamingMoments(size_t num_vars = 0);

  void AddRow(const std::vector<double>& row);

  size_t NumVars() const { return num_vars_; }
  size_t NumRows() const { return n_; }

  double Mean(size_t v) const;
  double Variance(size_t v) const;  // population variance

  // Pearson correlation of (a, b) from the streaming moments; 0 when
  // degenerate or fewer than two rows.
  double Pearson(size_t a, size_t b) const;

  // The engine's staleness scan: all pairwise correlations in one sweep,
  // flattened over the upper triangle including the diagonal (index
  // advances b within a) into `out`, which is resized, so a buffer reused
  // across scans is allocated once. Diagonal entries are 1.0; with fewer
  // than two rows every off-diagonal entry is 0.0. Means and variances are
  // hoisted out of the pair loop but every per-pair expression is the one
  // Pearson(a, b) evaluates, so each entry is bit-identical to a per-pair
  // call.
  //
  // `drift` gets one entry per variable: with a non-empty `previous` (an
  // earlier scan, same layout) the largest |out - previous| over the pairs
  // involving the variable, otherwise 0.
  //
  // `pool` sweeps contiguous row ranges of about equal area on the caller
  // plus every worker (serially when null). Each range keeps its own drift
  // maxima and the ranges merge with max, which is exact, so `out` and
  // `drift` are bit-identical for every pool width.
  void PearsonUpperTri(const std::vector<double>& previous, std::vector<double>* out,
                       std::vector<double>* drift, ThreadPool* pool) const;

  // One range of that sweep: rows [a_begin, a_end) of the triangle, written
  // at their offsets into `out` (already sized to the whole triangle), and
  // their pairs' |out - previous| folded into drift[v] by max (drift holds
  // NumVars() entries; untouched when `previous` is empty).
  void PearsonRows(size_t a_begin, size_t a_end, const std::vector<double>& previous,
                   std::vector<double>* out, double* drift) const;

 private:
  size_t TriIndex(size_t a, size_t b) const;  // upper triangle incl. diagonal

  size_t num_vars_ = 0;
  size_t n_ = 0;
  // Moments accumulate on values shifted by the first observed row: E[x^2]
  // minus mean^2 on raw values cancels catastrophically for large-offset,
  // low-relative-variance columns (saturated counters), and the dirty-pair
  // detection built on these correlations would go blind there.
  std::vector<double> offset_;
  std::vector<double> sum_;
  std::vector<double> cross_;  // flattened upper-triangular sum of products
  std::vector<double> shifted_;  // AddRow scratch: row - offset, reused per call
};

}  // namespace unicorn

#endif  // UNICORN_STATS_CORRELATION_H_
