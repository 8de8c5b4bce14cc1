#include "stats/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/simd.h"
#include "util/thread_pool.h"

namespace unicorn {

double PearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n < 2) {
    return 0.0;
  }
  double ma = 0.0;
  double mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double saa = 0.0;
  double sbb = 0.0;
  double sab = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    saa += da * da;
    sbb += db * db;
    sab += da * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) {
    return 0.0;
  }
  return sab / std::sqrt(saa * sbb);
}

std::vector<double> MidRanks(const std::vector<double>& v) {
  const size_t n = v.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t i, size_t j) { return v[i] < v[j]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) {
      ++j;
    }
    const double mid = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) {
      ranks[order[k]] = mid;
    }
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& a, const std::vector<double>& b) {
  return PearsonCorrelation(MidRanks(a), MidRanks(b));
}

StreamingMoments::StreamingMoments(size_t num_vars)
    : num_vars_(num_vars),
      sum_(num_vars, 0.0),
      cross_(num_vars * (num_vars + 1) / 2, 0.0) {}

size_t StreamingMoments::TriIndex(size_t a, size_t b) const {
  if (a > b) {
    std::swap(a, b);
  }
  return a * num_vars_ - a * (a - 1) / 2 + (b - a);
}

void StreamingMoments::AddRow(const std::vector<double>& row) {
  if (n_ == 0) {
    offset_ = row;  // shift origin to the first row (see header)
  }
  // Shift the row once, then the per-variable update is a pure axpy into the
  // contiguous cross-moment slice. Each cross entry still receives the exact
  // product va * (row[b] - offset_[b]), so the moments are bit-identical to
  // the unbatched update regardless of vectorization.
  shifted_.resize(num_vars_);
  for (size_t b = 0; b < num_vars_; ++b) {
    shifted_[b] = row[b] - offset_[b];
  }
  for (size_t a = 0; a < num_vars_; ++a) {
    const double va = shifted_[a];
    sum_[a] += va;
    simd::Axpy(va, &shifted_[a], &cross_[TriIndex(a, a)], num_vars_ - a);
  }
  ++n_;
}

double StreamingMoments::Mean(size_t v) const {
  return n_ == 0 ? 0.0 : offset_[v] + sum_[v] / static_cast<double>(n_);
}

double StreamingMoments::Variance(size_t v) const {
  if (n_ == 0) {
    return 0.0;
  }
  const double shifted_mean = sum_[v] / static_cast<double>(n_);
  const double var =
      cross_[TriIndex(v, v)] / static_cast<double>(n_) - shifted_mean * shifted_mean;
  return var > 0.0 ? var : 0.0;
}

double StreamingMoments::Pearson(size_t a, size_t b) const {
  if (n_ < 2) {
    return 0.0;
  }
  const double ma = sum_[a] / static_cast<double>(n_);
  const double mb = sum_[b] / static_cast<double>(n_);
  const double cov = cross_[TriIndex(a, b)] / static_cast<double>(n_) - ma * mb;
  const double va = Variance(a);
  const double vb = Variance(b);
  if (va <= 1e-15 || vb <= 1e-15) {
    return 0.0;
  }
  double r = cov / std::sqrt(va * vb);
  return std::max(-1.0, std::min(1.0, r));
}

void StreamingMoments::PearsonUpperTri(const std::vector<double>& previous,
                                       std::vector<double>* out, std::vector<double>* drift,
                                       ThreadPool* pool) const {
  const size_t total = num_vars_ * (num_vars_ + 1) / 2;
  out->resize(total);
  drift->assign(num_vars_, 0.0);
  const size_t ranges =
      pool == nullptr ? 1 : std::min(num_vars_, static_cast<size_t>(pool->num_workers()) + 1);
  if (ranges <= 1) {
    PearsonRows(0, num_vars_, previous, out, drift->data());
    return;
  }
  // Row a holds num_vars_ - a entries; cut where the running area crosses
  // each range's share.
  std::vector<size_t> bounds(ranges + 1, num_vars_);
  bounds[0] = 0;
  size_t area = 0;
  for (size_t a = 0, r = 1; a < num_vars_ && r < ranges; ++a) {
    area += num_vars_ - a;
    if (area * ranges >= r * total) {
      bounds[r++] = a + 1;
    }
  }
  // Range 0 folds into `drift` itself; the others into their own slices.
  std::vector<double> partial((ranges - 1) * num_vars_, 0.0);
  pool->ParallelFor(ranges, [&](size_t i) {
    double* range_drift = i == 0 ? drift->data() : &partial[(i - 1) * num_vars_];
    PearsonRows(bounds[i], bounds[i + 1], previous, out, range_drift);
  });
  for (size_t i = 1; i < ranges; ++i) {
    const double* range_drift = &partial[(i - 1) * num_vars_];
    for (size_t v = 0; v < num_vars_; ++v) {
      if (range_drift[v] > (*drift)[v]) {
        (*drift)[v] = range_drift[v];
      }
    }
  }
}

void StreamingMoments::PearsonRows(size_t a_begin, size_t a_end,
                                   const std::vector<double>& previous, std::vector<double>* out,
                                   double* drift) const {
  if (a_begin >= a_end) {
    return;
  }
  // Hoist the O(V) quantities of the columns this range reads; each is the
  // same double Pearson(a, b) derives per call, so the per-pair expressions
  // below match it bit for bit. mean[k] and var[k] belong to a_begin + k.
  std::vector<double> mean(num_vars_ - a_begin);
  std::vector<double> var(num_vars_ - a_begin);
  if (n_ >= 2) {
    for (size_t v = a_begin; v < num_vars_; ++v) {
      mean[v - a_begin] = sum_[v] / static_cast<double>(n_);
      var[v - a_begin] = Variance(v);
    }
  }
  for (size_t a = a_begin; a < a_end; ++a) {
    // Row a: entry k is the pair (a, a + k).
    const size_t tri = TriIndex(a, a);
    const size_t len = num_vars_ - a;
    double* row = out->data() + tri;
    row[0] = 1.0;
    if (n_ < 2) {
      std::fill(row + 1, row + len, 0.0);
    } else {
      const double ma = mean[a - a_begin];
      const double va = var[a - a_begin];
      const double* mb = &mean[a - a_begin];
      const double* vb = &var[a - a_begin];
      const double* cross = &cross_[tri];
      UNICORN_SIMD_LOOP
      for (size_t k = 1; k < len; ++k) {
        const double cov = cross[k] / static_cast<double>(n_) - ma * mb[k];
        double r = 0.0;
        if (va > 1e-15 && vb[k] > 1e-15) {
          r = std::max(-1.0, std::min(1.0, cov / std::sqrt(va * vb[k])));
        }
        row[k] = r;
      }
    }
    if (!previous.empty()) {
      const double* prev = previous.data() + tri;
      double* drift_b = drift + a;
      double drift_a = drift[a];
      for (size_t k = 1; k < len; ++k) {
        const double d = std::fabs(row[k] - prev[k]);
        if (d > drift_a) {
          drift_a = d;
        }
        if (d > drift_b[k]) {
          drift_b[k] = d;
        }
      }
      drift[a] = drift_a;
    }
  }
}

double Mape(const std::vector<double>& truth, const std::vector<double>& pred, double eps) {
  const size_t n = std::min(truth.size(), pred.size());
  double total = 0.0;
  size_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(truth[i]) < eps) {
      continue;
    }
    total += std::fabs((truth[i] - pred[i]) / truth[i]);
    ++used;
  }
  return used == 0 ? 0.0 : 100.0 * total / static_cast<double>(used);
}

}  // namespace unicorn
