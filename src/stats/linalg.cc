#include "stats/linalg.h"

#include <algorithm>
#include <cmath>

namespace unicorn {

bool SolveLinearSystem(size_t n, double* m, double* rhs) {
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(m[r * n + col]) > std::fabs(m[pivot * n + col])) {
        pivot = r;
      }
    }
    if (std::fabs(m[pivot * n + col]) < 1e-12) {
      return false;
    }
    if (pivot != col) {
      std::swap_ranges(m + pivot * n, m + pivot * n + n, m + col * n);
      std::swap(rhs[pivot], rhs[col]);
    }
    const double* pivot_row = m + col * n;
    const double inv = 1.0 / pivot_row[col];
    for (size_t r = col + 1; r < n; ++r) {
      double* row = m + r * n;
      const double f = row[col] * inv;
      if (f == 0.0) {
        continue;
      }
      for (size_t c = col; c < n; ++c) {
        row[c] -= f * pivot_row[c];
      }
      rhs[r] -= f * rhs[col];
    }
  }
  // Back substitution, overwriting rhs from the last row up.
  for (size_t ri = n; ri-- > 0;) {
    double acc = rhs[ri];
    for (size_t c = ri + 1; c < n; ++c) {
      acc -= m[ri * n + c] * rhs[c];
    }
    rhs[ri] = acc / m[ri * n + ri];
  }
  return true;
}

}  // namespace unicorn
