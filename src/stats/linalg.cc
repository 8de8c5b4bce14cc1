#include "stats/linalg.h"

#include <algorithm>
#include <cmath>

namespace unicorn {

namespace {

// kCols > 0 fixes the column count at compile time, so the one- and
// two-column solves (OLS, partial correlation) run without per-row column
// loops; kCols == 0 reads it from `nrhs`.
template <size_t kCols>
bool Solve(size_t n, double* m, double* rhs, size_t nrhs) {
  if (kCols > 0) {
    nrhs = kCols;
  }
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
      std::swap_ranges(rhs + pivot * nrhs, rhs + pivot * nrhs + nrhs, rhs + col * nrhs);
    }
    const double* pivot_row = m + col * n;
    const double* pivot_rhs = rhs + col * nrhs;
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
      double* row_rhs = rhs + r * nrhs;
      for (size_t j = 0; j < nrhs; ++j) {
        row_rhs[j] -= f * pivot_rhs[j];
      }
    }
  }
  // Back substitution, overwriting rhs from the last row up; each column
  // sees the same operations in the same order as a one-column solve.
  for (size_t ri = n; ri-- > 0;) {
    for (size_t j = 0; j < nrhs; ++j) {
      double acc = rhs[ri * nrhs + j];
      for (size_t c = ri + 1; c < n; ++c) {
        acc -= m[ri * n + c] * rhs[c * nrhs + j];
      }
      rhs[ri * nrhs + j] = acc / m[ri * n + ri];
    }
  }
  return true;
}

}  // namespace

bool SolveLinearSystem(size_t n, double* m, double* rhs, size_t nrhs) {
  switch (nrhs) {
    case 1:
      return Solve<1>(n, m, rhs, nrhs);
    case 2:
      return Solve<2>(n, m, rhs, nrhs);
    default:
      return Solve<0>(n, m, rhs, nrhs);
  }
}

}  // namespace unicorn
