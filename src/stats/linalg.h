// Small dense linear-algebra helpers (the problems here are tiny: conditioning
// sets and regression designs of at most a few dozen columns).
#ifndef UNICORN_STATS_LINALG_H_
#define UNICORN_STATS_LINALG_H_

#include <cstddef>

namespace unicorn {

// Solves M X = rhs in place by Gaussian elimination with partial pivoting.
// `m` holds the n x n matrix row-major and is overwritten; `rhs` holds the
// n x nrhs right-hand sides row-major and is replaced by the solutions. One
// elimination serves every column, and each column's result is bit-equal
// to a one-column solve of it. Returns false when M is numerically
// singular, leaving both buffers unspecified.
bool SolveLinearSystem(size_t n, double* m, double* rhs, size_t nrhs = 1);

}  // namespace unicorn

#endif  // UNICORN_STATS_LINALG_H_
