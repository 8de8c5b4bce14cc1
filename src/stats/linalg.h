// Small dense linear-algebra helpers (the problems here are tiny: conditioning
// sets and regression designs of at most a few dozen columns).
#ifndef UNICORN_STATS_LINALG_H_
#define UNICORN_STATS_LINALG_H_

#include <cstddef>

namespace unicorn {

// Solves M x = rhs in place by Gaussian elimination with partial pivoting.
// `m` holds the n x n matrix row-major and is overwritten; `rhs` (n entries)
// is replaced by the solution. Returns false when M is numerically singular,
// leaving both buffers unspecified.
bool SolveLinearSystem(size_t n, double* m, double* rhs);

}  // namespace unicorn

#endif  // UNICORN_STATS_LINALG_H_
