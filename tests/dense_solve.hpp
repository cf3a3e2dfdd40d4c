// The tests' reference solve: A x = b by dense LU with partial pivoting.
// It shares no code with any Krylov path, so every solver — EDD, RDD,
// PCG, and the one-process runs (solve_rdd on a one-part partition) — is
// checked against an independent answer.  For systems of at most a few
// hundred unknowns.
#pragma once

#include <span>

#include "common/types.hpp"
#include "la/dense.hpp"
#include "sparse/csr.hpp"

namespace pfem {

inline Vector dense_solve(const sparse::CsrMatrix& a,
                          std::span<const real_t> b) {
  la::DenseMatrix ad(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) ad(i, cols[k]) += vals[k];
  }
  Vector x(b.begin(), b.end());
  la::lu_solve(ad, x);
  return x;
}

}  // namespace pfem
