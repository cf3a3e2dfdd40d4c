// Coordinate-format (triplet) accumulator.
//
// Callers that have triplets rather than element blocks — MatrixMarket
// input, the generators, ILU(k) fill, RCM permutation and the RDD row
// blocks — append them here; `build()` merges duplicates and emits a CSR
// matrix.  Finite element assembly does not come through here: it goes
// element store -> CSR (sparse::EbeStore::to_csr), with the same
// duplicate rule.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace pfem::sparse {

class CsrMatrix;

/// Triplet accumulator.  add() is O(1); build() is a counting sort by row
/// plus a stable sort of each row by column — linear in nnz for bounded
/// row lengths.
class CooBuilder {
 public:
  CooBuilder(index_t rows, index_t cols);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return i_.size(); }

  void reserve(std::size_t nnz);

  /// Append one triplet; duplicates are summed at build() time.
  void add(index_t i, index_t j, real_t v);

  /// Compress to CSR.  Duplicates of one (i, j) are summed from 0.0 in
  /// insertion order, so the result does not depend on how a sort
  /// happens to break ties.
  [[nodiscard]] CsrMatrix build() const;

 private:
  index_t rows_;
  index_t cols_;
  IndexVector i_;
  IndexVector j_;
  Vector v_;
};

}  // namespace pfem::sparse
