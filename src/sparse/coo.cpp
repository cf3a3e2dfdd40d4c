#include "sparse/coo.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace pfem::sparse {

CooBuilder::CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  PFEM_CHECK(rows >= 0 && cols >= 0);
}

void CooBuilder::reserve(std::size_t nnz) {
  i_.reserve(nnz);
  j_.reserve(nnz);
  v_.reserve(nnz);
}

void CooBuilder::add(index_t i, index_t j, real_t v) {
  PFEM_DEBUG_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
  i_.push_back(i);
  j_.push_back(j);
  v_.push_back(v);
}

CsrMatrix CooBuilder::build() const {
  const std::size_t n = i_.size();
  const auto rows = static_cast<std::size_t>(rows_);

  // Counting sort by row: order[start[r] .. start[r+1]) lists row r's
  // triplets in insertion order.
  std::vector<std::size_t> start(rows + 1, 0);
  for (const index_t i : i_) ++start[static_cast<std::size_t>(i) + 1];
  for (std::size_t r = 0; r < rows; ++r) start[r + 1] += start[r];
  std::vector<std::size_t> order(n);
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t k = 0; k < n; ++k)
      order[next[static_cast<std::size_t>(i_[k])]++] = k;
  }

  // Stable per-row sort by column keeps each run of duplicates in
  // insertion order; the run is then summed from 0.0 in that order.
  const auto by_col = [&](std::size_t a, std::size_t b) {
    return j_[a] < j_[b];
  };
  IndexVector row_ptr(rows + 1, 0);
  IndexVector col_idx;
  Vector values;
  col_idx.reserve(n);
  values.reserve(n);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(start[r]);
    const auto last =
        order.begin() + static_cast<std::ptrdiff_t>(start[r + 1]);
    std::stable_sort(first, last, by_col);
    for (auto k = first; k != last;) {
      const index_t col = j_[*k];
      real_t sum = 0.0;
      for (; k != last && j_[*k] == col; ++k) sum += v_[*k];
      col_idx.push_back(col);
      values.push_back(sum);
    }
    row_ptr[r + 1] = as_index(col_idx.size());
  }

  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace pfem::sparse
