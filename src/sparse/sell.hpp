// SELL-C-σ sliced-ELLPACK matrix — the vectorized SpMV storage, with
// C = 8 and σ = 64 fixed.
//
// Rows are grouped into chunks of C consecutive slots; within a chunk the
// entries are stored column-major (slot j of lane l lives at
// base + j*C + l), so one inner-loop step advances C independent row
// accumulators with unit-stride loads — the layout AMGCL-style backends
// use to get SIMD out of FE matrices whose rows are too short for
// row-wise vectorization.  Within windows of σ rows a stable sort by
// descending row length packs similar-length rows into the same chunk to
// bound zero padding; the slot→row permutation is stored and results are
// scattered back, so callers never see the reordering.
//
// Node-block chunks.  Plane-elasticity rows come in node
// pairs: both dofs of a node see the same columns, and each neighbour
// node contributes two adjacent columns (c, c+1).  A chunk whose lane
// pairs (2s, 2s+1) carry identical columns arriving in (c, c+1) pairs at
// even steps stores one column index per 2×2 block — 4 ints per two
// steps instead of 16 — and its kernels load each x pair with a single
// 128-bit load instead of a gather.  Every other chunk keeps one index
// per entry (the generic class).  The class is picked per chunk during
// conversion; values keep the column-major layout in both classes.
//
// Bit-identity contract (what the solvers rely on): every row's partial
// sums are accumulated in the ORIGINAL CSR column order, one mul and one
// add per stored entry, exactly like the scalar CSR loop — a 2×2 block
// adds a[r][c]*x[c] and then a[r][c+1]*x[c+1], and the σ permutation
// moves whole rows between slots and never reassociates a row's sum, so
// spmv() is bit-identical to CsrMatrix::spmv for finite inputs.  Padded
// slots contribute `+ 0.0 * x[j]` for an in-range j, which is exact for
// finite x.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace pfem::sparse {

class SellMatrix;

namespace detail {
/// The kernel bodies sell.cpp compiles.  Auto is the runtime CPU
/// dispatch spmv()/spmv_add() use; the others name one body each.
enum class SellBody : std::uint8_t { Auto, Avx512, Avx2, Portable };

/// Whether this build and this CPU can run `body`.
[[nodiscard]] bool sell_body_available(SellBody body);

/// Test seam: y <- A x (add = false) or y += A x (add = true) through the
/// named body, so every compiled body can be checked on any host that
/// supports it.  Throws pfem::Error when the body is not available.
void sell_apply(const SellMatrix& a, SellBody body, std::span<const real_t> x,
                std::span<real_t> y, bool add);
}  // namespace detail

class SellMatrix {
 public:
  SellMatrix() = default;

  /// Chunk width C (rows per slice) and sort window σ (rows).
  static constexpr int kChunk = 8;
  static constexpr int kSigma = 8 * kChunk;

  /// Convert a full CSR matrix.
  [[nodiscard]] static SellMatrix from_csr(const CsrMatrix& a);

  /// Convert only the given rows of `a` (each id in [0, a.rows())); the
  /// kernels scatter results to the ORIGINAL row ids, so a row-subset
  /// block can write straight into a full-length y.  Used by the
  /// interior/interface split operator.
  [[nodiscard]] static SellMatrix from_csr_rows(const CsrMatrix& a,
                                                std::span<const index_t> rows);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept { return nnz_; }
  [[nodiscard]] index_t stored_rows() const noexcept { return stored_rows_; }
  [[nodiscard]] index_t num_chunks() const noexcept { return nchunks_; }
  /// Stored entries including zero padding (padding ratio diagnostics).
  [[nodiscard]] index_t padded_nnz() const noexcept {
    return chunk_ptr_.empty() ? 0 : chunk_ptr_.back();
  }
  /// Slot -> original row id permutation; -1 marks a padding slot.
  [[nodiscard]] std::span<const index_t> slot_row() const { return slot_row_; }
  /// Chunks stored in the node-block class (one column index per 2×2
  /// block); the rest use the generic one-index-per-entry class.
  [[nodiscard]] index_t blocked_chunks() const noexcept {
    index_t n = 0;
    for (const char b : chunk_blocked_) n += b;
    return n;
  }
  /// Bytes one apply streams from the stored arrays: values, column
  /// indices, chunk offsets and the slot -> row map.
  [[nodiscard]] std::size_t apply_bytes() const noexcept {
    return val_.size() * sizeof(real_t) +
           (col_.size() + chunk_ptr_.size() + slot_row_.size()) *
               sizeof(index_t);
  }

  /// y[r] <- (A x)_r for every stored row r; other entries of y are
  /// untouched.  Bit-identical to the scalar CSR row loop.
  void spmv(std::span<const real_t> x, std::span<real_t> y) const;

  /// y[r] <- y[r] + (A x)_r for every stored row r.
  void spmv_add(std::span<const real_t> x, std::span<real_t> y) const;

  /// Round-trip back to CSR in original row order (identity on from_csr
  /// input; subset rows of from_csr_rows input, others empty).
  [[nodiscard]] CsrMatrix to_csr() const;

  /// Flops of one SpMV over the stored rows: 2*nnz (padding excluded).
  [[nodiscard]] std::uint64_t spmv_flops() const {
    return 2ull * static_cast<std::uint64_t>(nnz_);
  }

 private:
  friend void detail::sell_apply(const SellMatrix& a, detail::SellBody body,
                                 std::span<const real_t> x,
                                 std::span<real_t> y, bool add);

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t nnz_ = 0;
  index_t stored_rows_ = 0;
  index_t nchunks_ = 0;
  IndexVector chunk_ptr_;  ///< nchunks_+1 value offsets (chunk k spans w*C)
  IndexVector slot_row_;   ///< nchunks_*C original row per lane, -1 = pad
  IndexVector slot_len_;   ///< nchunks_*C true row length per lane
  /// Column indices, chunk after chunk.  A generic chunk of width w holds
  /// w*C, column-major like val_.  A node-block chunk holds w*C/4: for
  /// step pair t and lane pair s, index t*4 + s is the block's first
  /// column c, so lanes 2s and 2s+1 read x[c] at step 2t and x[c+1] at
  /// step 2t+1.
  IndexVector col_;
  Vector val_;  ///< padded, column-major per chunk
  std::vector<char> chunk_blocked_;  ///< per chunk: node-block class
};

}  // namespace pfem::sparse
