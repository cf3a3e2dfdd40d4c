// Per-subdomain operator kernels: format selection (scalar CSR vs
// vectorized SELL-C-σ vs matrix-free EBE), the norm-1 scaling folded in
// at build, and the interior/interface row split that lets the
// polynomial apply overlap the nearest-neighbor exchange with interior
// compute.
//
// RankKernel wraps one subdomain's scaled operator Â = D K D behind a
// uniform apply() so the distributed solvers never touch storage details:
//
//   - format Csr:  a prescaled CSR copy, scalar row loop.
//   - format Sell: SELL-C-σ (sparse/sell.hpp) converted from the same
//     prescaled CSR entries, so it is bit-identical to format Csr.
//     2-dof elasticity rows land in node-block chunks (one column index
//     per 2×2 block); other operators use the generic chunks.
//   - format Ebe:  matrix-free element-by-element apply on the
//     subdomain's dense element matrices (sparse/ebe_store.hpp), the
//     scaling folded into every element entry at build time with the
//     same per-entry rounding sequence.  NOT bit-identical to the
//     assembled formats in general (summing per element reassociates
//     the row accumulation); the contract is instead identical
//     iteration counts, exchange counts, fault sites and span
//     structure, with apply results within a measured ulp bound
//     (DESIGN.md §14).  Requires element data — partitions built by
//     build_edd_partition carry it; anything else gets a typed error.
//
// Every kernel is split [coupled | interior], rows classified once at
// build time:
//   interior — not an interface dof AND coupled to no interface column;
//     safe to compute while an exchange is in flight in either
//     discipline (Basic's input vector has only its interface entries
//     zeroed mid-exchange, which interior rows never read; Enhanced's
//     output stash touches only interface dofs, which interior rows
//     never write).
//   coupled  — everything else (interface rows and their neighbors);
//     empty on a rank with no interface.
// Both blocks keep whole rows in original column order, so the split
// apply is bit-identical to a whole-matrix row loop.
//
// The Ebe format splits ELEMENTS instead of rows: an element is
// interior iff it touches no interface dof, so interior elements never
// read (Basic) or write (Enhanced) an in-flight interface entry.  The
// halves scatter-ADD into shared rows — callers zero y first (see
// additive()) — and elements are stored [coupled | interior], so the
// whole apply() equals the Enhanced-order split bit for bit.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/ebe_store.hpp"
#include "sparse/sell.hpp"

namespace pfem::core {

/// Kernel knob carried by SolveOptions / ServiceConfig: the storage
/// format, vectorized SELL by default.  Csr and Sell give bit-identical
/// results; Ebe does not (see above).
struct KernelOptions {
  enum class Format : std::uint8_t {
    Csr,   ///< scalar CSR, eagerly scaled
    Sell,  ///< SELL-C-σ, D K D folded into the stored values at build
    Ebe,   ///< matrix-free element-by-element, scaling folded per entry
  };
  Format format = Format::Sell;
};

namespace detail {
/// A row subset of a CSR matrix with scatter to original row ids — the
/// scalar-CSR form of a split block.
struct CsrRowsBlock {
  IndexVector rows;     ///< original row id per compact row
  IndexVector row_ptr;  ///< compact, rows.size()+1
  IndexVector col;
  Vector val;
  void spmv(std::span<const real_t> x, std::span<real_t> y) const;
};
}  // namespace detail

class RankKernel {
 public:
  RankKernel() = default;

  /// Build from the UNSCALED subdomain matrix `k` and the norm-1 scaling
  /// diagonal `d` (already globalized and inverted-square-rooted).  All
  /// formats fold the scaling in once at build time.  `elems` is the
  /// subdomain's element store (local dof ids, unscaled entries) — the
  /// Ebe format requires it (typed error when null); the assembled
  /// formats ignore it.
  RankKernel(const sparse::CsrMatrix& k, Vector d,
             std::span<const index_t> interface_dofs,
             const KernelOptions& opts,
             const sparse::EbeStore* elems = nullptr);

  [[nodiscard]] index_t rows() const noexcept { return n_; }
  /// The split halves scatter-ADD into shared rows instead of assigning
  /// disjoint whole rows (true for Ebe): callers must zero y before the
  /// first half.  apply() always handles its own initialization.
  [[nodiscard]] bool additive() const noexcept {
    return opts_.format == KernelOptions::Format::Ebe;
  }

  /// y <- Â x over all rows.
  void apply(std::span<const real_t> x, std::span<real_t> y) const;
  /// y[r] <- (Â x)_r for interface-coupled rows only.
  /// Ebe: y += the coupled elements' contributions (additive()).
  void apply_coupled(std::span<const real_t> x, std::span<real_t> y) const;
  /// y[r] <- (Â x)_r for interior rows only.
  /// Ebe: y += the interior elements' contributions (additive()).
  void apply_interior(std::span<const real_t> x, std::span<real_t> y) const;

  /// Multi-RHS forms of the halves for the batched polynomial steps:
  /// lane i of ys receives the half-apply of lane i of xs.  Csr/Sell
  /// delegate per lane (bit-identical to single applies); Ebe runs
  /// element-major so each dense element matrix is loaded once per
  /// batch, not once per lane.
  void apply_coupled_many(std::span<const Vector* const> xs,
                          std::span<Vector* const> ys) const;
  void apply_interior_many(std::span<const Vector* const> xs,
                           std::span<Vector* const> ys) const;

  /// Flops of one full apply: 2*nnz for the assembled formats, the
  /// gather/multiply/scatter cost for Ebe (duplicated interface work is
  /// real work — it is charged).
  [[nodiscard]] std::uint64_t apply_flops() const noexcept {
    return opts_.format == KernelOptions::Format::Ebe ? ebe_.apply_flops()
                                                      : 2ull * nnz_;
  }

 private:
  KernelOptions opts_;
  index_t n_ = 0;
  std::uint64_t nnz_ = 0;
  detail::CsrRowsBlock csr_coupled_, csr_interior_;
  sparse::SellMatrix sell_coupled_, sell_interior_;
  /// Ebe only: the folded element store, elements permuted
  /// [coupled | interior]; ebe_split_ marks the boundary.
  sparse::EbeStore ebe_;
  index_t ebe_split_ = 0;  ///< elements [0, ebe_split_) are coupled
};

}  // namespace pfem::core
