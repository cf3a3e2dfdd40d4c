// Element-by-element (EBE) storage: the matrix-free counterpart of a
// sub-assembled CSR block.  A store keeps each element's dense matrix
// plus its dof ids and applies y += Σ_e B_eᵀ (K_e (B_e x)) by
// gather–multiply–scatter, never forming the assembled operator.  It is
// also where every assembled finite element matrix comes from: to_csr()
// sums the same blocks into CSR, so each element matrix is evaluated
// once whether a caller wants the store, the CSR, or both.
//
// This lives in the sparse layer (not fem) on purpose: the partition and
// kernel layers need the type, and only construction knows anything
// about finite elements.  A store is index-validated once at build time
// — every apply afterwards is guaranteed in-bounds, so the hot loop
// carries no checks beyond the constrained-dof guard.
//
// Scaling contract: scale_symmetric() folds D K D into the stored
// entries with the exact per-entry rounding sequence of
// CsrMatrix::scale_symmetric (t = d_row * d_col rounded first, then
// v * t).  An assembled entry with a single contributing element is
// therefore bit-identical to the eagerly scaled CSR entry; entries
// summed from several elements differ by the reassociation of the
// scaling across the sum (Σv)·t vs Σ(v·t) — within a few ulps, measured
// and bounded by tests/test_kernels.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace pfem::sparse {

class CsrMatrix;

/// Largest dofs-per-element an EbeStore accepts: Hex8 elasticity needs
/// 24; 32 leaves headroom for Quad8 3D growth while keeping the apply's
/// gather/scatter scratch on the stack (thread-safe const apply — the
/// TSan jobs run concurrent applies through shared kernels).  Since
/// assembly goes through a store, the bound applies to assembly too.
inline constexpr index_t kMaxEbeElemDofs = 32;

class EbeStore {
 public:
  EbeStore() = default;

  /// @param n      rows/cols of the (virtual) assembled operator
  /// @param edofs  dofs per element (uniform; the mesh has one type)
  /// @param dof_ids  ne*edofs entries; -1 marks a constrained dof slot
  ///                 (gathers zero, never scattered), anything else must
  ///                 lie in [0, n)
  /// @param values   ne*edofs*edofs entries, element-major, each element
  ///                 row-major
  /// Throws pfem::Error on any shape or index violation — the apply path
  /// relies on this validation for its no-bounds-check hot loop.
  EbeStore(index_t n, index_t edofs, IndexVector dof_ids,
           std::vector<real_t> values);

  [[nodiscard]] index_t rows() const noexcept { return n_; }
  [[nodiscard]] index_t edofs() const noexcept { return edofs_; }
  [[nodiscard]] index_t num_elems() const noexcept { return ne_; }
  [[nodiscard]] std::span<const index_t> dof_ids() const noexcept {
    return dof_ids_;
  }
  [[nodiscard]] std::span<const real_t> values() const noexcept {
    return values_;
  }
  /// Dense entries kept (the storage cost EBE trades for zero assembly).
  [[nodiscard]] std::uint64_t stored_values() const noexcept {
    return values_.size();
  }
  /// Dof ids of one element (edofs entries, -1 = constrained).
  [[nodiscard]] std::span<const index_t> elem_dofs(index_t e) const;

  /// Does element e touch any dof flagged in `mask` (size rows())?
  [[nodiscard]] bool touches(index_t e,
                             std::span<const char> mask) const;

  /// Fold the symmetric diagonal scaling D (size rows()) into the stored
  /// entries: v(r,c) *= d[id_r] * d[id_c], replaying
  /// CsrMatrix::scale_symmetric's rounding sequence entry by entry.
  /// Constrained rows/columns are left untouched (they can never reach
  /// y: a constrained column gathers zero, a constrained row is never
  /// scattered).
  void scale_symmetric(std::span<const real_t> d);

  /// y += Σ_{e in [begin, end)} B_eᵀ (K_e (B_e x)).  ADDITIVE on
  /// purpose: element ranges share rows, so the caller zeroes y before
  /// the first range (unlike the row-split CSR/SELL blocks, which assign
  /// disjoint whole rows).
  void apply_add(index_t begin, index_t end, std::span<const real_t> x,
                 std::span<real_t> y) const;

  /// Multi-RHS form, element-major: each element's matrix is loaded once
  /// and applied to every lane before moving on — the batched service
  /// path's memory-traffic win.  Same additive contract per lane.
  void apply_add_many(index_t begin, index_t end,
                      std::span<const Vector* const> xs,
                      std::span<Vector* const> ys) const;

  /// Assemble into CSR: Σ_e B_eᵀ K_e B_e, constrained slots dropped.
  /// The pattern comes from connectivity — row r holds every id that
  /// shares an element with r, sorted — so an entry that sums to zero is
  /// still stored.  Each entry is summed from 0.0 over its elements in
  /// store order (within an element: row slot, then column slot), which
  /// is the order CooBuilder::build sums the same triplets in.  No
  /// triplet array and no global sort.
  [[nodiscard]] CsrMatrix to_csr() const;

  /// Copy with elements reordered as order[0], order[1], ... (a
  /// permutation of [0, num_elems)); used to store the interface-coupled
  /// elements contiguously ahead of the interior ones.
  [[nodiscard]] EbeStore permuted(std::span<const index_t> order) const;

  /// Flops of one full apply: 2 per stored entry + gather/scatter.
  [[nodiscard]] std::uint64_t apply_flops() const noexcept {
    return 2 * stored_values() + 2 * dof_ids_.size();
  }

 private:
  index_t n_ = 0;
  index_t edofs_ = 0;
  index_t ne_ = 0;
  IndexVector dof_ids_;         ///< ne * edofs, -1 = constrained
  std::vector<real_t> values_;  ///< ne * edofs^2, element-major row-major
};

}  // namespace pfem::sparse
