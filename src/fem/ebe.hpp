// Element-by-element (EBE) operator — mat-vec without any assembly.
//
// The paper's EDD already skips *global* assembly; EBE goes one step
// further and skips the subdomain CSR too: the operator keeps each
// element's dense matrix and applies K x = Σ_e B_eᵀ (K_e (B_e x)) by
// gather–multiply–scatter.  The trade: dense element storage (64
// entries per Q4 vs ~39 assembled scalars) and duplicated interface
// work, in exchange for zero assembly time and a perfectly regular
// data layout.  Classic on vector machines — the HPC lineage the
// paper's polynomial preconditioners come from.  The storage/time
// trade-off is measured in bench/ablate_ebe.
//
// The element data lives in a sparse::EbeStore — the same container
// the distributed Format::Ebe rank kernel applies — so apply() runs on
// fixed stack scratch: no per-call allocation, and const applies are
// safe to run concurrently from multiple threads.
#pragma once

#include "fem/assembly.hpp"
#include "fem/dofmap.hpp"
#include "fem/mesh.hpp"
#include "sparse/ebe_store.hpp"

namespace pfem::fem {

/// Build the element store of `op` over the element subset `elems`, in
/// that order: each element's dense matrix, evaluated once straight
/// into the store's value array (no allocation per element), with its
/// dof ids mapped through `global_to_local` (size num_free; fixed dofs
/// and dofs mapped to -1 become the constrained marker -1) into
/// [0, n_local).  This is the library's only loop over element_matrix:
/// assemble/assemble_subset are this store's to_csr(), and
/// build_edd_partition keeps each part's store as its elem_store.
[[nodiscard]] sparse::EbeStore build_ebe_store(
    const Mesh& mesh, const DofMap& dofs, const Material& mat, Operator op,
    std::span<const index_t> elems, std::span<const index_t> global_to_local,
    index_t n_local);

/// The store of `op` over all mesh elements in the global free-dof
/// numbering — the single-domain analog of the per-subdomain store
/// build_edd_partition attaches to each EddSubdomain.
[[nodiscard]] sparse::EbeStore build_ebe_store(const Mesh& mesh,
                                               const DofMap& dofs,
                                               const Material& mat,
                                               Operator op);

class EbeOperator {
 public:
  /// Precompute the element matrices of `op` for all mesh elements.
  EbeOperator(const Mesh& mesh, const DofMap& dofs, const Material& mat,
              Operator op);

  [[nodiscard]] index_t size() const noexcept { return store_.rows(); }

  /// y <- K x (free-dof vectors).  Allocation-free: the element sweep
  /// works on stack scratch bounded by sparse::kMaxEbeElemDofs.
  void apply(std::span<const real_t> x, std::span<real_t> y) const;

  /// The underlying element store (shared with the rank-kernel format).
  [[nodiscard]] const sparse::EbeStore& store() const noexcept {
    return store_;
  }

  /// Stored matrix entries (dense element matrices).
  [[nodiscard]] std::uint64_t stored_values() const noexcept {
    return store_.stored_values();
  }

  /// Flops of one apply: 2 entries per stored value + gather/scatter.
  [[nodiscard]] std::uint64_t apply_flops() const noexcept {
    return store_.apply_flops();
  }

 private:
  sparse::EbeStore store_;
};

}  // namespace pfem::fem
