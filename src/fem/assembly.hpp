// Finite element assembly into CSR.
//
// Both entry points are fem::build_ebe_store(...).to_csr(): one pass
// evaluates each element matrix into an element store, and the store
// sums its blocks straight into CSR (no triplets, no global sort), each
// entry over its elements in ascending element order.
//
// Two paths, mirroring the paper's Definitions 1/2:
//  * assemble over *all* elements in the global free-dof numbering — the
//    fully assembled K of Eq. 1 (what the sequential solver and the
//    row-based RDD partitioning use);
//  * assemble over an element *subset* in a caller-supplied local
//    numbering — the "local distributed" subdomain matrix K̂_loc^(s) of
//    Eq. 32 that is never merged across interfaces (what EDD uses).
#pragma once

#include <functional>
#include <span>

#include "fem/dofmap.hpp"
#include "fem/material.hpp"
#include "fem/mesh.hpp"
#include "sparse/csr.hpp"

namespace pfem::fem {

/// Which element integral to assemble.
enum class Operator { Stiffness, Mass, Poisson };

/// Assemble the given operator over all mesh elements in the global
/// free-dof numbering of `dofs`.
[[nodiscard]] sparse::CsrMatrix assemble(const Mesh& mesh, const DofMap& dofs,
                                         const Material& mat, Operator op);

/// Assemble over the element subset `elems` in a local numbering:
/// `global_to_local[g]` gives the local row of global free dof g (or -1
/// if g is not part of this subdomain).  Result is n_local x n_local.
[[nodiscard]] sparse::CsrMatrix assemble_subset(
    const Mesh& mesh, const DofMap& dofs, const Material& mat, Operator op,
    std::span<const index_t> elems, std::span<const index_t> global_to_local,
    index_t n_local);

/// Global free dof ids of element e (fixed dofs = -1), in the element's
/// local dof order (node-major, component-minor).
[[nodiscard]] IndexVector element_dofs(const Mesh& mesh, const DofMap& dofs,
                                       index_t e);

/// Compute the element matrix of `op` for element e.
[[nodiscard]] la::DenseMatrix element_matrix(const Mesh& mesh,
                                             const Material& mat, Operator op,
                                             index_t e);

/// Add a concentrated nodal force: f[dof(node, comp)] += value (ignored if
/// the dof is fixed).
void add_point_load(const DofMap& dofs, index_t node, index_t comp,
                    real_t value, std::span<real_t> f);

/// Distribute a total force evenly over a set of nodes in component
/// `comp` (the paper's cantilever tip "pulling load").
void add_edge_load(const DofMap& dofs, std::span<const index_t> nodes,
                   index_t comp, real_t total, std::span<real_t> f);

}  // namespace pfem::fem
