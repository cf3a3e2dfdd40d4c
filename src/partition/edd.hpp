// Element-based domain decomposition (EDD) structures — the paper's §3.
//
// Elements are partitioned disjointly; each subdomain s owns the dofs its
// elements touch, in a *local* numbering.  The local distributed matrix
// K̂_loc^(s) (Eq. 32 left) is sub-assembled from the subdomain's elements
// only — interface rows hold *partial* sums, never merged across ranks.
// Interface dofs shared with a neighboring subdomain form per-pair
// exchange lists, ordered by global dof id on both sides, so the
// nearest-neighbor operation û_glob = ⊕Σ_{∂Ω_s} û_loc (Eq. 28) is one
// send + one recv + one add per neighbor.
#pragma once

#include <memory>
#include <vector>

#include "fem/assembly.hpp"
#include "fem/dofmap.hpp"
#include "fem/mesh.hpp"
#include "sparse/csr.hpp"
#include "sparse/ebe_store.hpp"

namespace pfem::partition {

/// One subdomain of an element-based decomposition.
struct EddSubdomain {
  IndexVector elems;            ///< global element ids owned by s
  IndexVector local_to_global;  ///< local dof -> global free dof (sorted)
  sparse::CsrMatrix k_loc;      ///< K̂_loc^(s): sub-assembly on local dofs

  /// The same sub-assembly kept unassembled: the subdomain's element
  /// matrices with dof ids in *local* numbering (UNSCALED), element
  /// order = elems order.  k_loc is this store's to_csr(), so each
  /// element matrix is evaluated once per build.  Feeds the matrix-free
  /// `KernelOptions::Format::Ebe` kernel; shared_ptr so partition copies
  /// stay cheap.  Hand-built partitions may leave it null — the Ebe
  /// kernel then fails with a typed error.
  std::shared_ptr<const sparse::EbeStore> elem_store;

  /// Exchange list with one neighboring subdomain: the local dofs shared
  /// with that neighbor, ordered identically (by global dof) on both
  /// sides so payloads align without index headers.
  struct Neighbor {
    int rank;
    IndexVector shared_local_dofs;
  };
  std::vector<Neighbor> neighbors;

  /// Local dofs lying on any interface (each once, sorted).
  IndexVector interface_local_dofs;

  /// Number of subdomains sharing each local dof (>= 1; > 1 on Γ).
  IndexVector multiplicity;

  [[nodiscard]] index_t n_local() const {
    return as_index(local_to_global.size());
  }
};

/// A complete EDD decomposition of a problem.
struct EddPartition {
  index_t n_global = 0;  ///< global free dofs
  std::vector<EddSubdomain> subs;

  [[nodiscard]] int nparts() const { return static_cast<int>(subs.size()); }

  /// Interface statistics for reporting: total shared dof slots and the
  /// maximum neighbor count of any subdomain.
  [[nodiscard]] index_t total_interface_dofs() const;
  [[nodiscard]] int max_neighbors() const;
};

/// Build an EDD partition.  `elem_part[e]` assigns element e to a part;
/// `op` selects which operator is sub-assembled into k_loc.  One element
/// pass per part: fem::build_ebe_store over the part's elements gives
/// elem_store, and its to_csr() gives k_loc (bit-identical to
/// assemble_edd_local).
[[nodiscard]] EddPartition build_edd_partition(
    const fem::Mesh& mesh, const fem::DofMap& dofs, const fem::Material& mat,
    fem::Operator op, const IndexVector& elem_part, int nparts);

/// Sub-assemble another operator on an existing partition's dof layout
/// (e.g. the mass matrix for dynamics; same sparsity as k_loc).
[[nodiscard]] sparse::CsrMatrix assemble_edd_local(
    const fem::Mesh& mesh, const fem::DofMap& dofs, const fem::Material& mat,
    fem::Operator op, const EddPartition& part, int s);

/// Scatter a global vector to subdomain s in *global distributed* format:
/// û^(s) = B_s u (Eq. 27 left).
[[nodiscard]] Vector edd_scatter(const EddPartition& part, int s,
                                 std::span<const real_t> global);

/// Gather local distributed vectors into the global vector:
/// u = Σ_s B_s^T û_loc^(s) (Eq. 27 right).
[[nodiscard]] Vector edd_gather_local(
    const EddPartition& part, const std::vector<Vector>& local_vectors);

/// Read a globally consistent vector out of global-distributed per-rank
/// copies (values at shared dofs must agree; checked in debug builds).
[[nodiscard]] Vector edd_gather_global(
    const EddPartition& part, const std::vector<Vector>& global_vectors);

}  // namespace pfem::partition
