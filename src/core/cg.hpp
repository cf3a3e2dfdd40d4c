// Preconditioned conjugate gradients, EDD-distributed.
//
// The paper's framework (EDD data formats + polynomial preconditioning)
// is solver-agnostic for SPD systems; CG is the natural companion to
// FGMRES there (the paper positions GMRES as the general tool because
// FETI-class solvers are "mainly restricted to symmetric systems").
// The polynomial preconditioners are SPD on the scaled system
// (λP_m(λ) ∈ (0,2) on Θ ⊇ σ(A) ⟹ P_m(A) ≻ 0), so PCG is well posed.
//
// Per CG iteration EDD-PCG needs m+1 nearest-neighbor exchanges
// (m inside the polynomial, 1 to globalize the updated residual) and
// 3 global reductions (ρ, pᵀAp, ‖r‖).
#pragma once

#include <span>

#include "core/edd_solver.hpp"
#include "core/fgmres.hpp"

namespace pfem::core {

/// EDD-distributed PCG with polynomial preconditioning: the same per-rank
/// setup as solve_edd() (norm-1 scaling, kernel, polynomial), then PCG,
/// as one job on a transient team.  Honors opts.kernels and
/// opts.observe (trace, progress, fault injector, comm timeout — a comm
/// failure returns a typed partial report).  opts.deflation is rejected
/// with pfem::Error: A-DEF1 is not symmetric.  The SolveOptions restart
/// field is ignored (CG does not restart).  The solve ends in a typed
/// breakdown (SolveReport::breakdown) when pᵀAp is not positive and
/// finite.
[[nodiscard]] DistSolve solve_edd_cg(
    const partition::EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& poly, const SolveOptions& opts = {},
    const std::vector<sparse::CsrMatrix>* local_matrices = nullptr);

}  // namespace pfem::core
