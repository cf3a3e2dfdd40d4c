// Row-based domain decomposition FGMRES (§4, Algorithm 8) — the
// comparison baseline representing PSPARSLIB/Aztec/pARMS-style solvers.
//
// Vectors live on owned rows only; the mat-vec is Eq. 48
// (scatter boundary values / gather externals / y = A_loc x + A_ext x_ext),
// inner products are local dots + allreduce (Eq. 47), and the norm-1
// diagonal scaling needs no communication for the row norms (the paper's
// remark in §4.1.2) but one exchange to obtain the scaling of external
// columns.  Only that setup is RDD's own: the iteration is the one
// distributed FGMRES driver (core/edd_kernels.hpp) run in RDD's rank
// space, on the same one-shot runner as solve_edd (so trace, fault
// injector, comm timeout and typed comm_error come from opts.observe).
// Preconditioning is either the same polynomial applier (each
// application = m distributed mat-vecs, hence m exchanges), the
// block-Jacobi local-ILU(0) kernel of Eq. 49's discussion, or restricted
// additive Schwarz.
#pragma once

#include <span>

#include "core/edd_solver.hpp"
#include "partition/rdd.hpp"

namespace pfem::core {

struct RddOptions {
  enum class Precond {
    Poly,            ///< polynomial (m distributed mat-vecs per apply)
    BlockJacobiIlu,  ///< local ILU(0) solve, no communication
    AdditiveSchwarz, ///< restricted additive Schwarz, overlap 1: ILU(0)
                     ///< on the owned∪external block, one exchange/apply
  };
  Precond precond = Precond::Poly;
  PolySpec poly;  ///< used when precond == Poly
};

/// Solve A u = f on an RDD (block-row) partition.  Typed entry contract,
/// as solve_edd's: opts.deflation (an EDD feature) throws
/// pfem::Error, and so does an invalid rdd_opts.poly when precond ==
/// Poly.  KernelOptions::Format::Ebe runs the CSR kernel (RDD rows are
/// fully assembled; there is no element sub-assembly to sweep).
[[nodiscard]] DistSolve solve_rdd(const partition::RddPartition& part,
                                        std::span<const real_t> f_global,
                                        const RddOptions& rdd_opts = {},
                                        const SolveOptions& opts = {});

}  // namespace pfem::core
