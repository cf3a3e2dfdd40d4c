// Sequential flexible GMRES with restart (Algorithm 1).
//
// Right-preconditioned flavour: the solution update uses the
// preconditioned vectors z_j = C v_j instead of the basis v_j, which is
// what allows the preconditioner to vary between iterations ("flexible").
// Classical Gram–Schmidt orthogonalization (as in the paper's
// Algorithms 5/6/8), Givens-rotation incremental least squares, restart
// at m̃, convergence on ‖r_i‖₂/‖r₀‖₂ ≤ tol (§6.1).
#pragma once

#include <span>
#include <string>

#include "common/types.hpp"
#include "core/deflation.hpp"
#include "core/kernels.hpp"
#include "core/operator.hpp"
#include "core/precond.hpp"
#include "core/solve_report.hpp"
#include "obs/trace.hpp"

namespace pfem::core {

/// The ONE canonical solver-option shape, used identically by the
/// library API (fgmres / solve_edd / solve_edd_batch), the solve
/// service (svc::SolveRequest::opts), and the wire protocol
/// (net::proto::SolveRequestMsg carries the convergence + session
/// fields; kernel/deflation/observe stay server-side policy):
///
///   convergence   restart, max_iters, tol — must match for requests
///                 to coalesce into one fused service batch;
///                 batched_reductions need not (the batch path always
///                 folds each Gram–Schmidt step into one allreduce);
///   kernels       KernelOptions        — storage format (Csr and Sell
///                 bit-identical, Ebe not);
///   deflation     DeflationOptions     — two-level coarse correction;
///   observe       obs::ObserveOptions  — tracing + progress callbacks.
struct SolveOptions {
  index_t restart = 25;     ///< m̃, the Krylov subspace dimension (paper: 25)
  index_t max_iters = 10000;  ///< cap on total inner iterations
  real_t tol = 1e-6;        ///< relative residual target (paper: 1e-6)

  /// Batch the j+1 Gram-Schmidt coefficients of an iteration into one
  /// allreduce instead of the paper's one-reduction-per-coefficient
  /// (one-shot distributed solvers only; solve_edd_batch always folds).
  /// Off by default (paper-faithful); the ablation bench quantifies what
  /// this modern optimization buys.
  bool batched_reductions = false;

  /// Subdomain-operator kernel format for the distributed solvers:
  /// vectorized SELL-C-σ with fused scaling, scalar CSR (bit-identical
  /// to SELL), or matrix-free Ebe (same iteration counts, results within
  /// an ulp bound — not bit-identical).
  KernelOptions kernels;

  /// Two-level subdomain deflation around the polynomial preconditioner
  /// (EDD-FGMRES only: the coarse space is built on EDD subdomains, so
  /// solve_rdd rejects it, and so does EDD-PCG — A-DEF1 is not
  /// symmetric; the sequential path ignores it).
  /// Off by default — enabling it adds one small allreduce and one
  /// mat-vec per preconditioner application and keeps iteration counts
  /// flat under weak scaling.  The warm batch path takes its deflation
  /// setup from build_edd_operator instead (state cached with the
  /// operator).
  DeflationOptions deflation;

  /// Observability: span tracing and per-iteration progress callbacks.
  /// One knob struct shared by every solver entry point and the solve
  /// service, replacing per-tool flag plumbing.
  obs::ObserveOptions observe;
};

/// The one input check of every solve entry point (fgmres, solve_edd,
/// solve_edd_cg, solve_edd_batch, solve_rdd) and of the solve
/// service's admission: restart >= 1 (skipped when `restarted` is false:
/// CG does not restart), max_iters >= 1, a finite tol > 0 and finite RHS
/// entries.  Returns why the input is refused, or "" when it is valid.
[[nodiscard]] std::string solve_input_error(const SolveOptions& opts,
                                            std::span<const real_t> rhs,
                                            bool restarted = true);

/// Throws pfem::Error with solve_input_error's message, if it has one.
void check_solve_input(const SolveOptions& opts, std::span<const real_t> rhs,
                       bool restarted = true);

/// Solve A x = b with initial guess x (overwritten by the solution).
[[nodiscard]] SolveReport fgmres(const LinearOp& a, std::span<const real_t> b,
                                 std::span<real_t> x, Preconditioner& precond,
                                 const SolveOptions& opts = {});

/// Convenience overload for CSR systems.
[[nodiscard]] SolveReport fgmres(const sparse::CsrMatrix& a,
                                 std::span<const real_t> b,
                                 std::span<real_t> x, Preconditioner& precond,
                                 const SolveOptions& opts = {});

}  // namespace pfem::core
