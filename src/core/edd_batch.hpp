// Warm-path EDD solves: explicit setup/apply split and multi-RHS
// batching on a persistent rank team.
//
// solve_edd() pays the full setup on every call — a fresh thread team,
// the Algorithms-3/4 norm-1 scaling, and the redundant polynomial build —
// which is exactly the amortizable state for workloads that stream many
// solves against a slowly-changing operator (time stepping, a solve
// service).  This module splits the pipeline:
//
//   par::Team team(P);                                   // threads parked
//   EddOperatorState op = build_edd_operator(team, part, spec);  // once
//   BatchSolveResult r = solve_edd_batch(team, part, op, rhs_batch);
//
// Both halves are the ones solve_edd runs: the same per-rank setup, and
// the same EDD-FGMRES driver, here loop-fused over all right-hand sides
// in the Enhanced discipline (Algorithm 6): each Arnoldi step still
// performs m polynomial-recursion exchanges plus 1 basis exchange *in
// total* — each fused message carries every RHS's shared-dof section —
// and the Gram-Schmidt coefficients and norms of the whole batch fold
// into one allreduce each.  Against B independent solves this divides
// the per-step message and reduction count (the alpha term of the cost
// model) by B, while the mat-vec flops stay the same, and each RHS's
// arithmetic is bit-identical to its own solve_edd.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/chebyshev.hpp"
#include "core/deflation.hpp"
#include "core/edd_solver.hpp"
#include "core/kernels.hpp"
#include "core/gls_poly.hpp"
#include "par/comm.hpp"

namespace pfem::core {

/// Prebuilt per-operator state: everything solve_edd recomputes per call
/// that only depends on (matrix, PolySpec).  Build once, solve many.
/// build_edd_operator is its only producer: it runs the same per-rank
/// setup a one-shot solve_edd runs, and keeps the result.
struct EddOperatorState {
  PolySpec poly;                   ///< the spec the preconditioner was built for
  /// Per-rank scaled CSR Â = D̂ K̂ D̂ (Eq. 44), kept for callers that
  /// inspect the operator; the solvers apply `kern`.
  std::vector<sparse::CsrMatrix> a;
  std::vector<Vector> d;             ///< per-rank scaling 1/sqrt(d_i) (Eq. 43)
  KernelOptions kernels;             ///< format the kernels were built for
  /// Per-rank apply kernels (SELL-C-σ blocks, scalar CSR or matrix-free
  /// EBE, split interior/interface).  solve_edd_batch
  /// rejects a state without them.
  std::vector<RankKernel> kern;
  /// Prebuilt polynomial recursion data (shared read-only by all ranks;
  /// null for kinds that need none).
  std::shared_ptr<const GlsPolynomial> gls;
  std::shared_ptr<const ChebyshevPolynomial> cheb;
  /// Deflation knobs the operator was built with, and the replicated
  /// factorized coarse operator E = ZᵀÂZ (null when deflation is off).
  /// Cached alongside the operator — a service cache hit reuses the
  /// coarse factorization together with the scaling and kernels.  The
  /// batch solve takes its deflation setup from HERE, not from
  /// SolveOptions (the correction is operator state, like the
  /// polynomial).
  DeflationOptions deflation;
  std::shared_ptr<const CoarseOperator> coarse;
  std::vector<par::PerfCounters> setup_counters;  ///< scaling exchange/flops
  double setup_seconds = 0.0;  ///< wall time of the whole build
};

/// Run the distributed norm-1 scaling and the polynomial build once on a
/// warm team.  @param local_matrices optional override of
/// part.subs[s].k_loc (same dof layout), e.g. a dynamic effective
/// stiffness — passing an updated set is how time stepping refreshes the
/// operator without repartitioning.
/// @param trace optional span trace (lanes == team size) for the build,
///        e.g. the solve service's long-lived trace.
/// @param deflation when enabled, additionally assembles and factorizes
///        the deflation coarse operator (one allreduce of the dense E
///        buffer on the team) so every later batch solve applies the
///        two-level correction with no extra setup.
[[nodiscard]] EddOperatorState build_edd_operator(
    par::Team& team, const partition::EddPartition& part,
    const PolySpec& spec,
    const std::vector<sparse::CsrMatrix>* local_matrices = nullptr,
    obs::Trace* trace = nullptr, const KernelOptions& kernels = {},
    const DeflationOptions& deflation = {});

/// One RHS's solve-session state.  Vectors are in the PHYSICAL global
/// format — exactly the shape solvers return in DistSolve::x /
/// BatchSolveResult::x — so a caller can feed one solve's output
/// straight into the next solve's RecycleIn.
struct RecycleIn {
  /// Warm-start guess x₀ (empty = start cold from zero).
  Vector x0;
  /// Recycled search directions: the residual is projected out of
  /// span(directions) before iterating (small dense normal-equations
  /// solve, replicated on every rank).  Typically previous solves'
  /// solution increments / Arnoldi-cycle updates.
  std::vector<Vector> directions;

  [[nodiscard]] bool empty() const noexcept {
    return x0.empty() && directions.empty();
  }
};

/// Cap on recycled directions per RHS: the most recent ones are used,
/// and harvested, up to this many.
inline constexpr std::size_t kMaxRecycleDirections = 8;

/// Per-RHS outcome of a batch solve — the same unified report shape as
/// every other solver path (with per-iteration residual history, written
/// by rank 0).
using BatchItemResult = SolveReport;

struct BatchSolveResult {
  std::vector<Vector> x;  ///< per-RHS global solutions (scaling undone)
  std::vector<BatchItemResult> items;
  /// Per-RHS harvested recycle directions (physical global format,
  /// oldest → newest, at most kMaxRecycleDirections each): the
  /// restart-cycle solution increments Δx of this solve, ready to be fed
  /// into the next solve's RecycleIn::directions.  Empty unless the
  /// solve was given recycle lanes.
  std::vector<std::vector<Vector>> recycled;
  std::vector<par::PerfCounters> rank_counters;
  double wall_seconds = 0.0;
  /// Per-call trace when opts.observe.trace requested one (and no
  /// external trace was supplied); null otherwise.
  std::shared_ptr<const obs::Trace> trace;
  /// Non-empty when the batch died on a typed communication failure
  /// (channel timeout / injected crash): x is empty and every item
  /// carries the error plus whatever history it accumulated.  The
  /// service's retry policy keys off this field.
  std::string comm_error;

  [[nodiscard]] bool comm_failed() const noexcept {
    return !comm_error.empty();
  }
};

/// Solve K u = f_b for every RHS in `rhs` (each a full global vector) in
/// one loop-fused enhanced EDD-FGMRES sweep on the prebuilt operator.
/// Each RHS converges (or hits max_iters) independently; finished systems
/// drop out of the fused exchanges.  Team size must equal part.nparts().
///
/// Observability: opts.observe.progress is called per iteration per live
/// RHS with that RHS's batch index.  When `trace` is non-null the ranks
/// record spans into it (a service passes its own long-lived trace);
/// otherwise, when opts.observe.trace is set, a per-call trace is
/// created and returned in BatchSolveResult::trace.
///
/// Solve sessions: a non-empty `recycle` holds per-RHS state,
/// index-aligned with `rhs` (a missing or empty lane starts cold).  Each
/// warm RHS (a) starts from RecycleIn::x0 instead of zero, (b) projects
/// its initial residual onto RecycleIn::directions, and (c) measures
/// convergence against ‖b̂‖ instead of ‖r₀‖, so warm and cold solves
/// chase the SAME absolute target (a cold start has r₀ = b̂).  All of
/// that is one extra fused exchange and one allreduce for the whole
/// batch.  Every RHS's cycle updates are harvested into
/// BatchSolveResult::recycled.  An empty `recycle` runs the stateless
/// solve, exchange count for exchange count (the Table-1 contract).
[[nodiscard]] BatchSolveResult solve_edd_batch(
    par::Team& team, const partition::EddPartition& part,
    const EddOperatorState& op, std::span<const Vector> rhs,
    const SolveOptions& opts = {}, obs::Trace* trace = nullptr,
    std::span<const RecycleIn> recycle = {});

}  // namespace pfem::core
