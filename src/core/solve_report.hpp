// The unified solver report (api_redesign of ISSUE 3).
//
// Before this header, the repo had four divergent result shapes:
// sequential `SolveReport`, distributed `DistSolve`, the batch
// path's per-RHS `BatchItemResult`, and whatever svc::Completed carried.
// Every consumer (benches, the convergence tables, the service) had to
// know which one it was holding.  Now there is one `SolveReport` with
// the convergence story every solve can tell — including the
// per-iteration residual history the sequential path always recorded —
// and one solution-carrying extension `DistSolve` for distributed
// solves.  The old names remain as aliases so existing call sites
// compile unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"
#include "par/counters.hpp"

namespace pfem::core {

/// What every solve reports: convergence verdict, iteration counts, and
/// the per-iteration relative-residual history.
struct SolveReport {
  /// True only when the final TRUE relative residual met the tolerance.
  /// An Arnoldi breakdown no longer masquerades as convergence: a solve
  /// that broke down short of the tolerance reports converged = false
  /// with breakdown = true.
  bool converged = false;
  /// The Krylov recurrence could not continue and the solve stopped
  /// early.  FGMRES: the Arnoldi recursion hit a (near-)zero next basis
  /// vector.  For a consistent system this means the exact solution was
  /// found in the Krylov space (converged will also be true); for a
  /// rank-deficient operator it is a genuine failure and converged stays
  /// false.  PCG: pᵀAp was not positive and finite — an operator that is
  /// not SPD, or iterates that overflowed; final_relres is still the
  /// true residual's (NaN after an overflow), and converged is false
  /// unless that residual meets the tolerance.
  bool breakdown = false;
  /// ‖b‖ = 0: x = 0 is exact and final_relres is reported as 0 by
  /// convention.  Stamped so svc/loadgen statistics can keep trivial
  /// solves out of iteration/latency percentiles.
  bool trivial_rhs = false;
  index_t iterations = 0;     ///< total inner (Arnoldi) iterations
  index_t restarts = 0;       ///< cycles that RE-started (0 if one cycle)
  real_t final_relres = 0.0;  ///< ‖r‖/‖r₀‖ at exit
  std::vector<real_t> history;  ///< rel. residual after each inner iteration
  /// Non-empty when the distributed run died on a typed communication
  /// failure (channel timeout or injected crash): the par::CommError
  /// message.  converged is false, history holds the iterations that
  /// completed before the failure, and any solution fields are empty —
  /// a typed partial report, never corrupt results.
  std::string comm_error;

  [[nodiscard]] bool comm_failed() const noexcept {
    return !comm_error.empty();
  }
};

/// A distributed solve's report: the convergence story plus the global
/// solution and the per-rank cost evidence.
struct DistSolve : SolveReport {
  Vector x;  ///< global solution u (scaling undone)
  std::vector<par::PerfCounters> rank_counters;  ///< full run
  /// Setup-phase slice of the counters: rhs localization, norm-1 scaling
  /// (Algorithms 3/4) *and* polynomial preconditioner construction —
  /// everything a warm-cache solve skips.  total_seconds here is the
  /// setup wall time of the rank, so cache-hit savings are measurable
  /// from counters alone.
  std::vector<par::PerfCounters> setup_counters;
  double wall_seconds = 0.0;
  /// Span trace of the run when ObserveOptions::trace was set (one lane
  /// per rank); null otherwise.  Shared so reports stay copyable.
  std::shared_ptr<const obs::Trace> trace;
};

}  // namespace pfem::core
