// Parallel element-based domain decomposition FGMRES — the paper's core
// contribution (§3, Algorithms 5 and 6, with the distributed norm-1
// scaling of Algorithms 3/4 and the distributed polynomial application
// of Algorithm 7).
//
// Per-iteration nearest-neighbor exchange counts (paper Table 1), with m
// the polynomial degree:
//   Basic    (Algorithm 5): m + 3   (basis kept in local distributed form)
//   Enhanced (Algorithm 6): m + 1   (preconditioned vectors kept global)
// Both are modes of one driver (core/edd_kernels.hpp); their measured
// counts are reproduced by bench/table1_complexity.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/fgmres.hpp"
#include "core/intervals.hpp"
#include "par/comm.hpp"
#include "par/counters.hpp"
#include "partition/edd.hpp"

namespace pfem::core {

enum class EddVariant {
  Basic,     ///< Algorithm 5: 3 exchanges outside the preconditioner
  Enhanced,  ///< Algorithm 6: 1 exchange outside the preconditioner
};

enum class PolyKind { None, Neumann, Gls, Chebyshev };

/// Which polynomial preconditioner the distributed solvers build (each
/// rank constructs it redundantly — no communication, the paper's point).
struct PolySpec {
  PolyKind kind = PolyKind::Gls;
  int degree = 7;
  real_t omega = 1.0;  ///< Neumann scaling (1 is valid after norm-1 scaling)
  /// GLS spectrum estimate; Chebyshev uses theta.front() (single positive
  /// interval required).
  Theta theta = default_theta_after_scaling();

  [[nodiscard]] std::string name() const;
};

/// Validate a PolySpec at solve entry, throwing pfem::Error with a clear
/// message instead of letting a bad spec silently misbuild:
///   - any polynomial kind needs degree >= 1 (None ignores the degree);
///   - GLS needs a valid Eq.-18 Theta (non-empty, ordered, 0 excluded);
///   - Chebyshev needs exactly one strictly positive interval (the
///     semi-iteration has no multi-interval form).
void validate_poly_spec(const PolySpec& spec);

// The distributed result shape lives in core/solve_report.hpp as
// `DistSolve`: the unified SolveReport plus the solution, per-rank
// counters and optional span trace.

/// Solve K u = f on an EDD partition (K = the partition's k_loc
/// sub-assemblies).  Applies distributed norm-1 scaling, builds the
/// polynomial preconditioner per PolySpec, runs restarted FGMRES — the
/// same setup and driver as build_edd_operator + solve_edd_batch, as one
/// width-1 job on a transient team.  `variant` picks Algorithm 5 or 6;
/// opts.batched_reductions folds the paper's one allreduce per
/// Gram–Schmidt coefficient into one per pass (identical bits).
///
/// @param local_matrices optional override of part.subs[s].k_loc (same
///        dof layout), e.g. the dynamic effective stiffness K + a0*M.
[[nodiscard]] DistSolve solve_edd(
    const partition::EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& poly, const SolveOptions& opts = {},
    EddVariant variant = EddVariant::Enhanced,
    const std::vector<sparse::CsrMatrix>* local_matrices = nullptr);

}  // namespace pfem::core
