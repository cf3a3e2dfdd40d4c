// Elastodynamics solve drivers: march Newmark steps and record the
// iterative-solver behaviour per step — the paper's "dynamic analysis"
// experiments (Figs. 12/14 and the dynamic columns of the speedup
// studies).
#pragma once

#include "core/rdd_solver.hpp"
#include "fem/problems.hpp"
#include "partition/edd.hpp"
#include "timeint/newmark.hpp"

namespace pfem::timeint {

struct DynamicRunOptions {
  NewmarkOptions newmark;
  index_t steps = 5;
  core::SolveOptions solve;
};

struct DynamicRunResult {
  std::vector<index_t> iterations_per_step;
  index_t total_iterations = 0;
  std::vector<real_t> first_step_history;  ///< residual history, step 1
  Vector u_final;
  bool all_converged = true;
};

/// Initial acceleration from M a₀ = f − K u₀ with u₀ = 0: solve_rdd on a
/// one-part partition of M, unpreconditioned after the norm-1 scaling,
/// to 1e-10 (M is well conditioned: a few tens of iterations).  Throws
/// pfem::Error when that solve does not converge.
[[nodiscard]] Vector initial_acceleration(const sparse::CsrMatrix& m,
                                          std::span<const real_t> f);

/// One-process dynamic run: constant load f, homogeneous initial
/// conditions, a₀ from initial_acceleration.  Every step is solve_rdd
/// with `precond` on one one-part partition of the step-invariant
/// effective matrix K + a0·M, built once per run.
[[nodiscard]] DynamicRunResult run_dynamic_sequential(
    const sparse::CsrMatrix& k, const sparse::CsrMatrix& m,
    std::span<const real_t> f, const DynamicRunOptions& opts,
    const core::RddOptions& precond);

struct EddDynamicResult : DynamicRunResult {
  /// Element-wise per-rank counters summed over all steps' solves.
  std::vector<par::PerfCounters> rank_counters_total;
};

/// EDD dynamic run: per-subdomain effective matrices
/// K̂_eff = K̂_loc + a0·M̂_loc (same sub-assembly layout; never merged
/// across interfaces), each step solved by the parallel EDD-FGMRES.
[[nodiscard]] EddDynamicResult run_dynamic_edd(
    const fem::Mesh& mesh, const fem::DofMap& dofs, const fem::Material& mat,
    const partition::EddPartition& part, std::span<const real_t> f,
    const DynamicRunOptions& opts, const core::PolySpec& poly,
    core::EddVariant variant = core::EddVariant::Enhanced);

}  // namespace pfem::timeint
