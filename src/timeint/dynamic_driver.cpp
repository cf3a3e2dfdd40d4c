#include "timeint/dynamic_driver.hpp"

#include "common/error.hpp"
#include "fem/assembly.hpp"

namespace pfem::timeint {

Vector initial_acceleration(const sparse::CsrMatrix& m,
                            std::span<const real_t> f) {
  core::RddOptions none;
  none.poly.kind = core::PolyKind::None;
  core::SolveOptions opts;
  opts.tol = 1e-10;
  core::DistSolve res = core::solve_rdd(
      partition::build_rdd_partition(m, IndexVector(f.size(), 0), 1), f,
      none, opts);
  PFEM_CHECK_MSG(res.converged, "initial-acceleration solve failed");
  return std::move(res.x);
}

DynamicRunResult run_dynamic_sequential(const sparse::CsrMatrix& k,
                                        const sparse::CsrMatrix& m,
                                        std::span<const real_t> f,
                                        const DynamicRunOptions& opts,
                                        const core::RddOptions& precond) {
  PFEM_CHECK(opts.steps >= 1);
  const std::size_t n = f.size();
  const Newmark nm(k, m, opts.newmark);
  // The effective matrix is step-invariant: one one-part partition for
  // the run; per step only the rhs changes.
  const partition::RddPartition part =
      partition::build_rdd_partition(nm.k_eff(), IndexVector(n, 0), 1);

  DynamicRunResult result;
  Vector u(n, 0.0), v(n, 0.0);
  Vector a = initial_acceleration(m, f);
  for (index_t step = 0; step < opts.steps; ++step) {
    const Vector rhs = nm.effective_rhs(u, v, a, f);
    const core::DistSolve sr =
        core::solve_rdd(part, rhs, precond, opts.solve);
    result.all_converged = result.all_converged && sr.converged;
    result.iterations_per_step.push_back(sr.iterations);
    result.total_iterations += sr.iterations;
    if (step == 0) result.first_step_history = sr.history;
    nm.advance(sr.x, u, v, a);
  }
  result.u_final = std::move(u);
  return result;
}

EddDynamicResult run_dynamic_edd(const fem::Mesh& mesh,
                                 const fem::DofMap& dofs,
                                 const fem::Material& mat,
                                 const partition::EddPartition& part,
                                 std::span<const real_t> f,
                                 const DynamicRunOptions& opts,
                                 const core::PolySpec& poly,
                                 core::EddVariant variant) {
  PFEM_CHECK(opts.steps >= 1);
  const std::size_t n = f.size();
  PFEM_CHECK(n == static_cast<std::size_t>(part.n_global));

  // Global operators for the (sequential) Newmark bookkeeping.
  const sparse::CsrMatrix k = fem::assemble(mesh, dofs, mat,
                                            fem::Operator::Stiffness);
  const sparse::CsrMatrix m = fem::assemble(mesh, dofs, mat,
                                            fem::Operator::Mass);
  const Newmark nm(k, m, opts.newmark);

  // Per-subdomain effective matrices: K̂_loc + a0·M̂_loc.
  std::vector<sparse::CsrMatrix> k_eff_loc;
  k_eff_loc.reserve(part.subs.size());
  for (int s = 0; s < part.nparts(); ++s) {
    sparse::CsrMatrix ke = part.subs[static_cast<std::size_t>(s)].k_loc;
    const sparse::CsrMatrix ml = partition::assemble_edd_local(
        mesh, dofs, mat, fem::Operator::Mass, part, s);
    ke.add_same_pattern(ml, nm.a0());
    k_eff_loc.push_back(std::move(ke));
  }

  EddDynamicResult result;
  result.rank_counters_total.resize(part.subs.size());
  Vector u(n, 0.0), v(n, 0.0);
  Vector a = initial_acceleration(m, f);

  for (index_t step = 0; step < opts.steps; ++step) {
    const Vector rhs = nm.effective_rhs(u, v, a, f);
    const core::DistSolve sr = core::solve_edd(
        part, rhs, poly, opts.solve, variant, &k_eff_loc);
    result.all_converged = result.all_converged && sr.converged;
    result.iterations_per_step.push_back(sr.iterations);
    result.total_iterations += sr.iterations;
    if (step == 0) result.first_step_history = sr.history;
    for (std::size_t r = 0; r < sr.rank_counters.size(); ++r)
      result.rank_counters_total[r] += sr.rank_counters[r];

    nm.advance(sr.x, u, v, a);
  }
  result.u_final = std::move(u);
  return result;
}

}  // namespace pfem::timeint
