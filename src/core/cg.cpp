#include "core/cg.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace {

using detail::EddRank;
using detail::sqrt_nonneg;
using partition::EddPartition;
using partition::EddSubdomain;

/// CG needs pᵀAp > 0 and finite.  A non-positive value means the
/// operator is not SPD on the Krylov space; a NaN or Inf one means the
/// iterates overflowed.  Either way the recurrence cannot continue and
/// the solve ends in a typed breakdown.
[[nodiscard]] bool curvature_ok(real_t pap) {
  return pap > 0.0 && std::isfinite(pap);
}

/// EDD-PCG on one rank.  x, p, z in global format; the residual is kept
/// in both formats.  Per iteration: m exchanges inside P(A), one to
/// globalize the updated residual, and 3 global reductions.
void pcg_rank(par::Comm& comm, const EddPartition& part,
              const detail::RankSetup& op, const PolySpec& spec,
              std::span<const real_t> f_global, const SolveOptions& opts,
              detail::SolveOut& out) {
  const int s = comm.rank();
  const bool leader = s == comm.local_leader();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  EddRank r(sub, comm);
  obs::Tracer* const tr = comm.tracer();
  const std::size_t nl = r.nl();
  const Vector& d = op.d;
  const RankKernel& a = op.kern;
  SolveReport& item = out.items.front();

  Vector b_loc(nl);
  r.localize(f_global, d, b_loc);
  detail::PolyApplier poly(spec, op.gls.get(), op.cheb.get(), nl, 1);
  Vector x(nl, 0.0), r_loc(nl), r_glob(nl), z(nl), p(nl), ap_loc(nl);
  const Vector* const rg[] = {&r_glob};
  Vector* const zs[] = {&z};
  la::copy(b_loc, r_loc);  // r = b - A*0
  la::copy(r_loc, r_glob);
  r.exchange(r_glob);
  const real_t beta0 = sqrt_nonneg(r.dot_lg(r_loc, r_glob));

  bool converged = false;
  bool breakdown = false;
  index_t iterations = 0;
  real_t relres = 1.0;

  if (beta0 == 0.0) {
    converged = true;
    relres = 0.0;
    if (leader) item.trivial_rhs = true;
  } else {
    poly.apply(r, a, rg, zs, /*local=*/false);  // z = P(A) r (m exchanges)
    la::copy(z, p);
    real_t rho = r.dot_lg(r_loc, z);

    while (iterations < opts.max_iters) {
      OBS_SPAN(tr, "pcg", obs::Cat::Solve,
               static_cast<std::uint32_t>(iterations));
      r.spmv(a, p, ap_loc);  // Ap in local format; p is global
      const real_t pap = r.dot_lg(ap_loc, p);
      if (!curvature_ok(pap)) {  // pap is global: every rank breaks here
        breakdown = true;
        break;
      }
      const real_t alpha = rho / pap;
      la::axpy(alpha, p, x);
      // Update the residual in both formats: Ap_loc is local,
      // r_glob needs one exchange of the updated r_loc.
      la::axpy(-alpha, ap_loc, r_loc);
      la::copy(r_loc, r_glob);
      r.exchange(r_glob);  // the (+1) exchange of the iteration
      r.counters().flops += 4 * nl;
      r.counters().vector_updates += 2;
      ++iterations;

      relres = sqrt_nonneg(r.dot_lg(r_loc, r_glob)) / beta0;
      if (leader) {
        // Written incrementally: a comm failure leaves a truthful
        // partial report.
        item.history.push_back(relres);
        item.iterations = iterations;
        item.final_relres = relres;
        if (tr != nullptr) tr->counter("relres", obs::Cat::Solve, relres);
        if (opts.observe.progress) opts.observe.progress(iterations, relres, 0);
      }
      if (relres <= opts.tol) {
        converged = true;
        break;
      }

      poly.apply(r, a, rg, zs, /*local=*/false);  // m exchanges
      const real_t rho_new = r.dot_lg(r_loc, z);
      if (rho == 0.0) break;  // underflowed inner product: stagnated
      const real_t beta = rho_new / rho;
      rho = rho_new;
      la::axpby(1.0, z, beta, p);
      r.counters().flops += 2 * nl;
      r.counters().vector_updates += 1;
    }
  }

  // ---- Final residual and unscaled solution.
  Vector check_loc(nl);
  r.spmv(a, x, check_loc);
  for (std::size_t l = 0; l < nl; ++l) check_loc[l] = b_loc[l] - check_loc[l];
  Vector check_glob(check_loc);
  r.exchange(check_glob);
  const real_t final_res = sqrt_nonneg(r.dot_lg(check_loc, check_glob));
  const real_t final_relres = beta0 > 0.0 ? final_res / beta0 : 0.0;

  Vector u(nl);
  for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * x[l];
  out.sol.front()[static_cast<std::size_t>(s)] = std::move(u);

  if (leader) {
    item.converged = converged || final_relres <= opts.tol;
    item.breakdown = breakdown;
    item.iterations = iterations;
    item.final_relres = final_relres;
  }
}

}  // namespace

DistSolve solve_edd_cg(const EddPartition& part,
                       std::span<const real_t> f_global, const PolySpec& spec,
                       const SolveOptions& opts,
                       const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  check_solve_input(opts, f_global, /*restarted=*/false);
  // A-DEF1 is not symmetric, so PCG cannot use it.
  PFEM_CHECK_MSG(!opts.deflation.enabled,
                 "solve_edd_cg: deflation (A-DEF1) is not symmetric and "
                 "cannot precondition CG; use solve_edd");
  return detail::run_edd_one_shot(
      part, spec, local_matrices, opts, "solve_edd_cg",
      [&](par::Comm& comm, const detail::RankSetup& op,
          detail::SolveOut& out) {
        pcg_rank(comm, part, op, spec, f_global, opts, out);
      });
}

}  // namespace pfem::core
