#include "core/bicgstab.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/edd_kernels.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

SolveReport bicgstab(const LinearOp& a, std::span<const real_t> b,
                     std::span<real_t> x, Preconditioner& precond,
                     const SolveOptions& opts) {
  const std::size_t n = b.size();
  PFEM_CHECK(x.size() == n);
  PFEM_CHECK(a.size() == as_index(n));

  SolveReport result;
  // ‖b‖ = 0: x = 0 solves exactly and any relative residual is 0/0 —
  // return it in 0 iterations instead of iterating on NaNs.
  if (la::nrm2(b) == 0.0) {
    la::fill(x, 0.0);
    result.converged = true;
    return result;
  }

  Vector r(n), rhat(n), p(n, 0.0), v(n, 0.0), phat(n), shat(n), s(n), t(n);
  a.apply(x, r);
  la::sub(b, r, r);
  const real_t beta0 = la::nrm2(r);
  if (beta0 == 0.0) {
    result.converged = true;
    return result;
  }
  la::copy(r, rhat);
  real_t rho = 1.0, alpha = 1.0, omega = 1.0;

  while (result.iterations < opts.max_iters) {
    const real_t rho_new = la::dot(rhat, r);
    PFEM_CHECK_MSG(std::abs(rho_new) > 1e-300 * beta0 * beta0,
                   "BiCGSTAB breakdown: <rhat, r> ~ 0");
    const real_t beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    for (std::size_t i = 0; i < n; ++i)
      p[i] = r[i] + beta * (p[i] - omega * v[i]);

    precond.apply(p, phat);
    a.apply(phat, v);
    alpha = rho / la::dot(rhat, v);
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    ++result.iterations;

    if (la::nrm2(s) / beta0 <= opts.tol) {
      la::axpy(alpha, phat, x);
      result.history.push_back(la::nrm2(s) / beta0);
      result.converged = true;
      break;
    }

    precond.apply(s, shat);
    a.apply(shat, t);
    const real_t tt = la::dot(t, t);
    PFEM_CHECK_MSG(tt > 0.0, "BiCGSTAB breakdown: ||t|| = 0");
    omega = la::dot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    const real_t relres = la::nrm2(r) / beta0;
    result.history.push_back(relres);
    if (relres <= opts.tol) {
      result.converged = true;
      break;
    }
    PFEM_CHECK_MSG(std::abs(omega) > 1e-300, "BiCGSTAB breakdown: omega ~ 0");
  }

  a.apply(x, r);
  la::sub(b, r, r);
  result.final_relres = la::nrm2(r) / beta0;
  if (result.final_relres <= opts.tol) result.converged = true;
  return result;
}

SolveReport bicgstab(const sparse::CsrMatrix& a, std::span<const real_t> b,
                     std::span<real_t> x, Preconditioner& precond,
                     const SolveOptions& opts) {
  return bicgstab(LinearOp::from_csr(a), b, x, precond, opts);
}

namespace {

using detail::DistPoly;
using detail::EddRank;
using detail::invert_sqrt_row_norms;
using detail::spmv_exchange;
using detail::sqrt_nonneg;
using partition::EddPartition;
using partition::EddSubdomain;
using sparse::CsrMatrix;

struct SharedOut {
  std::vector<Vector> solutions;
  bool converged = false;
  index_t iterations = 0;
  real_t final_relres = 0.0;
  std::vector<real_t> history;
  std::vector<par::PerfCounters> setup_counters;
};

void edd_bicgstab_rank(const EddPartition& part, const CsrMatrix& k_in,
                       std::span<const real_t> f_global, const PolySpec& spec,
                       const SolveOptions& opts, par::Comm& comm,
                       SharedOut& out) {
  const int rank = comm.rank();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(rank)];
  EddRank r(sub, comm);
  const std::size_t nl = r.nl();

  // Setup: identical to the other EDD solvers (Algorithms 3/4).
  Vector f_loc(nl);
  for (std::size_t l = 0; l < nl; ++l)
    f_loc[l] =
        f_global[static_cast<std::size_t>(sub.local_to_global[l])] /
        static_cast<real_t>(sub.multiplicity[l]);
  Vector d = k_in.row_norms1();
  r.counters().flops += static_cast<std::uint64_t>(k_in.nnz());
  r.exchange(d);
  invert_sqrt_row_norms(sub, d);
  const RankKernel a(k_in, Vector(d), sub.interface_local_dofs, opts.kernels);
  r.counters().flops += 2ull * static_cast<std::uint64_t>(k_in.nnz());
  Vector b_glob(nl);
  for (std::size_t l = 0; l < nl; ++l) b_glob[l] = d[l] * f_loc[l];
  r.exchange(b_glob);  // rhs in global format once and for all

  DistPoly poly(spec, nl, &r.counters());
  out.setup_counters[static_cast<std::size_t>(rank)] = comm.counters();

  // Distributed mat-vec: global -> global (one exchange, overlapped with
  // the interior block when the kernel is split).
  auto matvec = [&](std::span<const real_t> in, std::span<real_t> res) {
    spmv_exchange(r, a, in, res);
  };

  // All vectors in global distributed format.
  Vector x(nl, 0.0), rr(nl), rhat(nl), p(nl, 0.0), v(nl, 0.0);
  Vector phat(nl), shat(nl), s(nl), t(nl);
  matvec(x, rr);
  for (std::size_t l = 0; l < nl; ++l) rr[l] = b_glob[l] - rr[l];
  const real_t beta0 = sqrt_nonneg(r.norm2_sq_global(rr));

  bool converged = false;
  index_t iterations = 0;
  real_t relres = beta0 == 0.0 ? 0.0 : 1.0;
  std::vector<real_t> history;

  if (beta0 == 0.0) {
    converged = true;
  } else {
    la::copy(rr, rhat);
    real_t rho = 1.0, alpha = 1.0, omega = 1.0;
    while (iterations < opts.max_iters) {
      const real_t rho_new = r.dot_gg(rhat, rr);
      PFEM_CHECK_MSG(std::abs(rho_new) > 1e-300 * beta0 * beta0,
                     "EDD-BiCGSTAB breakdown: <rhat, r> ~ 0");
      const real_t beta = (rho_new / rho) * (alpha / omega);
      rho = rho_new;
      for (std::size_t l = 0; l < nl; ++l)
        p[l] = rr[l] + beta * (p[l] - omega * v[l]);
      r.counters().flops += 4 * nl;
      r.counters().vector_updates += 1;

      poly.apply_global(r, a, p, phat);
      matvec(phat, v);
      alpha = rho / r.dot_gg(rhat, v);
      for (std::size_t l = 0; l < nl; ++l) s[l] = rr[l] - alpha * v[l];
      r.counters().flops += 2 * nl;
      ++iterations;

      relres = sqrt_nonneg(r.norm2_sq_global(s)) / beta0;
      if (relres <= opts.tol) {
        la::axpy(alpha, phat, x);
        history.push_back(relres);
        converged = true;
        break;
      }

      poly.apply_global(r, a, s, shat);
      matvec(shat, t);
      const real_t tt = r.norm2_sq_global(t);
      PFEM_CHECK_MSG(tt > 0.0, "EDD-BiCGSTAB breakdown: ||t|| = 0");
      omega = r.dot_gg(t, s) / tt;
      for (std::size_t l = 0; l < nl; ++l) {
        x[l] += alpha * phat[l] + omega * shat[l];
        rr[l] = s[l] - omega * t[l];
      }
      r.counters().flops += 6 * nl;
      r.counters().vector_updates += 2;
      relres = sqrt_nonneg(r.norm2_sq_global(rr)) / beta0;
      history.push_back(relres);
      if (relres <= opts.tol) {
        converged = true;
        break;
      }
    }
  }

  // Final true residual, physical solution.
  matvec(x, rr);
  for (std::size_t l = 0; l < nl; ++l) rr[l] = b_glob[l] - rr[l];
  const real_t final_relres =
      beta0 > 0.0 ? sqrt_nonneg(r.norm2_sq_global(rr)) / beta0 : 0.0;
  Vector u(nl);
  for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * x[l];
  out.solutions[static_cast<std::size_t>(rank)] = std::move(u);

  if (rank == 0) {
    out.converged = converged || final_relres <= opts.tol;
    out.iterations = iterations;
    out.final_relres = final_relres;
    out.history = std::move(history);
  }
}

}  // namespace

DistSolve solve_edd_bicgstab(
    const EddPartition& part, std::span<const real_t> f_global,
    const PolySpec& spec, const SolveOptions& opts,
    const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  PFEM_CHECK_MSG(opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd_bicgstab: need max_iters >= 1 and tol > 0");
  validate_poly_spec(spec);
  if (local_matrices != nullptr)
    PFEM_CHECK(local_matrices->size() == part.subs.size());
  const int p = part.nparts();

  SharedOut out;
  out.solutions.resize(static_cast<std::size_t>(p));
  out.setup_counters.resize(static_cast<std::size_t>(p));

  WallTimer timer;
  std::vector<par::PerfCounters> counters =
      par::run_spmd(p, [&](par::Comm& comm) {
        const auto s = static_cast<std::size_t>(comm.rank());
        const sparse::CsrMatrix& k =
            local_matrices ? (*local_matrices)[s] : part.subs[s].k_loc;
        edd_bicgstab_rank(part, k, f_global, spec, opts, comm, out);
      });

  DistSolve result;
  result.wall_seconds = timer.seconds();
  result.x = partition::edd_gather_global(part, out.solutions);
  result.converged = out.converged;
  result.iterations = out.iterations;
  result.final_relres = out.final_relres;
  result.history = std::move(out.history);
  result.rank_counters = std::move(counters);
  result.setup_counters = std::move(out.setup_counters);
  return result;
}

}  // namespace pfem::core
