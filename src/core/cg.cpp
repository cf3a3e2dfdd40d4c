#include "core/cg.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/edd_kernels.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

SolveReport pcg(const LinearOp& a, std::span<const real_t> b,
                std::span<real_t> x, Preconditioner& precond,
                const SolveOptions& opts) {
  const std::size_t n = b.size();
  PFEM_CHECK(x.size() == n);
  PFEM_CHECK(a.size() == as_index(n));
  PFEM_CHECK(opts.max_iters >= 1 && opts.tol > 0.0);

  SolveReport result;
  // ‖b‖ = 0: x = 0 solves exactly and any relative residual is 0/0 —
  // return it in 0 iterations instead of iterating on NaNs.
  if (la::nrm2(b) == 0.0) {
    la::fill(x, 0.0);
    result.converged = true;
    return result;
  }

  Vector r(n), z(n), p(n), ap(n);
  a.apply(x, r);
  la::sub(b, r, r);
  const real_t beta0 = la::nrm2(r);
  if (beta0 == 0.0) {
    result.converged = true;
    return result;
  }

  precond.apply(r, z);
  la::copy(z, p);
  real_t rho = la::dot(r, z);

  while (result.iterations < opts.max_iters) {
    a.apply(p, ap);
    const real_t pap = la::dot(p, ap);
    PFEM_CHECK_MSG(pap > 0.0, "PCG: operator not positive definite "
                              "(p^T A p <= 0)");
    const real_t alpha = rho / pap;
    la::axpy(alpha, p, x);
    la::axpy(-alpha, ap, r);
    ++result.iterations;

    const real_t relres = la::nrm2(r) / beta0;
    result.history.push_back(relres);
    if (relres <= opts.tol) {
      result.converged = true;
      break;
    }

    precond.apply(r, z);
    const real_t rho_new = la::dot(r, z);
    if (rho == 0.0) break;  // <r,z> underflowed to zero: stagnated search
    const real_t beta = rho_new / rho;
    rho = rho_new;
    la::axpby(1.0, z, beta, p);  // p = z + beta p
  }
  Vector check(n);
  a.apply(x, check);
  la::sub(b, check, check);
  result.final_relres = la::nrm2(check) / beta0;
  if (result.final_relres <= opts.tol) result.converged = true;
  return result;
}

SolveReport pcg(const sparse::CsrMatrix& a, std::span<const real_t> b,
                std::span<real_t> x, Preconditioner& precond,
                const SolveOptions& opts) {
  return pcg(LinearOp::from_csr(a), b, x, precond, opts);
}

namespace {

using detail::DistPoly;
using detail::EddRank;
using detail::invert_sqrt_row_norms;
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

void edd_cg_rank_solve(const EddPartition& part, const CsrMatrix& k_in,
                       const sparse::EbeStore* elems,
                       std::span<const real_t> f_global, const PolySpec& spec,
                       const SolveOptions& opts, par::Comm& comm,
                       SharedOut& out) {
  const int s = comm.rank();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  EddRank r(sub, comm);
  const std::size_t nl = r.nl();

  // ---- Setup: identical to the FGMRES path (Algorithms 3/4).
  Vector f_loc(nl);
  for (std::size_t l = 0; l < nl; ++l)
    f_loc[l] =
        f_global[static_cast<std::size_t>(sub.local_to_global[l])] /
        static_cast<real_t>(sub.multiplicity[l]);
  Vector d = k_in.row_norms1();
  r.counters().flops += static_cast<std::uint64_t>(k_in.nnz());
  r.exchange(d);
  invert_sqrt_row_norms(sub, d);
  const RankKernel a(k_in, Vector(d), sub.interface_local_dofs, opts.kernels,
                     elems);
  r.counters().flops += 2ull * static_cast<std::uint64_t>(k_in.nnz());
  Vector b_loc(nl);
  for (std::size_t l = 0; l < nl; ++l) b_loc[l] = d[l] * f_loc[l];

  DistPoly poly(spec, nl, &r.counters());
  out.setup_counters[static_cast<std::size_t>(s)] = comm.counters();

  // ---- PCG.  x, p, z in global format; residual kept in both formats.
  Vector x(nl, 0.0), r_loc(nl), r_glob(nl), z(nl), p(nl), ap_loc(nl);
  la::copy(b_loc, r_loc);  // r = b - A*0
  la::copy(r_loc, r_glob);
  r.exchange(r_glob);
  const real_t beta0 = sqrt_nonneg(r.dot_lg(r_loc, r_glob));

  bool converged = false;
  index_t iterations = 0;
  real_t relres = 1.0;
  std::vector<real_t> history;

  if (beta0 == 0.0) {
    converged = true;
    relres = 0.0;
  } else {
    poly.apply_global(r, a, r_glob, z);  // z = P(A) r  (m exchanges)
    la::copy(z, p);
    real_t rho = r.dot_lg(r_loc, z);

    while (iterations < opts.max_iters) {
      r.spmv(a, p, ap_loc);  // Ap in local format; p is global
      const real_t pap = r.dot_lg(ap_loc, p);
      PFEM_CHECK_MSG(pap > 0.0, "EDD-PCG: p^T A p <= 0");
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
      history.push_back(relres);
      if (relres <= opts.tol) {
        converged = true;
        break;
      }

      poly.apply_global(r, a, r_glob, z);  // m exchanges
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
  out.solutions[static_cast<std::size_t>(s)] = std::move(u);

  if (s == 0) {
    out.converged = converged || final_relres <= opts.tol;
    out.iterations = iterations;
    out.final_relres = final_relres;
    out.history = std::move(history);
  }
}

}  // namespace

DistSolve solve_edd_cg(const EddPartition& part,
                             std::span<const real_t> f_global,
                             const PolySpec& spec, const SolveOptions& opts,
                             const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  PFEM_CHECK_MSG(opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd_cg: max_iters must be >= 1 and tol > 0");
  validate_poly_spec(spec);
  if (local_matrices != nullptr)
    PFEM_CHECK(local_matrices->size() == part.subs.size());
  // Matrix override + matrix-free kernel: the element store would be
  // stale — same guard as solve_edd.
  PFEM_CHECK_MSG(!(opts.kernels.format == KernelOptions::Format::Ebe &&
                   local_matrices != nullptr),
                 "Format::Ebe cannot be combined with a local-matrix "
                 "override: the partition's element store holds the "
                 "originally assembled operator, not the override");
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
        const sparse::EbeStore* const elems =
            local_matrices ? nullptr : part.subs[s].elem_store.get();
        edd_cg_rank_solve(part, k, elems, f_global, spec, opts, comm, out);
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
