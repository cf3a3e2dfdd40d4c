#include "core/fgmres.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "la/hessenberg_lsq.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

std::string solve_input_error(const SolveOptions& opts,
                              std::span<const real_t> rhs, bool restarted) {
  std::ostringstream os;
  if (restarted && opts.restart < 1)
    os << "restart must be >= 1 (got " << opts.restart << ")";
  else if (opts.max_iters < 1)
    os << "max_iters must be >= 1 (got " << opts.max_iters << ")";
  else if (!(opts.tol > 0.0) || !std::isfinite(opts.tol))
    os << "tol must be finite and > 0 (got " << opts.tol << ")";
  else
    for (std::size_t i = 0; i < rhs.size(); ++i)
      if (!std::isfinite(rhs[i])) {
        os << "RHS entry " << i << " is not finite (" << rhs[i] << ")";
        break;
      }
  return os.str();
}

void check_solve_input(const SolveOptions& opts, std::span<const real_t> rhs,
                       bool restarted) {
  const std::string err = solve_input_error(opts, rhs, restarted);
  if (!err.empty()) throw Error(err);
}

SolveReport fgmres(const LinearOp& a, std::span<const real_t> b,
                   std::span<real_t> x, Preconditioner& precond,
                   const SolveOptions& opts) {
  const std::size_t n = b.size();
  PFEM_CHECK(x.size() == n);
  PFEM_CHECK(a.size() == as_index(n));
  check_solve_input(opts, b);

  SolveReport result;
  const index_t m = opts.restart;

  // ‖b‖ = 0: x = 0 solves exactly and any relative residual is 0/0 —
  // return it in 0 iterations instead of iterating on NaNs.
  if (la::nrm2(b) == 0.0) {
    la::fill(x, 0.0);
    result.converged = true;
    result.trivial_rhs = true;
    result.final_relres = 0.0;
    return result;
  }

  Vector r(n);
  a.apply(x, r);                       // r = b - A x0
  la::sub(b, r, r);
  const real_t beta0 = la::nrm2(r);
  if (beta0 == 0.0) {                  // x0 already exact
    result.converged = true;
    result.final_relres = 0.0;
    return result;
  }

  std::vector<Vector> v(static_cast<std::size_t>(m) + 1, Vector(n));
  std::vector<Vector> z(static_cast<std::size_t>(m), Vector(n));
  Vector w(n);
  Vector h(static_cast<std::size_t>(m) + 1);

  real_t relres = 1.0;
  while (result.iterations < opts.max_iters) {
    // (Re)start: r = b - A x; beta = ||r||.
    a.apply(x, r);
    la::sub(b, r, r);
    const real_t beta = la::nrm2(r);
    relres = beta / beta0;
    if (relres <= opts.tol) break;
    // Only a cycle entered after a completed one counts as a restart,
    // so a solve finishing inside its first cycle reports 0.
    if (result.iterations > 0) ++result.restarts;
    la::copy(r, v[0]);
    la::scal(1.0 / beta, v[0]);

    la::HessenbergLsq lsq(m, beta);
    index_t j = 0;
    bool breakdown = false;
    for (; j < m && result.iterations < opts.max_iters; ++j) {
      // Flexible step: z_j = C v_j, w = A z_j.
      precond.apply(v[static_cast<std::size_t>(j)],
                    z[static_cast<std::size_t>(j)]);
      a.apply(z[static_cast<std::size_t>(j)], w);

      // Classical Gram-Schmidt: all j+1 dots against the same w, then
      // the updates.
      for (index_t i = 0; i <= j; ++i)
        h[static_cast<std::size_t>(i)] =
            la::dot(w, v[static_cast<std::size_t>(i)]);
      for (index_t i = 0; i <= j; ++i)
        la::axpy(-h[static_cast<std::size_t>(i)],
                 v[static_cast<std::size_t>(i)], w);
      const real_t hnext = la::nrm2(w);
      h[static_cast<std::size_t>(j) + 1] = hnext;

      relres = lsq.push_column(
                   std::span<const real_t>(h.data(),
                                           static_cast<std::size_t>(j) + 2)) /
               beta0;
      ++result.iterations;
      result.history.push_back(relres);

      if (hnext <= 1e-14 * beta0) {  // lucky breakdown: exact solution
        breakdown = true;
        ++j;
        break;
      }
      la::copy(w, v[static_cast<std::size_t>(j) + 1]);
      la::scal(1.0 / hnext, v[static_cast<std::size_t>(j) + 1]);

      if (relres <= opts.tol) {
        ++j;
        break;
      }
    }

    // Update x with the flexible basis: x += Z y.
    if (j > 0) {
      const Vector y = lsq.solve();
      for (index_t i = 0; i < j; ++i)
        la::axpy(y[static_cast<std::size_t>(i)], z[static_cast<std::size_t>(i)],
                 x);
    }
    if (breakdown) {
      result.breakdown = true;  // terminal, but not convergence by itself
      break;
    }
    if (relres <= opts.tol) break;
  }

  // Final true residual — the only arbiter of convergence.
  a.apply(x, r);
  la::sub(b, r, r);
  result.final_relres = la::nrm2(r) / beta0;
  result.converged = result.final_relres <= opts.tol;
  return result;
}

SolveReport fgmres(const sparse::CsrMatrix& a, std::span<const real_t> b,
                   std::span<real_t> x, Preconditioner& precond,
                   const SolveOptions& opts) {
  return fgmres(LinearOp::from_csr(a), b, x, precond, opts);
}

}  // namespace pfem::core
