#include "core/rdd_solver.hpp"

#include <cmath>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/chebyshev.hpp"
#include "core/gls_poly.hpp"
#include "la/hessenberg_lsq.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/sell.hpp"

namespace pfem::core {

namespace {

using partition::RddPartition;
using partition::RddSubdomain;
using sparse::CsrMatrix;

constexpr int kRddTag = 1;

/// The two rank-local operator blocks (A_loc, A_ext) in the selected
/// storage format.  Built once at setup from the *scaled* matrices; SELL
/// conversion preserves per-row accumulation order, so the iteration is
/// bit-identical across formats.
struct RddOp {
  const CsrMatrix* loc_csr = nullptr;
  const CsrMatrix* ext_csr = nullptr;
  sparse::SellMatrix loc_sell;
  sparse::SellMatrix ext_sell;
  bool sell = false;
  bool overlap = false;
  std::uint64_t spmv_flops = 0;

  void apply_loc(std::span<const real_t> x, std::span<real_t> y) const {
    if (sell) {
      loc_sell.spmv(x, y);
    } else {
      loc_csr->spmv(x, y);
    }
  }
  void apply_ext_add(std::span<const real_t> x_ext,
                     std::span<real_t> y) const {
    if (sell) {
      ext_sell.spmv_add(x_ext, y);
    } else {
      ext_csr->spmv_add(x_ext, y);
    }
  }
};

/// Rank-local RDD kernels: distributed mat-vec (Eq. 48) and reductions.
class RddRank {
 public:
  RddRank(const RddSubdomain& sub, par::Comm& comm)
      : sub_(sub), comm_(comm), nl_(static_cast<std::size_t>(sub.n_local())),
        x_ext_(std::max<std::size_t>(
            static_cast<std::size_t>(sub.n_ext()), 1)) {
    // Prepost the exchange buffers: sizes are fixed by the comm schedule,
    // so the per-iteration resizes in exchange_into_ext never allocate.
    std::size_t max_send = 0, max_recv = 0;
    for (const auto& nb : sub_.neighbors) {
      max_send = std::max(max_send, nb.send_local_rows.size());
      max_recv = std::max(max_recv, nb.recv_ext_positions.size());
    }
    send_buf_.reserve(max_send);
    recv_buf_.reserve(max_recv);
  }

  [[nodiscard]] std::size_t nl() const noexcept { return nl_; }
  [[nodiscard]] par::Comm& comm() noexcept { return comm_; }
  [[nodiscard]] par::PerfCounters& counters() noexcept {
    return comm_.counters();
  }

  /// y <- A x: scatter owned boundary values, gather externals, then
  /// y = A_loc x + A_ext x_ext (Eq. 48).  A_loc reads only owned entries
  /// of x, which the exchange never touches — with `op.overlap` it runs
  /// while the neighbor messages are in flight.  Exchange count per
  /// matvec is one either way.
  void matvec(const RddOp& op, std::span<const real_t> x,
              std::span<real_t> y) {
    OBS_SPAN(comm_.tracer(), "matvec", obs::Cat::Matvec);
    if (op.overlap) {
      exchange_start(x);
      op.apply_loc(x, y);
      exchange_finish();
    } else {
      exchange_into_ext(x);
      op.apply_loc(x, y);
    }
    if (sub_.n_ext() > 0) op.apply_ext_add(x_ext_, y);
    counters().matvecs += 1;
    counters().flops += op.spmv_flops;
    // Redundant ghost-row work of the paper's duplicated-element layout
    // (Fig. 8); zero unless annotate_rdd_fe_duplication() ran.
    counters().flops += sub_.matvec_extra_flops;
  }

  /// One scatter/gather phase filling x_ext from neighbors.
  void exchange_into_ext(std::span<const real_t> x) {
    // The "exchange" span and neighbor_exchanges count the same logical
    // event — a trace is an exact cross-check of the counters.
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    counters().neighbor_exchanges += 1;
    post_sends(x);
    recv_into_ext();
  }

  /// Split exchange, first half: post the boundary sends.  The logical
  /// exchange is counted here; the matching finish emits the "exchange"
  /// span, so a split exchange still contributes exactly one span and
  /// one neighbor_exchanges tick.
  void exchange_start(std::span<const real_t> x) {
    counters().neighbor_exchanges += 1;
    post_sends(x);
  }

  /// Split exchange, second half: complete the receives into x_ext.
  void exchange_finish() {
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    recv_into_ext();
  }

  [[nodiscard]] std::span<const real_t> x_ext() const { return x_ext_; }

  /// Global inner product (Eq. 47).
  [[nodiscard]] real_t dot(std::span<const real_t> x,
                           std::span<const real_t> y) {
    return comm_.allreduce_sum(dot_partial(x, y));
  }

  /// Local partial without the reduction (for batched coefficients).
  [[nodiscard]] real_t dot_partial(std::span<const real_t> x,
                                   std::span<const real_t> y) {
    counters().inner_products += 1;
    counters().flops += 2 * nl_;
    return la::dot(x, y);
  }

 private:
  /// Pack and post the boundary sends (both exchange forms share this,
  /// so the wire order cannot drift between them).
  void post_sends(std::span<const real_t> x) {
    for (const auto& nb : sub_.neighbors) {
      if (nb.send_local_rows.empty()) continue;
      PFEM_DEBUG_CHECK(send_buf_.capacity() >= nb.send_local_rows.size());
      send_buf_.resize(nb.send_local_rows.size());
      for (std::size_t k = 0; k < nb.send_local_rows.size(); ++k)
        send_buf_[k] = x[static_cast<std::size_t>(nb.send_local_rows[k])];
      comm_.exchange_start(nb.rank, kRddTag, send_buf_);
    }
  }

  /// Complete the receives and scatter into x_ext.
  void recv_into_ext() {
    for (const auto& nb : sub_.neighbors) {
      if (nb.recv_ext_positions.empty()) continue;
      PFEM_DEBUG_CHECK(recv_buf_.capacity() >= nb.recv_ext_positions.size());
      recv_buf_.resize(nb.recv_ext_positions.size());
      comm_.exchange_finish(
          nb.rank, kRddTag,
          std::span<real_t>(recv_buf_.data(), recv_buf_.size()));
      for (std::size_t k = 0; k < nb.recv_ext_positions.size(); ++k)
        x_ext_[static_cast<std::size_t>(nb.recv_ext_positions[k])] =
            recv_buf_[k];
    }
  }

  const RddSubdomain& sub_;
  par::Comm& comm_;
  std::size_t nl_;
  Vector x_ext_, send_buf_, recv_buf_;
};

struct SharedOut {
  std::vector<Vector> solutions;
  bool converged = false;
  bool breakdown = false;
  bool trivial_rhs = false;
  index_t iterations = 0;
  index_t restarts = 0;
  real_t final_relres = 0.0;
  std::vector<real_t> history;
  std::vector<par::PerfCounters> setup_counters;
};

void rdd_rank_solve(const RddPartition& part,
                    std::span<const real_t> f_global,
                    const RddOptions& rdd_opts, const SolveOptions& opts,
                    par::Comm& comm, SharedOut& out) {
  const int s = comm.rank();
  const RddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  RddRank r(sub, comm);
  const std::size_t nl = r.nl();
  const index_t m = opts.restart;

  obs::Tracer* const tr = comm.tracer();
  OBS_SPAN(tr, "solve_rdd", obs::Cat::Solve);

  // ---- Setup: local copies, norm-1 scaling (row norms need no comm —
  // rows are complete; external-column scaling needs one exchange).
  // The setup region declares state the solve loop uses, so it cannot be
  // a braced scope; open/close the span manually instead.
  const bool traced = tr != nullptr && tr->enabled();
  std::uint16_t setup_depth = 0;
  std::uint64_t setup_t0 = 0;
  if (traced) {
    setup_depth = tr->open();
    setup_t0 = tr->now_ns();
  }
  CsrMatrix a_loc = sub.a_loc;
  CsrMatrix a_ext = sub.a_ext;

  Vector f_loc(nl);
  for (std::size_t l = 0; l < nl; ++l)
    f_loc[l] = f_global[static_cast<std::size_t>(sub.rows[l])];

  Vector dscale(nl, 0.0);
  for (index_t i = 0; i < sub.n_local(); ++i) {
    real_t rownorm = 0.0;
    for (real_t v : a_loc.row_vals(i)) rownorm += std::abs(v);
    for (real_t v : a_ext.row_vals(i)) rownorm += std::abs(v);
    // A zero row norm is a degenerate row of the assembled operator:
    // typed, as in the EDD solvers.
    if (!(rownorm > 0.0))
      throw BadOperatorError(
          "norm-1 scaling: zero/degenerate row at global dof " +
          std::to_string(sub.rows[static_cast<std::size_t>(i)]));
    dscale[static_cast<std::size_t>(i)] = 1.0 / std::sqrt(rownorm);
  }
  r.counters().flops +=
      static_cast<std::uint64_t>(a_loc.nnz() + a_ext.nnz());
  // Exchange the scaling of boundary rows so external columns scale too.
  r.exchange_into_ext(dscale);
  const Vector d_ext(r.x_ext().begin(), r.x_ext().end());

  a_loc.scale_symmetric(dscale);
  {
    auto vals = a_ext.values();
    const auto rp = a_ext.row_ptr();
    const auto ci = a_ext.col_idx();
    for (index_t i = 0; i < a_ext.rows(); ++i)
      for (index_t k = rp[i]; k < rp[i + 1]; ++k)
        vals[k] *= dscale[static_cast<std::size_t>(i)] *
                   d_ext[static_cast<std::size_t>(ci[k])];
  }
  r.counters().flops +=
      2ull * static_cast<std::uint64_t>(a_loc.nnz() + a_ext.nnz());
  Vector b(nl);
  for (std::size_t l = 0; l < nl; ++l) b[l] = dscale[l] * f_loc[l];

  // Kernel selection: convert the scaled blocks to SELL-C-σ when
  // requested (bit-identical per-row accumulation), and overlap A_loc
  // with the in-flight exchange when enabled.  Format::Ebe documented
  // fallback: RDD rows are FULLY assembled (local + external column
  // blocks), so no per-subdomain element sub-assembly exists to run a
  // matrix-free sweep on — the scalar CSR path is used, bit-identically
  // to Format::Csr.
  RddOp op;
  op.overlap = opts.kernels.overlap;
  op.spmv_flops = a_loc.spmv_flops() + a_ext.spmv_flops();
  if (opts.kernels.format == KernelOptions::Format::Sell) {
    op.sell = true;
    op.loc_sell = sparse::SellMatrix::from_csr(a_loc, opts.kernels.chunk,
                                               opts.kernels.sigma);
    if (sub.n_ext() > 0)
      op.ext_sell = sparse::SellMatrix::from_csr(a_ext, opts.kernels.chunk,
                                                 opts.kernels.sigma);
  } else {
    op.loc_csr = &a_loc;
    op.ext_csr = &a_ext;
  }

  // Preconditioner: polynomial (redundant construction) or local ILU(0)
  // block-Jacobi solve.
  std::optional<GlsPolynomial> gls;
  std::optional<ChebyshevPolynomial> cheb;
  std::optional<sparse::Ilu0> ilu;
  std::optional<sparse::Ilu0> schwarz_ilu;
  const std::size_t n_ovl = nl + static_cast<std::size_t>(sub.n_ext());
  int degree = 0;
  if (rdd_opts.precond == RddOptions::Precond::BlockJacobiIlu) {
    ilu.emplace(a_loc);
  } else if (rdd_opts.precond == RddOptions::Precond::AdditiveSchwarz) {
    // Scale the overlap block consistently with the scaled system:
    // rows/cols 0..nl-1 carry dscale, the appended externals carry d_ext.
    sparse::CsrMatrix a_ovl = sub.a_overlap;
    Vector d_full(n_ovl);
    for (std::size_t l = 0; l < nl; ++l) d_full[l] = dscale[l];
    for (std::size_t k = 0; k < static_cast<std::size_t>(sub.n_ext()); ++k)
      d_full[nl + k] = d_ext[k];
    a_ovl.scale_symmetric(d_full);
    schwarz_ilu.emplace(a_ovl);
  } else if (rdd_opts.poly.kind == PolyKind::Gls) {
    gls.emplace(rdd_opts.poly.theta, rdd_opts.poly.degree);
    degree = rdd_opts.poly.degree;
  } else if (rdd_opts.poly.kind == PolyKind::Chebyshev) {
    PFEM_CHECK_MSG(!rdd_opts.poly.theta.empty(),
                   "Chebyshev preconditioner needs an interval");
    cheb.emplace(rdd_opts.poly.theta.front(), rdd_opts.poly.degree);
    degree = rdd_opts.poly.degree;
  } else if (rdd_opts.poly.kind == PolyKind::Neumann) {
    degree = rdd_opts.poly.degree;
  }
  out.setup_counters[static_cast<std::size_t>(s)] = comm.counters();
  if (traced) tr->close("setup", obs::Cat::Setup, setup_t0, setup_depth);

  // z = P(A) v through the distributed mat-vec: `degree` exchanges.
  Vector pa(nl), pb(nl), pc(nl);
  Vector ovl_rhs(n_ovl), ovl_sol(n_ovl);
  auto precondition = [&](std::span<const real_t> v, std::span<real_t> zz) {
    if (rdd_opts.precond == RddOptions::Precond::BlockJacobiIlu) {
      ilu->solve(v, zz);
      r.counters().flops += ilu->solve_flops();
      return;
    }
    if (rdd_opts.precond == RddOptions::Precond::AdditiveSchwarz) {
      // Restricted additive Schwarz: gather the external residual
      // entries (one exchange), solve on the overlap block, keep the
      // owned part of the solution.
      r.exchange_into_ext(v);
      for (std::size_t l = 0; l < nl; ++l) ovl_rhs[l] = v[l];
      const auto ext = r.x_ext();
      for (std::size_t k = 0; k < static_cast<std::size_t>(sub.n_ext()); ++k)
        ovl_rhs[nl + k] = ext[k];
      schwarz_ilu->solve(ovl_rhs, ovl_sol);
      r.counters().flops += schwarz_ilu->solve_flops();
      for (std::size_t l = 0; l < nl; ++l) zz[l] = ovl_sol[l];
      return;
    }
    switch (rdd_opts.poly.kind) {
      case PolyKind::None:
        la::copy(v, zz);
        return;
      case PolyKind::Neumann: {
        Vector& w = pa;
        Vector& aw = pb;
        la::copy(v, w);
        const real_t omega = rdd_opts.poly.omega;
        for (int k = 0; k < degree; ++k) {
          r.matvec(op, w, aw);
          for (std::size_t i = 0; i < nl; ++i)
            w[i] = v[i] + w[i] - omega * aw[i];
          r.counters().flops += 3 * nl;
          r.counters().vector_updates += 1;
        }
        for (std::size_t i = 0; i < nl; ++i) zz[i] = omega * w[i];
        return;
      }
      case PolyKind::Gls: {
        const OrthoBasis& basis = gls->basis();
        const auto mu = gls->mu();
        Vector& u_prev = pa;
        Vector& u = pb;
        Vector& au = pc;
        la::fill(u_prev, 0.0);
        const real_t inv0 = 1.0 / basis.sqrt_beta(0);
        for (std::size_t i = 0; i < nl; ++i) {
          u[i] = inv0 * v[i];
          zz[i] = mu[0] * u[i];
        }
        for (int i = 0; i < degree; ++i) {
          r.matvec(op, u, au);
          const real_t ai = basis.alpha(i);
          const real_t sb_i = basis.sqrt_beta(i);
          const real_t sb_n = basis.sqrt_beta(i + 1);
          const real_t mu_next = mu[static_cast<std::size_t>(i) + 1];
          for (std::size_t k = 0; k < nl; ++k) {
            const real_t t =
                (au[k] - ai * u[k] - (i > 0 ? sb_i * u_prev[k] : 0.0)) / sb_n;
            u_prev[k] = u[k];
            u[k] = t;
            zz[k] += mu_next * t;
          }
          r.counters().flops += 7 * nl;
          r.counters().vector_updates += 1;
        }
        return;
      }
      case PolyKind::Chebyshev: {
        // Chebyshev semi-iteration through the distributed mat-vec.
        const Interval iv = rdd_opts.poly.theta.front();
        const real_t theta = 0.5 * (iv.lo + iv.hi);
        const real_t delta = 0.5 * (iv.hi - iv.lo);
        const real_t sigma1 = theta / delta;
        Vector& res = pa;
        Vector& dvec = pb;
        Vector& ad = pc;
        la::copy(v, res);
        real_t rho = 1.0 / sigma1;
        for (std::size_t i = 0; i < nl; ++i) {
          dvec[i] = res[i] / theta;
          zz[i] = dvec[i];
        }
        for (int k = 1; k <= degree; ++k) {
          r.matvec(op, dvec, ad);
          const real_t rho_next = 1.0 / (2.0 * sigma1 - rho);
          const real_t c1 = rho_next * rho;
          const real_t c2 = 2.0 * rho_next / delta;
          for (std::size_t i = 0; i < nl; ++i) {
            res[i] -= ad[i];
            dvec[i] = c1 * dvec[i] + c2 * res[i];
            zz[i] += dvec[i];
          }
          rho = rho_next;
          r.counters().flops += 6 * nl;
          r.counters().vector_updates += 1;
        }
        return;
      }
    }
  };

  // ---- FGMRES (Algorithm 8).
  Vector x(nl, 0.0), res(nl), w(nl);
  std::vector<Vector> v(static_cast<std::size_t>(m) + 1, Vector(nl));
  std::vector<Vector> z(static_cast<std::size_t>(m), Vector(nl));
  Vector h(static_cast<std::size_t>(m) + 2);
  Vector h2(static_cast<std::size_t>(m) + 2);

  bool broke_down = false;
  index_t iterations = 0, restarts = 0;
  real_t beta0 = -1.0, relres = 1.0;

  while (iterations < opts.max_iters) {
    r.matvec(op, x, res);
    for (std::size_t l = 0; l < nl; ++l) res[l] = b[l] - res[l];
    const real_t beta = std::sqrt(r.dot(res, res));
    if (beta0 < 0.0) {
      beta0 = beta;
      if (beta0 == 0.0) {
        relres = 0.0;
        if (s == 0) out.trivial_rhs = true;
        break;
      }
    }
    relres = beta / beta0;
    if (relres <= opts.tol) break;
    if (iterations > 0) {
      // Only a cycle entered after a completed one counts as a restart.
      ++restarts;
      if (s == 0) out.restarts = restarts;
    }
    for (std::size_t l = 0; l < nl; ++l) v[0][l] = res[l] / beta;

    la::HessenbergLsq lsq(m, beta);
    index_t j = 0;
    bool breakdown = false;
    for (; j < m && iterations < opts.max_iters; ++j) {
      OBS_SPAN(tr, "arnoldi", obs::Cat::Solve,
               static_cast<std::uint32_t>(iterations));
      {
        OBS_SPAN(tr, "precond", obs::Cat::Precond);
        precondition(v[static_cast<std::size_t>(j)],
                     z[static_cast<std::size_t>(j)]);
      }
      r.matvec(op, z[static_cast<std::size_t>(j)], w);

      // One global reduction per h_ij, as in the paper's Algorithm 8
      // (Table 1: ~m̃+1 global communications per iteration), optionally
      // batched; optional second CGS pass.
      const int gs_passes = opts.reorthogonalize ? 2 : 1;
      {
        OBS_SPAN(tr, "gram_schmidt", obs::Cat::Ortho);
        for (int pass = 0; pass < gs_passes; ++pass) {
          Vector& coeff = pass == 0 ? h : h2;
          if (opts.batched_reductions) {
            for (index_t i = 0; i <= j; ++i)
              coeff[static_cast<std::size_t>(i)] =
                  r.dot_partial(w, v[static_cast<std::size_t>(i)]);
            comm.allreduce_sum(std::span<real_t>(
                coeff.data(), static_cast<std::size_t>(j) + 1));
          } else {
            for (index_t i = 0; i <= j; ++i)
              coeff[static_cast<std::size_t>(i)] =
                  r.dot(w, v[static_cast<std::size_t>(i)]);
          }
          for (index_t i = 0; i <= j; ++i)
            la::axpy(-coeff[static_cast<std::size_t>(i)],
                     v[static_cast<std::size_t>(i)], w);
          r.counters().flops += 2 * nl * static_cast<std::size_t>(j + 1);
          r.counters().vector_updates += static_cast<std::uint64_t>(j) + 1;
          if (pass > 0)
            for (index_t i = 0; i <= j; ++i)
              h[static_cast<std::size_t>(i)] +=
                  coeff[static_cast<std::size_t>(i)];
        }
      }
      const real_t hnext = std::sqrt(r.dot(w, w));
      h[static_cast<std::size_t>(j) + 1] = hnext;

      relres = lsq.push_column(std::span<const real_t>(
                   h.data(), static_cast<std::size_t>(j) + 2)) /
               beta0;
      ++iterations;
      if (s == 0) {
        // Incremental single-writer report: a comm failure mid-solve
        // still leaves a truthful partial history (see edd_solver).
        out.history.push_back(relres);
        out.iterations = iterations;
        out.final_relres = relres;
        if (tr != nullptr) tr->counter("relres", obs::Cat::Solve, relres);
        if (opts.observe.progress) opts.observe.progress(iterations, relres, 0);
      }

      if (hnext <= 1e-14 * beta0) {
        breakdown = true;
        ++j;
        break;
      }
      for (std::size_t l = 0; l < nl; ++l)
        v[static_cast<std::size_t>(j) + 1][l] = w[l] / hnext;

      if (relres <= opts.tol) {
        ++j;
        break;
      }
    }

    if (j > 0) {
      const Vector y = lsq.solve();
      for (index_t i = 0; i < j; ++i)
        la::axpy(y[static_cast<std::size_t>(i)],
                 z[static_cast<std::size_t>(i)], x);
      r.counters().flops += 2 * nl * static_cast<std::size_t>(j);
      r.counters().vector_updates += static_cast<std::uint64_t>(j);
    }
    if (breakdown) {
      broke_down = true;  // terminal, but not convergence by itself
      break;
    }
    if (relres <= opts.tol) break;
  }

  // ---- Final residual and physical solution u = D x.
  r.matvec(op, x, res);
  for (std::size_t l = 0; l < nl; ++l) res[l] = b[l] - res[l];
  const real_t final_res = std::sqrt(r.dot(res, res));
  const real_t final_relres = beta0 > 0.0 ? final_res / beta0 : 0.0;

  Vector u(nl);
  for (std::size_t l = 0; l < nl; ++l) u[l] = dscale[l] * x[l];
  out.solutions[static_cast<std::size_t>(s)] = std::move(u);

  if (s == 0) {
    // The final TRUE relative residual is the only arbiter (see
    // edd_solver): breakdown/trivial exits are reported as flags.
    out.converged = final_relres <= opts.tol;
    out.breakdown = broke_down;
    out.iterations = iterations;
    out.restarts = restarts;
    out.final_relres = final_relres;
  }
}

}  // namespace

DistSolve solve_rdd(const RddPartition& part,
                          std::span<const real_t> f_global,
                          const RddOptions& rdd_opts,
                          const SolveOptions& opts) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  PFEM_CHECK_MSG(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_rdd: need restart >= 1, max_iters >= 1, tol > 0");
  if (rdd_opts.precond == RddOptions::Precond::Poly &&
      rdd_opts.poly.kind == PolyKind::Gls)
    validate_theta(rdd_opts.poly.theta);
  const int p = part.nparts();

  SharedOut out;
  out.solutions.resize(static_cast<std::size_t>(p));
  out.setup_counters.resize(static_cast<std::size_t>(p));

  std::shared_ptr<obs::Trace> trace;
  if (opts.observe.trace)
    trace = std::make_shared<obs::Trace>(p, opts.observe.ring_capacity);

  WallTimer timer;
  std::vector<par::PerfCounters> counters;
  std::string comm_error;
  try {
    counters = par::run_spmd(
        p,
        [&](par::Comm& comm) {
          rdd_rank_solve(part, f_global, rdd_opts, opts, comm, out);
        },
        trace.get(), opts.observe.fault_injector,
        opts.observe.comm_timeout_seconds);
  } catch (const par::CommError& e) {
    comm_error = e.what();
  }

  if (!comm_error.empty()) {
    DistSolve result;
    result.wall_seconds = timer.seconds();
    result.trace = std::move(trace);
    result.converged = false;
    result.comm_error = std::move(comm_error);
    result.breakdown = out.breakdown;
    result.trivial_rhs = out.trivial_rhs;
    result.iterations = out.iterations;
    result.restarts = out.restarts;
    result.final_relres = out.final_relres;
    result.history = std::move(out.history);
    return result;
  }

  DistSolve result;
  result.wall_seconds = timer.seconds();
  result.trace = std::move(trace);
  result.x = partition::rdd_gather(part, out.solutions);
  result.converged = out.converged;
  result.breakdown = out.breakdown;
  result.trivial_rhs = out.trivial_rhs;
  result.iterations = out.iterations;
  result.restarts = out.restarts;
  result.final_relres = out.final_relres;
  result.history = std::move(out.history);
  result.rank_counters = std::move(counters);
  result.setup_counters = std::move(out.setup_counters);
  return result;
}

}  // namespace pfem::core
