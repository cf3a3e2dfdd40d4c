#include "core/edd_solver.hpp"

#include "core/edd_batch.hpp"
#include "core/edd_kernels.hpp"

#include <cmath>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/deflation.hpp"
#include "core/gls_poly.hpp"
#include "core/neumann.hpp"
#include "la/hessenberg_lsq.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

std::string PolySpec::name() const {
  switch (kind) {
    case PolyKind::None: return "none";
    case PolyKind::Neumann: return "Neumann(" + std::to_string(degree) + ")";
    case PolyKind::Gls: return "GLS(" + std::to_string(degree) + ")";
    case PolyKind::Chebyshev: return "Cheb(" + std::to_string(degree) + ")";
  }
  return "?";
}

void validate_poly_spec(const PolySpec& spec) {
  if (spec.kind == PolyKind::None) return;
  PFEM_CHECK_MSG(spec.degree >= 1,
                 "polynomial preconditioner " << spec.name()
                 << ": degree must be >= 1");
  if (spec.kind == PolyKind::Gls) validate_theta(spec.theta);
  if (spec.kind == PolyKind::Chebyshev) {
    PFEM_CHECK_MSG(!spec.theta.empty(),
                   "Chebyshev preconditioner needs a spectrum interval "
                   "(theta is empty)");
    PFEM_CHECK_MSG(spec.theta.size() == 1,
                   "Chebyshev preconditioner needs a single interval, got "
                   << spec.theta.size()
                   << " (the semi-iteration has no multi-interval form; "
                      "use GLS for indefinite spectra)");
    PFEM_CHECK_MSG(spec.theta.front().lo < spec.theta.front().hi,
                   "Chebyshev interval is empty or inverted");
    PFEM_CHECK_MSG(spec.theta.front().lo > 0.0,
                   "Chebyshev preconditioner needs a strictly positive "
                   "interval (lo > 0)");
  }
}

namespace {

using partition::EddPartition;
using partition::EddSubdomain;
using sparse::CsrMatrix;
using detail::DistPoly;
using detail::EddRank;
using detail::exchange_spmv;
using detail::invert_sqrt_row_norms;
using detail::sqrt_nonneg;

/// Shared output written by the ranks (join() publishes it).
struct SharedOut {
  std::vector<Vector> solutions;  // per-rank u in global distributed format
  bool converged = false;
  bool breakdown = false;
  bool trivial_rhs = false;
  index_t iterations = 0;
  index_t restarts = 0;
  real_t final_relres = 0.0;
  std::vector<real_t> history;
  std::vector<par::PerfCounters> setup_counters;
};

void edd_rank_solve(const EddPartition& part, const CsrMatrix& k_in,
                    const sparse::EbeStore* elems,
                    std::span<const real_t> f_global, const PolySpec& spec,
                    const SolveOptions& opts, EddVariant variant,
                    par::Comm& comm, SharedOut& out) {
  const int s = comm.rank();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  EddRank r(sub, comm);
  obs::Tracer* const tr = comm.tracer();
  const std::size_t nl = r.nl();
  const index_t m = opts.restart;
  const bool basic = (variant == EddVariant::Basic);
  OBS_SPAN(tr, "solve_edd", obs::Cat::Solve);

  // ---- Setup: rhs in local distributed format, distributed norm-1
  // scaling (Algorithms 3/4), redundant preconditioner construction.
  const WallTimer setup_timer;
  Vector d;
  Vector b_loc(nl);
  std::optional<RankKernel> kern;
  {
    OBS_SPAN(tr, "setup", obs::Cat::Setup);
    Vector f_loc(nl);
    for (std::size_t l = 0; l < nl; ++l)
      f_loc[l] =
          f_global[static_cast<std::size_t>(sub.local_to_global[l])] /
          static_cast<real_t>(sub.multiplicity[l]);

    d = k_in.row_norms1();  // partial row norms d_i^(s) (Eq. 43)
    r.counters().flops += static_cast<std::uint64_t>(k_in.nnz());
    r.exchange(d);              // d_i = Σ_s d_i^(s) (Eq. 42)
    invert_sqrt_row_norms(sub, d);
    // Â = D̂ K̂ D̂ (Eq. 44): every kernel format folds D into its stored
    // entries once at build — the 2*nnz scaling work is charged here so
    // setup/iteration flop accounting stays comparable across formats.
    kern.emplace(k_in, Vector(d), sub.interface_local_dofs, opts.kernels,
                 elems);
    r.counters().flops += 2ull * static_cast<std::uint64_t>(k_in.nnz());
    for (std::size_t l = 0; l < nl; ++l) b_loc[l] = d[l] * f_loc[l];
    r.counters().flops += nl;
  }
  const RankKernel& a = *kern;

  std::optional<DistPoly> poly_store;
  {
    OBS_SPAN(tr, "build_poly", obs::Cat::Setup);
    poly_store.emplace(spec, nl, &r.counters());
  }
  DistPoly& poly = *poly_store;

  // Two-level deflation setup: E = ZᵀÂZ assembled from the local
  // sub-matrices in one nnz sweep, completed by ONE allreduce of the
  // dense buffer, then LU-factorized redundantly — the allreduce makes E
  // bit-identical on every rank, so each rank's factor (and every later
  // coarse solve) is too, and no broadcast is ever needed.
  std::optional<DeflationRank> defl;
  std::optional<CoarseOperator> coarse;
  Vector cbuf, zy, vdef;
  if (opts.deflation.enabled) {
    OBS_SPAN(tr, "build_coarse", obs::Cat::Setup);
    Vector w(nl);  // Z weights 1/d̂: the scaled operator's near-null basis
    for (std::size_t l = 0; l < nl; ++l) w[l] = 1.0 / d[l];
    defl.emplace(sub, s, part.nparts(), opts.deflation, w);
    const index_t nc = defl->ncoarse();
    la::DenseMatrix e(nc, nc);
    defl->accumulate_e(k_in, d, e);
    r.counters().flops += 3ull * static_cast<std::uint64_t>(k_in.nnz());
    comm.allreduce_sum(e.data());
    coarse.emplace(std::move(e));
    const auto ncc = static_cast<std::uint64_t>(nc);
    r.counters().flops += 2 * ncc * ncc * ncc / 3;
    cbuf.resize(static_cast<std::size_t>(nc));
    zy.resize(nl);
    vdef.resize(nl);
  }

  // Deflated preconditioner application B v = M (v − ÂQv) + Qv with
  // Q = ZE⁻¹Zᵀ — "A-DEF1" in Tang/Nabben/Vuik/Erlangga's taxonomy, the
  // same variant the batch path applies.  (A-DEF2, the M-first order,
  // only matches it when started from the special x0 = Qb; from the
  // zero start used here it measurably degrades.)  Per application the
  // correction costs ONE small allreduce (the coarse residual) and one
  // extra mat-vec ÂZy.  Zy is globally consistent by construction —
  // col() and w() depend only on the global dof id — so Basic needs NO
  // extra exchange (the mat-vec's input is already global); Enhanced
  // globalizes the mat-vec's local-format result with one.
  const auto coarse_residual = [&](const Vector& vin, bool global_fmt) {
    la::fill(cbuf, 0.0);
    if (global_fmt)
      defl->restrict_global(vin, cbuf);  // Zᵀv, v in global format
    else
      defl->restrict_local(vin, cbuf);   // Zᵀv, v in local format
    r.counters().flops += 2 * nl;
    comm.allreduce_sum(cbuf);
    coarse->solve(cbuf);  // y = E⁻¹Zᵀv, bit-identical on every rank
    r.counters().coarse_solves += 1;
    r.counters().flops += coarse->solve_flops();
  };
  const auto precond_local = [&](const Vector& vin, Vector& zout) {
    if (defl) {
      OBS_SPAN(tr, "coarse_correct", obs::Cat::Precond);
      coarse_residual(vin, /*global_fmt=*/false);
      defl->prolong_global(cbuf, zy);  // Zy, globally consistent as-is
      r.spmv(a, zy, vdef);             // ÂZy in local format — no exchange
      for (std::size_t l = 0; l < nl; ++l) vdef[l] = vin[l] - vdef[l];
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
    }
    {
      OBS_SPAN(tr, "poly_apply", obs::Cat::Precond);
      poly.apply_local(r, a, defl ? vdef : vin, zout);
    }
    if (defl) {
      defl->prolong_local(cbuf, zy);  // Zy in local format this time
      for (std::size_t l = 0; l < nl; ++l) zout[l] += zy[l];
      r.counters().flops += 3 * nl;
      r.counters().vector_updates += 1;
    }
  };
  const auto precond_global = [&](const Vector& vin, Vector& zout) {
    if (defl) {
      OBS_SPAN(tr, "coarse_correct", obs::Cat::Precond);
      coarse_residual(vin, /*global_fmt=*/true);
      defl->prolong_global(cbuf, zy);
      r.spmv(a, zy, vdef);  // ÂZy in local format
      r.exchange(vdef);     // the one extra exchange of a deflated iter
      for (std::size_t l = 0; l < nl; ++l) vdef[l] = vin[l] - vdef[l];
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
    }
    {
      OBS_SPAN(tr, "poly_apply", obs::Cat::Precond);
      poly.apply_global(r, a, defl ? vdef : vin, zout);
    }
    if (defl) {
      for (std::size_t l = 0; l < nl; ++l) zout[l] += zy[l];
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
    }
  };

  out.setup_counters[static_cast<std::size_t>(s)] = comm.counters();
  out.setup_counters[static_cast<std::size_t>(s)].total_seconds =
      setup_timer.seconds();

  // ---- FGMRES (Algorithm 5 when basic, Algorithm 6 otherwise).
  // Basic keeps x and the Arnoldi basis in local format; Enhanced keeps
  // them in global format.
  Vector x(nl, 0.0);
  Vector r_loc(nl), r_glob(nl), w_loc(nl), w_glob(nl), tmp(nl);
  std::vector<Vector> v(static_cast<std::size_t>(m) + 1, Vector(nl));
  std::vector<Vector> z(static_cast<std::size_t>(m), Vector(nl));
  Vector h(static_cast<std::size_t>(m) + 2);
  Vector h2(static_cast<std::size_t>(m) + 2);  // re-orthogonalization pass

  bool broke_down = false;
  index_t iterations = 0, restarts = 0;
  real_t beta0 = -1.0, relres = 1.0;

  while (iterations < opts.max_iters) {
    // Residual r = b − A x.
    if (basic) {
      la::copy(x, tmp);  // x must be global for the SpMV
      exchange_spmv(r, a, tmp, r_loc);
    } else {
      r.spmv(a, x, r_loc);
    }
    for (std::size_t l = 0; l < nl; ++l) r_loc[l] = b_loc[l] - r_loc[l];
    r.counters().flops += nl;
    la::copy(r_loc, r_glob);
    r.exchange(r_glob);
    const real_t beta = sqrt_nonneg(r.dot_lg(r_loc, r_glob));
    if (beta0 < 0.0) {
      beta0 = beta;
      if (beta0 == 0.0) {  // zero rhs: x = 0 is exact
        relres = 0.0;
        if (s == 0) out.trivial_rhs = true;
        break;
      }
    }
    relres = beta / beta0;
    if (relres <= opts.tol) break;

    if (iterations > 0) {
      // Re-entering Arnoldi after a completed cycle: only now has a
      // restart actually happened (a first-cycle convergence reports 0).
      ++restarts;
      if (s == 0) out.restarts = restarts;
    }

    // v_0 = r / beta in the variant's basis format.
    if (basic)
      for (std::size_t l = 0; l < nl; ++l) v[0][l] = r_loc[l] / beta;
    else
      for (std::size_t l = 0; l < nl; ++l) v[0][l] = r_glob[l] / beta;
    r.counters().flops += nl;
    r.counters().vector_updates += 1;

    la::HessenbergLsq lsq(m, beta);
    index_t j = 0;
    bool breakdown = false;
    for (; j < m && iterations < opts.max_iters; ++j) {
      OBS_SPAN(tr, "arnoldi", obs::Cat::Solve,
               static_cast<std::uint32_t>(iterations));
      auto& vj = v[static_cast<std::size_t>(j)];
      auto& zj = z[static_cast<std::size_t>(j)];

      const int gs_passes = opts.reorthogonalize ? 2 : 1;
      if (basic) {
        // -- Algorithm 5 inner step: m+3 exchanges total (deflation
        // adds an allreduce + a mat-vec but no exchange).
        precond_local(vj, zj);                 // m exchanges
        la::copy(zj, tmp);
        exchange_spmv(r, a, tmp, w_loc);       // (+1) ẑ -> global
        la::copy(w_loc, w_glob);
        r.exchange(w_glob);                    // (+1) ŵ -> global
        // h_i = <w, v_i> = ⊕Σ <ŵ_glob, v̂_i_loc> (Eq. 34) — one global
        // reduction per i, as in the paper's Algorithm 5 line 18 (its
        // Table 1 charges ~m̃+1 global communications per iteration),
        // unless batched_reductions folds them into one allreduce.
        {
          OBS_SPAN(tr, "gram_schmidt", obs::Cat::Ortho);
          for (int pass = 0; pass < gs_passes; ++pass) {
            if (pass > 0) {  // refresh the global copy of the updated w
              la::copy(w_loc, w_glob);
              r.exchange(w_glob);
            }
            Vector& coeff = pass == 0 ? h : h2;
            if (opts.batched_reductions) {
              for (index_t i = 0; i <= j; ++i)
                coeff[static_cast<std::size_t>(i)] = r.dot_lg_partial(
                    v[static_cast<std::size_t>(i)], w_glob);
              comm.allreduce_sum(std::span<real_t>(
                  coeff.data(), static_cast<std::size_t>(j) + 1));
            } else {
              for (index_t i = 0; i <= j; ++i)
                coeff[static_cast<std::size_t>(i)] =
                    r.dot_lg(v[static_cast<std::size_t>(i)], w_glob);
            }
            // w -= Σ coeff_i v_i, kept in local format.
            for (index_t i = 0; i <= j; ++i)
              la::axpy(-coeff[static_cast<std::size_t>(i)],
                       v[static_cast<std::size_t>(i)], w_loc);
            r.counters().flops += 2 * nl * static_cast<std::size_t>(j + 1);
            r.counters().vector_updates += static_cast<std::uint64_t>(j) + 1;
            if (pass > 0)
              for (index_t i = 0; i <= j; ++i)
                h[static_cast<std::size_t>(i)] +=
                    coeff[static_cast<std::size_t>(i)];
          }
        }
        la::copy(w_loc, w_glob);
        r.exchange(w_glob);                    // (+1) for the norm
        h[static_cast<std::size_t>(j) + 1] =
            sqrt_nonneg(r.dot_lg(w_loc, w_glob));
      } else {
        // -- Algorithm 6 inner step: m+1 exchanges total (m+2 when the
        // deflation correction globalizes its extra mat-vec).
        precond_global(vj, zj);                // m exchanges
        r.spmv(a, zj, w_loc);
        la::copy(w_loc, w_glob);
        r.exchange(w_glob);                    // (+1) the only extra one
        // h_i = ⊕Σ <ŵ_loc, v̂_i_glob> (Eq. 33) — one global reduction
        // per i (Algorithm 6 line 13 / Table 1), optionally batched.
        // The re-orthogonalization pass uses the 1/mult-weighted dot on
        // the updated global-format w (no extra exchange).
        {
          OBS_SPAN(tr, "gram_schmidt", obs::Cat::Ortho);
          for (int pass = 0; pass < gs_passes; ++pass) {
            Vector& coeff = pass == 0 ? h : h2;
            if (opts.batched_reductions) {
              for (index_t i = 0; i <= j; ++i)
                coeff[static_cast<std::size_t>(i)] =
                    pass == 0 ? r.dot_lg_partial(
                                    w_loc, v[static_cast<std::size_t>(i)])
                              : r.dot_gg_partial(
                                    w_glob, v[static_cast<std::size_t>(i)]);
              comm.allreduce_sum(std::span<real_t>(
                  coeff.data(), static_cast<std::size_t>(j) + 1));
            } else {
              for (index_t i = 0; i <= j; ++i)
                coeff[static_cast<std::size_t>(i)] =
                    pass == 0
                        ? r.dot_lg(w_loc, v[static_cast<std::size_t>(i)])
                        : r.dot_gg(w_glob, v[static_cast<std::size_t>(i)]);
            }
            for (index_t i = 0; i <= j; ++i)
              la::axpy(-coeff[static_cast<std::size_t>(i)],
                       v[static_cast<std::size_t>(i)], w_glob);
            r.counters().flops += 2 * nl * static_cast<std::size_t>(j + 1);
            r.counters().vector_updates += static_cast<std::uint64_t>(j) + 1;
            if (pass > 0)
              for (index_t i = 0; i <= j; ++i)
                h[static_cast<std::size_t>(i)] +=
                    coeff[static_cast<std::size_t>(i)];
          }
        }
        h[static_cast<std::size_t>(j) + 1] =
            std::sqrt(r.norm2_sq_global(w_glob));
      }

      const real_t hnext = h[static_cast<std::size_t>(j) + 1];
      relres = lsq.push_column(std::span<const real_t>(
                   h.data(), static_cast<std::size_t>(j) + 2)) /
               beta0;
      ++iterations;
      if (s == 0) {
        // Rank 0 writes the shared report incrementally (single writer,
        // published by the team join), so a comm failure mid-solve still
        // leaves a truthful partial history behind.
        out.history.push_back(relres);
        out.iterations = iterations;
        out.final_relres = relres;
        if (tr != nullptr) tr->counter("relres", obs::Cat::Solve, relres);
        if (opts.observe.progress)
          opts.observe.progress(iterations, relres, 0);
      }

      if (hnext == 0.0 || hnext <= 1e-14 * beta0) {
        breakdown = true;
        ++j;
        break;
      }
      auto& vnext = v[static_cast<std::size_t>(j) + 1];
      if (basic) {
        for (std::size_t l = 0; l < nl; ++l) vnext[l] = w_loc[l] / hnext;
      } else {
        for (std::size_t l = 0; l < nl; ++l) vnext[l] = w_glob[l] / hnext;
      }
      r.counters().flops += nl;
      r.counters().vector_updates += 1;

      if (relres <= opts.tol) {
        ++j;
        break;
      }
    }

    if (j > 0) {
      const Vector y = lsq.solve();
      for (index_t i = 0; i < j; ++i)
        la::axpy(y[static_cast<std::size_t>(i)], z[static_cast<std::size_t>(i)],
                 x);
      r.counters().flops += 2 * nl * static_cast<std::size_t>(j);
      r.counters().vector_updates += static_cast<std::uint64_t>(j);
    }
    if (breakdown) {
      // The basis cannot grow: stop, but do NOT claim convergence — the
      // final true residual below is the only arbiter of that.
      broke_down = true;
      break;
    }
    if (relres <= opts.tol) break;
  }

  // ---- Final true residual and solution in physical variables u = D x.
  if (basic) {
    la::copy(x, tmp);
    exchange_spmv(r, a, tmp, r_loc);
  } else {
    la::copy(x, tmp);  // x already global; tmp used for uniformity
    r.spmv(a, tmp, r_loc);
  }
  for (std::size_t l = 0; l < nl; ++l) r_loc[l] = b_loc[l] - r_loc[l];
  la::copy(r_loc, r_glob);
  r.exchange(r_glob);
  const real_t final_res = sqrt_nonneg(r.dot_lg(r_loc, r_glob));
  const real_t final_relres = beta0 > 0.0 ? final_res / beta0 : 0.0;

  Vector x_glob(nl);
  if (basic) {
    la::copy(x, x_glob);
    r.exchange(x_glob);
  } else {
    la::copy(x, x_glob);
  }
  Vector u(nl);
  for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * x_glob[l];
  out.solutions[static_cast<std::size_t>(s)] = std::move(u);

  if (s == 0) {
    // Convergence is claimed on the final TRUE relative residual alone;
    // breakdown and trivial-rhs exits are reported as what they are.
    out.converged = final_relres <= opts.tol;
    out.breakdown = broke_down;
    out.iterations = iterations;
    out.restarts = restarts;
    out.final_relres = final_relres;
  }
}

}  // namespace

DistSolve solve_edd(const EddPartition& part,
                          std::span<const real_t> f_global,
                          const PolySpec& spec, const SolveOptions& opts,
                          EddVariant variant,
                          const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  PFEM_CHECK_MSG(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd: restart/max_iters must be >= 1 and tol > 0");
  validate_poly_spec(spec);
  validate_deflation(opts.deflation, part.n_global);
  if (local_matrices != nullptr)
    PFEM_CHECK(local_matrices->size() == part.subs.size());
  // A matrix override (e.g. dynamics' K + a0 M) leaves the partition's
  // element matrices stale — the matrix-free kernel would silently apply
  // the wrong operator, so reject the combination up front.
  PFEM_CHECK_MSG(!(opts.kernels.format == KernelOptions::Format::Ebe &&
                   local_matrices != nullptr),
                 "Format::Ebe cannot be combined with a local-matrix "
                 "override: the partition's element store holds the "
                 "originally assembled operator, not the override");
  const int p = part.nparts();

  // Solve sessions (opts.recycle): the warm-start projection and the
  // direction harvest live on the fused batch machinery, so a recycling
  // one-shot solve routes through build_edd_operator + solve_edd_batch
  // (which runs the Enhanced discipline) on a one-shot team and reshapes
  // the single-RHS batch result.  Stateless solves — the default — take
  // the paper-faithful path below, bit-identically to before.
  if (opts.recycle.enabled) {
    WallTimer timer;
    par::Team team(p);
    if (opts.observe.fault_injector != nullptr)
      team.set_fault_injector(opts.observe.fault_injector);
    if (opts.observe.comm_timeout_seconds > 0.0)
      team.set_comm_timeout(opts.observe.comm_timeout_seconds);
    EddOperatorState op = build_edd_operator(
        team, part, spec, local_matrices, nullptr, opts.kernels,
        opts.deflation);
    const std::vector<Vector> rhs{Vector(f_global.begin(), f_global.end())};
    BatchSolveResult batch = solve_edd_batch(team, part, op, rhs, opts);
    DistSolve result;
    static_cast<SolveReport&>(result) = std::move(batch.items.front());
    if (!batch.comm_failed()) result.x = std::move(batch.x.front());
    if (!batch.recycled.empty())
      result.recycled = std::move(batch.recycled.front());
    result.rank_counters = std::move(batch.rank_counters);
    result.setup_counters = std::move(op.setup_counters);
    result.trace = std::move(batch.trace);
    result.wall_seconds = timer.seconds();
    return result;
  }

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
          const auto s = static_cast<std::size_t>(comm.rank());
          const sparse::CsrMatrix& k =
              local_matrices ? (*local_matrices)[s] : part.subs[s].k_loc;
          const sparse::EbeStore* const elems =
              local_matrices ? nullptr : part.subs[s].elem_store.get();
          edd_rank_solve(part, k, elems, f_global, spec, opts, variant, comm,
                         out);
        },
        trace.get(), opts.observe.fault_injector,
        opts.observe.comm_timeout_seconds);
  } catch (const par::CommError& e) {
    // Typed communication failure (timeout / injected crash): every rank
    // has unwound and joined, so the partial history rank 0 wrote is
    // safe to report.  Any other exception still propagates — a rank's
    // own error is not a comm fault.
    comm_error = e.what();
  }

  if (!comm_error.empty()) {
    DistSolve result;
    result.wall_seconds = timer.seconds();
    result.converged = false;
    result.comm_error = std::move(comm_error);
    result.breakdown = out.breakdown;
    result.trivial_rhs = out.trivial_rhs;
    result.iterations = out.iterations;
    result.restarts = out.restarts;
    result.final_relres = out.final_relres;
    result.history = std::move(out.history);
    result.trace = std::move(trace);
    return result;
  }

  DistSolve result;
  result.wall_seconds = timer.seconds();
  result.x = partition::edd_gather_global(part, out.solutions);
  result.converged = out.converged;
  result.breakdown = out.breakdown;
  result.trivial_rhs = out.trivial_rhs;
  result.iterations = out.iterations;
  result.restarts = out.restarts;
  result.final_relres = out.final_relres;
  result.history = std::move(out.history);
  result.rank_counters = std::move(counters);
  result.setup_counters = std::move(out.setup_counters);
  result.trace = std::move(trace);
  return result;
}

}  // namespace pfem::core
