#include "core/edd_batch.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/diag_scaling.hpp"
#include "core/edd_kernels.hpp"
#include "la/dense.hpp"
#include "la/hessenberg_lsq.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace detail {

namespace {

/// How many vectors the session warm-setup phase contributes to its ONE
/// fused exchange for RHS b: the globalized b̂ (for ‖b̂‖), Âx̂₀ when a
/// projection needs the warm residual, and one Âp_j per recycled
/// direction.  0 = this RHS starts cold.
std::size_t recycle_width(std::span<const RecycleIn> recycle, std::size_t b,
                          std::size_t n_global) {
  if (b >= recycle.size()) return 0;
  const RecycleIn& rin = recycle[b];
  if (rin.empty()) return 0;
  std::size_t k = 0;
  for (const Vector& p : rin.directions)
    if (p.size() == n_global) ++k;
  k = std::min(k, kMaxRecycleDirections);
  const bool has_x0 = rin.x0.size() == n_global;
  return 1 + k + (k > 0 && has_x0 ? 1 : 0);
}

/// Width of the one fused warm-setup exchange over the whole batch (0 =
/// every RHS starts cold).
std::size_t recycle_prewidth(std::span<const RecycleIn> recycle,
                             std::span<const Vector> rhs) {
  std::size_t w = 0;
  for (std::size_t b = 0; b < rhs.size(); ++b)
    w += recycle_width(recycle, b, rhs[b].size());
  return w;
}

/// Zero-fill the pieces of `pieces` that no local rank deposited, then
/// assemble the global vector.
Vector gather(const EddPartition& part, std::vector<Vector>& pieces) {
  for (std::size_t q = 0; q < pieces.size(); ++q) {
    const std::size_t want = part.subs[q].local_to_global.size();
    if (pieces[q].size() != want) pieces[q].assign(want, 0.0);
  }
  return partition::edd_gather_global(part, pieces);
}

/// Argument checks every EDD setup entry point makes on the calling
/// thread, before any rank runs: a bad spec or coarse space fails typed
/// here, not as a per-rank surprise halfway through a team job.
void validate_setup(const EddPartition& part, const PolySpec& spec,
                    const std::vector<CsrMatrix>* local_matrices,
                    const KernelOptions& kernels,
                    const DeflationOptions& deflation) {
  validate_poly_spec(spec);
  // A mismatched coarse-space configuration fails as a typed
  // BadOperatorError.
  validate_deflation(deflation, part.n_global);
  if (local_matrices != nullptr)
    PFEM_CHECK(local_matrices->size() == part.subs.size());
  // A matrix override (e.g. dynamics' K + a0 M) leaves the partition's
  // element matrices stale — the matrix-free kernel would silently apply
  // the wrong operator, so reject the combination up front.
  PFEM_CHECK_MSG(!(kernels.format == KernelOptions::Format::Ebe &&
                   local_matrices != nullptr),
                 "Format::Ebe cannot be combined with a local-matrix "
                 "override: the partition's element store holds the "
                 "originally assembled operator, not the override");
}

/// The EDD setup, run by every rank of a team job: distributed norm-1
/// scaling (Algorithms 3/4: one exchange), the rank kernel, the rank's
/// own polynomial build (no communication, the paper's point) and, with
/// deflation, E assembled from the unscaled sub-matrix and d in one nnz
/// sweep, completed by ONE allreduce and factorized redundantly — the
/// allreduce makes E bit-identical on every rank, so every factor and
/// every later coarse solve is too.  `scaled`, when non-null, receives
/// the scaled CSR Â for callers that inspect it.
RankSetup setup_rank(par::Comm& comm, const EddPartition& part,
                     const PolySpec& spec,
                     const std::vector<CsrMatrix>* local_matrices,
                     const KernelOptions& kernels,
                     const DeflationOptions& deflation,
                     CsrMatrix* scaled = nullptr) {
  const auto s = static_cast<std::size_t>(comm.rank());
  const EddSubdomain& sub = part.subs[s];
  const CsrMatrix& k = local_matrices ? (*local_matrices)[s] : sub.k_loc;
  EddRank r(sub, comm);
  OBS_SPAN(comm.tracer(), "build_operator", obs::Cat::Setup);
  const auto nnz = static_cast<std::uint64_t>(k.nnz());
  RankSetup op;
  op.d = k.row_norms1();  // partial row norms d_i^(s) (Eq. 43)
  r.counters().flops += nnz;
  r.exchange(op.d);       // d_i = Σ_s d_i^(s) (Eq. 42)
  // The exchange made d consistent, so a bad sum is a degenerate row of
  // the assembled operator, not a partition artifact (request-scoped in
  // the service, never cached).
  invert_sqrt_row_norms(op.d, sub.local_to_global);
  // Â = D̂ K̂ D̂ (Eq. 44): every kernel format folds D into its stored
  // entries once, here — the 2*nnz scaling work is charged so setup and
  // iteration flop accounting stay comparable across formats.
  op.kern = RankKernel(k, Vector(op.d), sub.interface_local_dofs, kernels,
                       local_matrices ? nullptr : sub.elem_store.get());
  r.counters().flops += 2 * nnz;
  if (scaled != nullptr) {
    *scaled = k;
    scaled->scale_symmetric(op.d);
  }

  std::tie(op.gls, op.cheb) = build_polynomial(spec);
  if (op.gls) r.counters().flops += gls_build_flops(*op.gls);

  if (deflation.enabled) {
    OBS_SPAN(comm.tracer(), "build_coarse", obs::Cat::Setup);
    const DeflationRank dr(sub, static_cast<int>(s), part.nparts(),
                           deflation, z_weights(op.d));
    la::DenseMatrix e(dr.ncoarse(), dr.ncoarse());
    dr.accumulate_e(k, op.d, e);
    r.counters().flops += 3 * nnz;
    comm.allreduce_sum(e.data());
    op.coarse = std::make_shared<const CoarseOperator>(std::move(e));
    const auto nc = static_cast<std::uint64_t>(op.coarse->n());
    r.counters().flops += 2 * nc * nc * nc / 3;
  }
  return op;
}

}  // namespace

SolveOut::SolveOut(std::size_t nparts, std::size_t nb, bool harvest)
    : sol(nb, std::vector<Vector>(nparts)), items(nb) {
  if (harvest) {
    kmax = kMaxRecycleDirections;
    dirs.assign(nb, std::vector<std::vector<Vector>>(
                        kmax, std::vector<Vector>(nparts)));
    dir_count.assign(nb, 0);
  }
}

Vector SolveOut::solution(const EddPartition& part, std::size_t b) {
  return gather(part, sol[b]);
}

std::vector<Vector> SolveOut::recycled(const EddPartition& part,
                                       std::size_t b) {
  std::vector<Vector> out;
  if (kmax == 0) return out;
  const std::size_t cnt = dir_count[b];
  const std::size_t h = std::min(cnt, kmax);
  for (std::size_t i = 0; i < h; ++i)
    out.push_back(gather(part, dirs[b][(cnt - h + i) % kmax]));
  return out;
}

template <class Rank, class Op>
void fgmres_rank(Rank& r, const Op& a, std::span<const real_t> d,
                 std::span<const Vector> rhs,
                 std::span<const RecycleIn> recycle,
                 const LanePrecond& precond, const SolveOptions& opts,
                 FgmresMode mode, SolveOut& out) {
  par::Comm& comm = r.comm();
  const int s = comm.rank();
  // Shared per-process result state is written by the LOCAL leader (rank
  // 0 in-process; each process's lowest rank on a multi-process
  // transport).  Every value written under this guard derives from
  // allreduced scalars, so all leaders write bit-identical results.
  const int leader = comm.local_leader();
  const std::size_t nb = rhs.size();
  const bool basic = mode.basic;
  const std::size_t prewidth = recycle_prewidth(recycle, rhs);
  obs::Tracer* const tr = comm.tracer();
  const std::size_t nl = r.nl();
  const index_t m = opts.restart;
  const std::span<const index_t> gid = r.global_ids();

  // RHS in local distributed, scaled format.
  std::vector<Vector> b_loc(nb, Vector(nl));
  for (std::size_t b = 0; b < nb; ++b) r.localize(rhs[b], d, b_loc[b]);

  // Per-RHS solver state.  x and the Arnoldi basis v, z live in the
  // discipline's format: global for Enhanced, local for Basic.
  std::vector<Vector> x(nb, Vector(nl, 0.0));
  std::vector<Vector> r_loc(nb, Vector(nl)), r_glob(nb, Vector(nl));
  std::vector<Vector> w_loc(nb, Vector(nl)), w_glob(nb, Vector(nl));
  std::vector<Vector> tmp(basic ? nb : 0, Vector(nl));
  std::vector<std::vector<Vector>> v(nb), z(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    v[b].assign(static_cast<std::size_t>(m) + 1, Vector(nl));
    z[b].assign(static_cast<std::size_t>(m), Vector(nl));
  }
  std::vector<Vector> h(nb, Vector(static_cast<std::size_t>(m) + 2));
  std::vector<std::optional<la::HessenbergLsq>> lsq(nb);
  std::vector<char> done(nb, 0), frozen(nb, 0), brk(nb, 0);
  std::vector<index_t> iters(nb, 0), jcols(nb, 0);
  std::vector<real_t> beta0(nb, -1.0), relres(nb, 1.0);

  std::vector<Vector*> ex;         // fused-exchange view
  std::vector<Vector*> mx, my;     // matvec inputs / outputs
  std::vector<const Vector*> pv;   // preconditioner inputs
  std::vector<Vector*> pz;         // preconditioner outputs
  Vector red;                      // batched-reduction buffer
  std::vector<std::size_t> cyc, live;
  ex.reserve(std::max(nb, prewidth));
  mx.reserve(nb);
  my.reserve(nb);
  pv.reserve(nb);
  pz.reserve(nb);
  cyc.reserve(nb);
  live.reserve(nb);

  // my[i] = Â mx[i] in local format, mx[i] in the discipline's format:
  // Enhanced's vectors are global already; Basic globalizes a copy
  // first — the extra exchange of Algorithm 5's residual and w = Âz.
  const auto matvec = [&] {
    if (!basic) {
      for (std::size_t i = 0; i < mx.size(); ++i) r.spmv(a, *mx[i], *my[i]);
      return;
    }
    for (std::size_t i = 0; i < mx.size(); ++i) {
      la::copy(*mx[i], tmp[i]);
      mx[i] = &tmp[i];
    }
    exchange_spmv(r, a, mx, my);
  };
  // Globalize copies of w_loc into w_glob for the live RHS (one fused
  // exchange).
  const auto globalize_w = [&] {
    ex.clear();
    for (const std::size_t b : live) {
      la::copy(w_loc[b], w_glob[b]);
      ex.push_back(&w_glob[b]);
    }
    r.exchange_many(ex);
  };
  // Complete `red`'s partial sums: one allreduce, or one per entry.
  const auto reduce = [&] {
    if (mode.per_coefficient)
      for (real_t& c : red) c = comm.allreduce_sum(c);
    else
      comm.allreduce_sum(red);
  };

  // ---- Solve-session warm setup (`recycle`): warm-start guesses,
  // recycled-direction projection, and the ‖b̂‖ convergence reference.
  // ALL the extra session traffic is ONE fused exchange plus ONE
  // allreduce for the whole batch; stateless solves (prewidth == 0) skip
  // this block entirely — exchange count for exchange count (the
  // Table-1 contract).
  const std::size_t kmax = out.kmax;
  std::vector<std::size_t> harvested(nb, 0);
  if (prewidth > 0) {
    OBS_SPAN(tr, "recycle_setup", obs::Cat::Setup,
             static_cast<std::uint32_t>(prewidth));
    const std::size_t ng = rhs.front().size();
    std::vector<std::vector<Vector>> pd(nb);  // scaled directions p̂_j
    std::vector<std::vector<Vector>> cd(nb);  // Â p̂_j, globalized
    std::vector<Vector> bg(nb), ax0(nb);
    std::vector<char> has_x0(nb, 0);
    ex.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (recycle_width(recycle, b, ng) == 0) continue;
      const RecycleIn& rin = recycle[b];
      // Warm start in the scaled variables: x̂ = D̂⁻¹u is globally
      // consistent because d̂ is consistent on shared dofs.
      if (rin.x0.size() == ng) {
        has_x0[b] = 1;
        for (std::size_t l = 0; l < nl; ++l)
          x[b][l] = rin.x0[static_cast<std::size_t>(gid[l])] / d[l];
        r.counters().flops += nl;
      }
      bg[b] = b_loc[b];  // globalized below, for ‖b̂‖ and r̂₀
      ex.push_back(&bg[b]);
      std::size_t k = 0;
      for (const Vector& dir : rin.directions)
        if (dir.size() == ng) ++k;
      std::size_t skip =  // keep the most recent
          k > kMaxRecycleDirections ? k - kMaxRecycleDirections : 0;
      for (const Vector& dir : rin.directions) {
        if (dir.size() != ng) continue;
        if (skip > 0) {
          --skip;
          continue;
        }
        Vector ps(nl);
        for (std::size_t l = 0; l < nl; ++l)
          ps[l] = dir[static_cast<std::size_t>(gid[l])] / d[l];
        r.counters().flops += nl;
        pd[b].push_back(std::move(ps));
      }
      cd[b].assign(pd[b].size(), Vector(nl));
      for (std::size_t j = 0; j < pd[b].size(); ++j) {
        r.spmv(a, pd[b][j], cd[b][j]);
        ex.push_back(&cd[b][j]);
      }
      if (!pd[b].empty() && has_x0[b]) {
        ax0[b].resize(nl);
        r.spmv(a, x[b], ax0[b]);
        ex.push_back(&ax0[b]);
      }
    }
    r.exchange_many(ex);  // the session's one fused exchange

    // Partial sums — ‖b̂‖² per warm RHS, then the normal-equation blocks
    // M = CᵀC and g = Cᵀr̂₀ per projecting RHS — fold into ONE allreduce.
    red.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (bg[b].empty()) continue;
      red.push_back(r.dot_lg_partial(b_loc[b], bg[b]));
      const std::size_t k = pd[b].size();
      if (k == 0) continue;
      Vector r0(nl);
      for (std::size_t l = 0; l < nl; ++l)
        r0[l] = bg[b][l] - (has_x0[b] ? ax0[b][l] : 0.0);
      for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j)
          red.push_back(r.dot_gg_partial(cd[b][i], cd[b][j]));
      for (std::size_t i = 0; i < k; ++i)
        red.push_back(r.dot_gg_partial(cd[b][i], r0));
      r.counters().flops += 2 * nl * (k * k + 2 * k);
    }
    comm.allreduce_sum(red);

    // Consume the allreduced scalars: every decision below (trivial RHS,
    // projection coefficients, singular skip) is identical on all ranks.
    std::size_t off = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      if (bg[b].empty()) continue;
      const real_t bnorm = sqrt_nonneg(red[off++]);
      const std::size_t k = pd[b].size();
      if (bnorm == 0.0) {
        // Trivial RHS: x = 0 is exact — same report as the cold path,
        // warm start discarded (the cold answer IS the answer).
        la::fill(x[b], 0.0);
        beta0[b] = 0.0;
        relres[b] = 0.0;
        done[b] = 1;
        if (s == leader) out.items[b].trivial_rhs = true;
        off += k * k + k;
        continue;
      }
      beta0[b] = bnorm;
      if (k == 0) continue;
      la::DenseMatrix nm(as_index(k), as_index(k));
      for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j)
          nm(as_index(i), as_index(j)) = red[off++];
      Vector g(k);
      for (std::size_t i = 0; i < k; ++i) g[i] = red[off++];
      // Mild Tikhonov floor so near-parallel recycled directions cannot
      // break the factorization; a singular system skips the projection
      // (the solve just starts less warm) — identically on every rank.
      real_t trace = 0.0;
      for (std::size_t i = 0; i < k; ++i) trace += nm(as_index(i), as_index(i));
      const real_t eps = 1e-12 * (trace / static_cast<real_t>(k));
      for (std::size_t i = 0; i < k; ++i) nm(as_index(i), as_index(i)) += eps;
      bool solved = true;
      try {
        la::lu_solve(nm, g);
      } catch (const Error&) {
        solved = false;
      }
      if (!solved) continue;
      for (std::size_t j = 0; j < k; ++j) la::axpy(g[j], pd[b][j], x[b]);
      r.counters().flops += 2 * nl * k;
      r.counters().vector_updates += k;
    }
  }

  // Every branch below depends only on allreduced scalars, so all ranks
  // take identical decisions — the fused-message layouts (who is in the
  // cycle, who is live) never diverge across ranks.
  for (;;) {
    // ---- Residuals r_b = b_b − Â x_b for every unfinished RHS.
    cyc.clear();
    mx.clear();
    my.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (done[b]) continue;
      cyc.push_back(b);
      mx.push_back(&x[b]);
      my.push_back(&r_loc[b]);
    }
    if (cyc.empty()) break;
    matvec();
    ex.clear();
    for (const std::size_t b : cyc) {
      for (std::size_t l = 0; l < nl; ++l) r_loc[b][l] = b_loc[b][l] - r_loc[b][l];
      r.counters().flops += nl;
      la::copy(r_loc[b], r_glob[b]);
      ex.push_back(&r_glob[b]);
    }
    r.exchange_many(ex);

    red.resize(cyc.size());
    for (std::size_t i = 0; i < cyc.size(); ++i)
      red[i] = r.dot_lg_partial(r_loc[cyc[i]], r_glob[cyc[i]]);
    comm.allreduce_sum(red);

    std::vector<std::size_t> next_cyc;
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const std::size_t b = cyc[i];
      const real_t beta = sqrt_nonneg(red[i]);
      if (beta0[b] < 0.0) {
        beta0[b] = beta;
        if (beta == 0.0) {  // zero rhs: x = 0 is exact
          done[b] = 1;
          relres[b] = 0.0;
          if (s == leader) out.items[b].trivial_rhs = true;
          continue;
        }
      }
      relres[b] = beta / beta0[b];
      if (relres[b] <= opts.tol) {
        done[b] = 1;
        continue;
      }
      // v_0 = r / beta in the discipline's basis format.
      const Vector& r0 = basic ? r_loc[b] : r_glob[b];
      for (std::size_t l = 0; l < nl; ++l) v[b][0][l] = r0[l] / beta;
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
      lsq[b].emplace(m, beta);
      // Re-entering Arnoldi after a completed cycle: only now has a
      // restart actually happened (a first-cycle convergence reports 0).
      if (iters[b] > 0 && s == leader) ++out.items[b].restarts;
      frozen[b] = 0;
      brk[b] = 0;
      jcols[b] = 0;
      next_cyc.push_back(b);
    }
    cyc.swap(next_cyc);
    if (cyc.empty()) continue;  // re-enter to terminate cleanly

    // ---- One fused Arnoldi cycle.
    for (index_t j = 0; j < m; ++j) {
      live.clear();
      for (const std::size_t b : cyc)
        if (!frozen[b] && iters[b] < opts.max_iters) live.push_back(b);
      if (live.empty()) break;
      const auto jj = static_cast<std::size_t>(j);

      OBS_SPAN(tr, "arnoldi", obs::Cat::Solve,
               static_cast<std::uint32_t>(live.size()));

      // z_b = B v_b: m SpMVs per RHS, m fused exchanges in total.
      pv.clear();
      pz.clear();
      for (const std::size_t b : live) {
        pv.push_back(&v[b][jj]);
        pz.push_back(&z[b][jj]);
      }
      precond(pv, pz);

      // w_b = Â z_b, globalized by the iteration's extra fused exchange
      // (Basic: two — its mat-vec input needs one first).
      mx.clear();
      my.clear();
      for (const std::size_t b : live) {
        mx.push_back(&z[b][jj]);
        my.push_back(&w_loc[b]);
      }
      matvec();
      globalize_w();

      // Classical Gram–Schmidt, h_k = ⊕Σ ⟨ŵ, v̂_k⟩ in the cross-format
      // inner product (Eqs. 33/34): all j+1 dots against the same w,
      // then the updates.  Basic updates w in local format, Enhanced
      // its global copy.
      {
        OBS_SPAN(tr, "gram_schmidt", obs::Cat::Ortho);
        red.resize(live.size() * (jj + 1));
        for (std::size_t i = 0; i < live.size(); ++i) {
          const std::size_t b = live[i];
          for (std::size_t k = 0; k <= jj; ++k)
            red[i * (jj + 1) + k] =
                basic ? r.dot_lg_partial(v[b][k], w_glob[b])
                      : r.dot_lg_partial(w_loc[b], v[b][k]);
        }
        reduce();
        for (std::size_t i = 0; i < live.size(); ++i) {
          const std::size_t b = live[i];
          Vector& w = basic ? w_loc[b] : w_glob[b];
          for (std::size_t k = 0; k <= jj; ++k) {
            h[b][k] = red[i * (jj + 1) + k];
            la::axpy(-h[b][k], v[b][k], w);
          }
          r.counters().flops += 2 * nl * (jj + 1);
          r.counters().vector_updates += jj + 1;
        }
      }

      // ‖w_b‖ for the whole batch: one more allreduce (Basic first
      // globalizes the orthogonalized w — its last exchange).
      if (basic) globalize_w();
      red.resize(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t b = live[i];
        red[i] = basic ? r.dot_lg_partial(w_loc[b], w_glob[b])
                       : r.dot_gg_partial(w_glob[b], w_glob[b]);
      }
      comm.allreduce_sum(red);

      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t b = live[i];
        const real_t hnext = sqrt_nonneg(red[i]);
        h[b][jj + 1] = hnext;
        relres[b] =
            lsq[b]->push_column(std::span<const real_t>(h[b].data(), jj + 2)) /
            beta0[b];
        ++iters[b];
        if (s == leader) {
          // Written incrementally, so a comm failure mid-solve still
          // leaves a truthful partial report behind.
          SolveReport& item = out.items[b];
          item.history.push_back(relres[b]);
          item.iterations = iters[b];
          item.final_relres = relres[b];
          if (tr != nullptr)
            tr->counter("relres", obs::Cat::Solve, relres[b],
                        static_cast<std::uint32_t>(b));
          if (opts.observe.progress)
            opts.observe.progress(iters[b], relres[b], b);
        }
        jcols[b] = j + 1;
        if (hnext == 0.0 || hnext <= 1e-14 * beta0[b]) {
          frozen[b] = 1;
          brk[b] = 1;
          continue;
        }
        if (relres[b] <= opts.tol) {
          frozen[b] = 1;  // converged: no next basis vector needed
          continue;
        }
        const Vector& w = basic ? w_loc[b] : w_glob[b];
        for (std::size_t l = 0; l < nl; ++l) v[b][jj + 1][l] = w[l] / hnext;
        r.counters().flops += nl;
        r.counters().vector_updates += 1;
      }
    }

    // ---- Solution update x_b += Z_b y_b and cycle bookkeeping.
    for (const std::size_t b : cyc) {
      if (jcols[b] > 0) {
        const Vector y = lsq[b]->solve();
        for (index_t k = 0; k < jcols[b]; ++k)
          la::axpy(y[static_cast<std::size_t>(k)],
                   z[b][static_cast<std::size_t>(k)], x[b]);
        r.counters().flops += 2 * nl * static_cast<std::size_t>(jcols[b]);
        r.counters().vector_updates += static_cast<std::uint64_t>(jcols[b]);
        if (kmax > 0) {
          // Deposit this cycle's physical update Δu = D̂·Z_b y_b into the
          // harvest ring.  The slot index derives from the deterministic
          // cycle count, so every rank writes its own piece of the SAME
          // slot and the ring keeps the most recent kmax cycles.
          const std::size_t slot = harvested[b] % kmax;
          Vector du(nl, 0.0);
          for (index_t k = 0; k < jcols[b]; ++k)
            la::axpy(y[static_cast<std::size_t>(k)],
                     z[b][static_cast<std::size_t>(k)], du);
          for (std::size_t l = 0; l < nl; ++l) du[l] *= d[l];
          out.dirs[b][slot][static_cast<std::size_t>(s)] = std::move(du);
          ++harvested[b];
        }
      }
      if (brk[b]) {
        // Terminal, but NOT convergence: the final true residual below
        // is the only arbiter of that.
        done[b] = 1;
        if (s == leader) out.items[b].breakdown = true;
      } else if (relres[b] <= opts.tol || iters[b] >= opts.max_iters) {
        done[b] = 1;
      }
    }
  }

  // ---- Final true residuals (one fused exchange + one reduction) and
  // solutions in physical variables u = D x.
  mx.clear();
  my.clear();
  for (std::size_t b = 0; b < nb; ++b) {
    mx.push_back(&x[b]);
    my.push_back(&r_loc[b]);
  }
  matvec();
  ex.clear();
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t l = 0; l < nl; ++l) r_loc[b][l] = b_loc[b][l] - r_loc[b][l];
    la::copy(r_loc[b], r_glob[b]);
    ex.push_back(&r_glob[b]);
  }
  r.exchange_many(ex);
  red.resize(nb);
  for (std::size_t b = 0; b < nb; ++b)
    red[b] = r.dot_lg_partial(r_loc[b], r_glob[b]);
  comm.allreduce_sum(red);
  if (basic) {  // x to global format for u = D x
    ex.clear();
    for (std::size_t b = 0; b < nb; ++b) ex.push_back(&x[b]);
    r.exchange_many(ex);
  }

  for (std::size_t b = 0; b < nb; ++b) {
    Vector u(nl);
    for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * x[b][l];
    out.sol[b][static_cast<std::size_t>(s)] = std::move(u);
  }
  if (s == leader) {
    for (std::size_t b = 0; b < nb; ++b) {
      SolveReport& item = out.items[b];
      const real_t final_res = sqrt_nonneg(red[b]);
      item.final_relres = beta0[b] > 0.0 ? final_res / beta0[b] : 0.0;
      // Convergence is claimed on the final TRUE relative residual alone
      // (a trivial RHS reports 0, which always meets a positive tol).
      item.converged = item.final_relres <= opts.tol;
      item.iterations = iters[b];
      if (kmax > 0) out.dir_count[b] = harvested[b];
    }
  }
}

template void fgmres_rank(EddRank&, const RankKernel&,
                          std::span<const real_t>, std::span<const Vector>,
                          std::span<const RecycleIn>, const LanePrecond&,
                          const SolveOptions&, FgmresMode, SolveOut&);
template void fgmres_rank(RddRank&, const RddOp&, std::span<const real_t>,
                          std::span<const Vector>, std::span<const RecycleIn>,
                          const LanePrecond&, const SolveOptions&, FgmresMode,
                          SolveOut&);

void fgmres_edd(par::Comm& comm, const EddPartition& part, const RankOp& op,
                std::span<const Vector> rhs,
                std::span<const RecycleIn> recycle, const SolveOptions& opts,
                FgmresMode mode, SolveOut& out) {
  const int s = comm.rank();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  const std::size_t nb = rhs.size();
  // Widest fused exchange this solve will issue: the per-iteration batch
  // (nb), or the recycle warm-setup exchange when sessions are active.
  EddRank r(sub, comm, std::max(nb, recycle_prewidth(recycle, rhs)));
  PolyApplier poly(op.poly, op.gls, op.cheb, r.nl(), nb);
  std::optional<Adef1> defl;
  if (op.coarse != nullptr)
    defl.emplace(sub, s, part.nparts(), op.deflation, op.d, *op.coarse, nb);
  fgmres_rank(
      r, op.a, op.d, rhs, recycle,
      [&](std::span<const Vector* const> v, std::span<Vector* const> z) {
        if (defl)
          defl->apply(r, op.a, poly, v, z, mode.basic);
        else
          poly.apply(r, op.a, v, z, mode.basic);
      },
      opts, mode, out);
}

DistSolve run_one_shot(int nparts, const SolveOptions& opts,
                       const char* root, SolveOut& out, const RankJob& job) {
  out.setup.resize(static_cast<std::size_t>(nparts));
  std::shared_ptr<obs::Trace> trace;
  if (opts.observe.trace)
    trace = std::make_shared<obs::Trace>(nparts, opts.observe.ring_capacity);

  WallTimer timer;
  std::vector<par::PerfCounters> counters;
  std::string comm_error;
  try {
    counters = par::run_spmd(
        nparts,
        [&](par::Comm& comm) {
          const auto s = static_cast<std::size_t>(comm.rank());
          OBS_SPAN(comm.tracer(), root, obs::Cat::Solve);
          const WallTimer setup_timer;
          job(comm, [&] {
            out.setup[s] = comm.counters();
            out.setup[s].total_seconds = setup_timer.seconds();
          });
        },
        trace.get(), opts.observe.fault_injector,
        opts.observe.comm_timeout_seconds);
  } catch (const par::CommError& e) {
    // Typed communication failure (timeout / injected crash): every rank
    // has unwound and joined, so the partial report the leader wrote is
    // safe to return.  Any other exception still propagates — a rank's
    // own error is not a comm fault.
    comm_error = e.what();
  }

  DistSolve result;
  static_cast<SolveReport&>(result) = std::move(out.items.front());
  result.wall_seconds = timer.seconds();
  result.trace = std::move(trace);
  if (!comm_error.empty()) {
    result.converged = false;
    result.comm_error = std::move(comm_error);
    return result;  // no solution: never hand out corrupt results
  }
  result.rank_counters = std::move(counters);
  result.setup_counters = std::move(out.setup);
  return result;
}

DistSolve run_edd_one_shot(
    const EddPartition& part, const PolySpec& spec,
    const std::vector<CsrMatrix>* local_matrices, const SolveOptions& opts,
    const char* root,
    const std::function<void(par::Comm&, const RankSetup&, SolveOut&)>&
        solve) {
  validate_setup(part, spec, local_matrices, opts.kernels, opts.deflation);
  SolveOut out(part.subs.size(), 1);
  DistSolve result = run_one_shot(
      part.nparts(), opts, root, out,
      [&](par::Comm& comm, const std::function<void()>& setup_done) {
        const RankSetup op = setup_rank(comm, part, spec, local_matrices,
                                        opts.kernels, opts.deflation);
        setup_done();
        solve(comm, op, out);
      });
  if (!result.comm_failed()) result.x = out.solution(part, 0);
  return result;
}

}  // namespace detail

EddOperatorState build_edd_operator(
    par::Team& team, const partition::EddPartition& part, const PolySpec& spec,
    const std::vector<sparse::CsrMatrix>* local_matrices, obs::Trace* trace,
    const KernelOptions& kernels, const DeflationOptions& deflation) {
  detail::validate_setup(part, spec, local_matrices, kernels, deflation);
  PFEM_CHECK_MSG(team.size() == part.nparts(),
                 "build_edd_operator: team size " << team.size()
                 << " != partition parts " << part.nparts());
  const auto p = static_cast<std::size_t>(part.nparts());

  WallTimer timer;
  EddOperatorState op;
  op.poly = spec;
  op.kernels = kernels;
  op.deflation = deflation;
  op.a.resize(p);
  op.d.resize(p);
  op.kern.resize(p);
  op.setup_counters = team.run(
      [&](par::Comm& comm) {
        const auto s = static_cast<std::size_t>(comm.rank());
        detail::RankSetup rs = detail::setup_rank(
            comm, part, spec, local_matrices, kernels, deflation, &op.a[s]);
        op.d[s] = std::move(rs.d);
        op.kern[s] = std::move(rs.kern);
        // Every rank built bit-identical polynomial and coarse data; the
        // local leader's copy is the one every later solve shares (on a
        // multi-process team each process keeps its own).
        if (comm.rank() == comm.local_leader()) {
          op.gls = std::move(rs.gls);
          op.cheb = std::move(rs.cheb);
          op.coarse = std::move(rs.coarse);
        }
      },
      trace);
  op.setup_seconds = timer.seconds();
  for (auto& c : op.setup_counters) c.total_seconds = op.setup_seconds;
  return op;
}

BatchSolveResult solve_edd_batch(par::Team& team,
                                 const partition::EddPartition& part,
                                 const EddOperatorState& op,
                                 std::span<const Vector> rhs,
                                 const SolveOptions& opts, obs::Trace* trace,
                                 std::span<const RecycleIn> recycle) {
  PFEM_CHECK_MSG(!rhs.empty(), "solve_edd_batch: empty RHS batch");
  PFEM_CHECK_MSG(team.size() == part.nparts(),
                 "solve_edd_batch: team size " << team.size()
                 << " != partition parts " << part.nparts());
  PFEM_CHECK_MSG(op.kern.size() == part.subs.size() &&
                     op.d.size() == part.subs.size(),
                 "solve_edd_batch: operator state was not built for this "
                 "partition (use build_edd_operator)");
  validate_poly_spec(op.poly);
  for (const Vector& f : rhs) {
    PFEM_CHECK(f.size() == static_cast<std::size_t>(part.n_global));
    check_solve_input(opts, f);
  }
  const std::size_t nb = rhs.size();
  // Session inputs are physical global vectors, same shape as the
  // solutions this solver returns; anything else is a caller bug.
  for (std::size_t b = 0; b < std::min(recycle.size(), nb); ++b) {
    PFEM_CHECK_MSG(
        recycle[b].x0.empty() ||
            recycle[b].x0.size() == static_cast<std::size_t>(part.n_global),
        "solve_edd_batch: recycle x0 length mismatch for RHS " << b);
    for (const Vector& dir : recycle[b].directions)
      PFEM_CHECK_MSG(
          dir.size() == static_cast<std::size_t>(part.n_global),
          "solve_edd_batch: recycle direction length mismatch for RHS "
              << b);
  }

  detail::SolveOut out(part.subs.size(), nb, !recycle.empty());

  // An external trace (the service's) wins; otherwise honor the per-call
  // observe knob with a trace owned by this result.
  std::shared_ptr<obs::Trace> own_trace;
  if (trace == nullptr && opts.observe.trace) {
    own_trace = std::make_shared<obs::Trace>(part.nparts(),
                                             opts.observe.ring_capacity);
    trace = own_trace.get();
  }

  WallTimer timer;
  std::vector<par::PerfCounters> counters;
  std::string comm_error;
  try {
    counters = team.run(
        [&](par::Comm& comm) {
          const auto s = static_cast<std::size_t>(comm.rank());
          OBS_SPAN(comm.tracer(), "solve_batch", obs::Cat::Solve,
                   static_cast<std::uint32_t>(nb));
          const detail::RankOp rop{op.d[s],          op.kern[s],
                                   op.poly,          op.gls.get(),
                                   op.cheb.get(),    op.deflation,
                                   op.coarse.get()};
          // The service path: Enhanced, each Gram–Schmidt step folded
          // into one allreduce across the whole batch.
          detail::fgmres_edd(comm, part, rop, rhs, recycle, opts, {}, out);
        },
        trace);
  } catch (const par::CommError& e) {
    // Typed communication failure: all ranks have joined, so the partial
    // per-RHS histories the leader wrote incrementally are intact.
    // Return a typed failed report; Cancelled and rank errors still
    // propagate.
    comm_error = e.what();
  }

  BatchSolveResult result;
  result.wall_seconds = timer.seconds();
  result.trace = std::move(own_trace);
  result.items = std::move(out.items);
  if (!comm_error.empty()) {
    for (BatchItemResult& item : result.items) {
      item.converged = false;
      item.comm_error = comm_error;
    }
    result.comm_error = std::move(comm_error);
    return result;  // x stays empty: no corrupt solutions
  }
  // Each process holds its piece of every solution, as a
  // distributed-memory run would — the per-RHS reports are complete
  // everywhere.
  result.x.reserve(nb);
  for (std::size_t b = 0; b < nb; ++b) result.x.push_back(out.solution(part, b));
  if (out.kmax > 0) {
    result.recycled.resize(nb);
    for (std::size_t b = 0; b < nb; ++b)
      result.recycled[b] = out.recycled(part, b);
  }
  result.rank_counters = std::move(counters);
  return result;
}

}  // namespace pfem::core
