#include "core/edd_batch.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/edd_kernels.hpp"
#include "la/dense.hpp"
#include "la/hessenberg_lsq.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {

namespace {

using partition::EddPartition;
using partition::EddSubdomain;
using sparse::CsrMatrix;
using detail::DistPoly;
using detail::EddRank;
using detail::invert_sqrt_row_norms;
using detail::sqrt_nonneg;

/// Fused analog of detail::spmv_exchange: ŷ_i = Â x̂_i for every RHS,
/// then ONE fused exchange globalizing the outputs.  With a split kernel
/// the coupled rows of every RHS are computed first, the fused sends go
/// out, the interior rows of every RHS fill in while messages fly, and
/// the folds land last — still exactly one logical exchange and one
/// matvec per RHS.
void batch_spmv_exchange(EddRank& r, const RankKernel& a,
                         std::span<Vector* const> xs,
                         std::span<Vector* const> ys) {
  const std::size_t nb = xs.size();
  const std::span<const Vector* const> cxs(
      const_cast<const Vector* const*>(xs.data()), xs.size());
  if (a.additive()) {
    // Matrix-free kernel: run the element sweep lane-fused (each dense
    // element matrix is loaded once per batch), halves scatter-ADD so
    // the outputs start zeroed.  One "spmv" span covering the batch;
    // matvec/flop counters are still charged per RHS.  (pfem_trace
    // cross-checks only "exchange" spans against the counters, so the
    // fused span shape is observable but not contract-bearing.)
    if (a.split()) {
      for (std::size_t i = 0; i < nb; ++i) la::fill(*ys[i], 0.0);
      a.apply_coupled_many(cxs, ys);
      r.exchange_many_start(ys);
      {
        OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
                 static_cast<std::uint32_t>(nb));
        a.apply_interior_many(cxs, ys);
        r.counters().matvecs += nb;
        r.counters().flops += nb * a.apply_flops();
      }
      r.exchange_many_finish(ys);
    } else {
      {
        OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
                 static_cast<std::uint32_t>(nb));
        a.apply_many(cxs, ys);  // zero-fills its outputs itself
        r.counters().matvecs += nb;
        r.counters().flops += nb * a.apply_flops();
      }
      r.exchange_many(ys);
    }
    return;
  }
  if (a.split()) {
    for (std::size_t i = 0; i < nb; ++i) a.apply_coupled(*xs[i], *ys[i]);
    r.exchange_many_start(ys);
    for (std::size_t i = 0; i < nb; ++i) {
      OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec);
      a.apply_interior(*xs[i], *ys[i]);
      r.counters().matvecs += 1;
      r.counters().flops += a.apply_flops();
    }
    r.exchange_many_finish(ys);
  } else {
    for (std::size_t i = 0; i < nb; ++i) r.spmv(a, *xs[i], *ys[i]);
    r.exchange_many(ys);
  }
}

/// Loop-fused polynomial application z_b = P_m(A) v_b for a set of RHS:
/// the recursions advance in lockstep so each of the m steps does one
/// SpMV per RHS but only ONE fused neighbor exchange (global-format
/// discipline, as in Algorithm 6 line 10 via Algorithm 7).
class BatchPoly {
 public:
  BatchPoly(const EddOperatorState& op, std::size_t nl, std::size_t nb)
      : spec_(op.poly), gls_(op.gls.get()), cheb_(op.cheb.get()) {
    wa_.assign(nb, Vector(nl));
    wb_.assign(nb, Vector(nl));
    wc_.assign(nb, Vector(nl));
    ex_.reserve(nb);
    exin_.reserve(nb);
  }

  /// vin[i] -> zout[i] for i in [0, count); scratch row i serves input i.
  void apply(EddRank& r, const RankKernel& a,
             std::span<const Vector* const> vin, std::span<Vector* const> zout) {
    const std::size_t nb = vin.size();
    const std::size_t n = r.nl();
    switch (spec_.kind) {
      case PolyKind::None:
        for (std::size_t i = 0; i < nb; ++i) la::copy(*vin[i], *zout[i]);
        return;
      case PolyKind::Neumann: {
        // w_k = v + (I - omega*A) w_{k-1}, all in global format.
        for (std::size_t i = 0; i < nb; ++i) la::copy(*vin[i], wa_[i]);
        for (int k = 0; k < spec_.degree; ++k) {
          ex_.clear();
          exin_.clear();
          for (std::size_t i = 0; i < nb; ++i) {
            exin_.push_back(&wa_[i]);
            ex_.push_back(&wb_[i]);
          }
          batch_spmv_exchange(r, a, exin_, ex_);
          for (std::size_t i = 0; i < nb; ++i) {
            const Vector& v = *vin[i];
            Vector& w = wa_[i];
            const Vector& aw = wb_[i];
            for (std::size_t l = 0; l < n; ++l)
              w[l] = v[l] + w[l] - spec_.omega * aw[l];
            r.counters().flops += 3 * n;
            r.counters().vector_updates += 1;
          }
        }
        for (std::size_t i = 0; i < nb; ++i) {
          Vector& z = *zout[i];
          for (std::size_t l = 0; l < n; ++l) z[l] = spec_.omega * wa_[i][l];
          r.counters().flops += n;
        }
        return;
      }
      case PolyKind::Gls: {
        const OrthoBasis& basis = gls_->basis();
        const auto mu = gls_->mu();
        const real_t inv0 = 1.0 / basis.sqrt_beta(0);
        for (std::size_t i = 0; i < nb; ++i) {
          la::fill(wa_[i], 0.0);  // u_prev
          Vector& u = wb_[i];
          Vector& z = *zout[i];
          const Vector& v = *vin[i];
          for (std::size_t l = 0; l < n; ++l) {
            u[l] = inv0 * v[l];
            z[l] = mu[0] * u[l];
          }
          r.counters().flops += 2 * n;
        }
        for (int s = 0; s < spec_.degree; ++s) {
          ex_.clear();
          exin_.clear();
          for (std::size_t i = 0; i < nb; ++i) {
            exin_.push_back(&wb_[i]);
            ex_.push_back(&wc_[i]);
          }
          batch_spmv_exchange(r, a, exin_, ex_);
          const real_t as = basis.alpha(s);
          const real_t sb_s = basis.sqrt_beta(s);
          const real_t sb_n = basis.sqrt_beta(s + 1);
          const real_t mu_next = mu[static_cast<std::size_t>(s) + 1];
          for (std::size_t i = 0; i < nb; ++i) {
            Vector& u_prev = wa_[i];
            Vector& u = wb_[i];
            const Vector& au = wc_[i];
            Vector& z = *zout[i];
            for (std::size_t l = 0; l < n; ++l) {
              const real_t t =
                  (au[l] - as * u[l] - (s > 0 ? sb_s * u_prev[l] : 0.0)) /
                  sb_n;
              u_prev[l] = u[l];
              u[l] = t;
              z[l] += mu_next * t;
            }
            r.counters().flops += 7 * n;
            r.counters().vector_updates += 1;
          }
        }
        return;
      }
      case PolyKind::Chebyshev: {
        const real_t theta =
            0.5 * (cheb_->interval().lo + cheb_->interval().hi);
        const real_t delta =
            0.5 * (cheb_->interval().hi - cheb_->interval().lo);
        const real_t sigma1 = theta / delta;
        real_t rho = 1.0 / sigma1;
        for (std::size_t i = 0; i < nb; ++i) {
          Vector& res = wa_[i];
          Vector& d = wb_[i];
          Vector& z = *zout[i];
          la::copy(*vin[i], res);
          for (std::size_t l = 0; l < n; ++l) {
            d[l] = res[l] / theta;
            z[l] = d[l];
          }
          r.counters().flops += 2 * n;
        }
        for (int k = 1; k <= spec_.degree; ++k) {
          ex_.clear();
          exin_.clear();
          for (std::size_t i = 0; i < nb; ++i) {
            exin_.push_back(&wb_[i]);
            ex_.push_back(&wc_[i]);
          }
          batch_spmv_exchange(r, a, exin_, ex_);
          const real_t rho_next = 1.0 / (2.0 * sigma1 - rho);
          const real_t c1 = rho_next * rho;
          const real_t c2 = 2.0 * rho_next / delta;
          for (std::size_t i = 0; i < nb; ++i) {
            Vector& res = wa_[i];
            Vector& d = wb_[i];
            const Vector& ad = wc_[i];
            Vector& z = *zout[i];
            for (std::size_t l = 0; l < n; ++l) {
              res[l] -= ad[l];
              d[l] = c1 * d[l] + c2 * res[l];
              z[l] += d[l];
            }
            r.counters().flops += 6 * n;
            r.counters().vector_updates += 1;
          }
          rho = rho_next;
        }
        return;
      }
    }
  }

 private:
  PolySpec spec_;
  const GlsPolynomial* gls_;
  const ChebyshevPolynomial* cheb_;
  std::vector<Vector> wa_, wb_, wc_;  // per-RHS recursion scratch
  std::vector<Vector*> ex_;           // fused-exchange view (outputs)
  std::vector<Vector*> exin_;         // fused-exchange view (inputs)
};

/// Shared output of a batch solve, written per rank / by the local leader.
struct BatchShared {
  std::vector<std::vector<Vector>> sol;  ///< [rhs][rank] u in global format
  std::vector<BatchItemResult> items;    ///< written by the local leader
  /// Harvested recycle directions, [rhs][ring slot][rank] pieces of the
  /// physical (scaling undone) cycle updates Δu.  Ring-bounded to
  /// max_directions slots; dir_count says how many cycles actually
  /// deposited (so the gather can order oldest → newest).  The slot
  /// index is a pure function of allreduced state, so every rank writes
  /// its own [rank] piece of the same slot.
  std::vector<std::vector<std::vector<Vector>>> dirs;
  std::vector<std::size_t> dir_count;  ///< written by the local leader
};

/// How many vectors the warm-setup phase of `opts.recycle` contributes
/// to its ONE fused exchange for RHS b: the globalized b̂ (for ‖b̂‖),
/// Âx̂₀ when a projection needs the warm residual, and one Âp_j per
/// recycled direction.  0 = this RHS starts cold.
std::size_t recycle_width(const SolveOptions& opts, std::size_t b,
                          std::size_t n_global) {
  if (!opts.recycle.enabled || opts.recycle.in == nullptr ||
      b >= opts.recycle.in->size())
    return 0;
  const RecycleIn& rin = (*opts.recycle.in)[b];
  if (rin.empty()) return 0;
  std::size_t k = 0;
  for (const Vector& p : rin.directions)
    if (p.size() == n_global) ++k;
  k = std::min(k, static_cast<std::size_t>(
                      std::max<index_t>(opts.recycle.max_directions, 0)));
  const bool has_x0 = rin.x0.size() == n_global;
  return 1 + k + (k > 0 && has_x0 ? 1 : 0);
}

void batch_rank_solve(const EddPartition& part, const EddOperatorState& op,
                      std::span<const Vector> rhs, const SolveOptions& opts,
                      par::Comm& comm, BatchShared& out) {
  const int s = comm.rank();
  // Shared per-process result state is written by the LOCAL leader (rank
  // 0 in-process; each process's lowest rank on a multi-process
  // transport).  Every value written under this guard derives from
  // allreduced scalars, so all leaders write bit-identical results and
  // every process ends up with a full copy of the per-RHS reports.
  const int leader = comm.local_leader();
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  const std::size_t nb = rhs.size();
  // Widest fused exchange this solve will issue: the per-iteration batch
  // (nb), or the recycle warm-setup exchange when sessions are active.
  std::size_t prewidth = 0;
  for (std::size_t b = 0; b < nb; ++b)
    prewidth +=
        recycle_width(opts, b, static_cast<std::size_t>(part.n_global));
  EddRank r(sub, comm, std::max(nb, prewidth));
  obs::Tracer* const tr = comm.tracer();
  const std::size_t nl = r.nl();
  const index_t m = opts.restart;
  const Vector& d = op.d[static_cast<std::size_t>(s)];
  // Prebuilt kernels when the state came from build_edd_operator; a
  // hand-assembled state falls back to a scalar-CSR view of op.a.
  std::optional<RankKernel> fallback_kern;
  if (op.kern.size() != part.subs.size()) {
    KernelOptions fb;
    fb.format = KernelOptions::Format::Csr;
    fb.overlap = false;
    fallback_kern = RankKernel::from_scaled(
        &op.a[static_cast<std::size_t>(s)], sub.interface_local_dofs, fb);
  }
  const RankKernel& a = fallback_kern
                            ? *fallback_kern
                            : op.kern[static_cast<std::size_t>(s)];
  OBS_SPAN(tr, "solve_batch", obs::Cat::Solve,
           static_cast<std::uint32_t>(nb));

  // RHS in local distributed, scaled format: b = D̂ (f_loc / mult).
  std::vector<Vector> b_loc(nb, Vector(nl));
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t l = 0; l < nl; ++l)
      b_loc[b][l] =
          d[l] * rhs[b][static_cast<std::size_t>(sub.local_to_global[l])] /
          static_cast<real_t>(sub.multiplicity[l]);
  r.counters().flops += 2 * nb * nl;

  // Per-RHS solver state.
  std::vector<Vector> x(nb, Vector(nl, 0.0));
  std::vector<Vector> r_loc(nb, Vector(nl)), r_glob(nb, Vector(nl));
  std::vector<Vector> w_loc(nb, Vector(nl)), w_glob(nb, Vector(nl));
  std::vector<std::vector<Vector>> v(nb), z(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    v[b].assign(static_cast<std::size_t>(m) + 1, Vector(nl));
    z[b].assign(static_cast<std::size_t>(m), Vector(nl));
  }
  std::vector<Vector> h(nb, Vector(static_cast<std::size_t>(m) + 2));
  std::vector<Vector> h2(nb, Vector(static_cast<std::size_t>(m) + 2));
  std::vector<std::optional<la::HessenbergLsq>> lsq(nb);
  std::vector<char> done(nb, 0), frozen(nb, 0), brk(nb, 0);
  std::vector<index_t> iters(nb, 0), jcols(nb, 0);
  std::vector<real_t> beta0(nb, -1.0), relres(nb, 1.0);

  BatchPoly poly(op, nl, nb);

  // Two-level deflation, prebuilt by build_edd_operator and cached with
  // the operator: the fused A-DEF1 correction costs the whole batch ONE
  // small allreduce (every live RHS's coarse residual in one buffer) and
  // ONE fused exchange (globalizing the ÂZy corrections) per
  // preconditioner application.
  const CoarseOperator* const coarse = op.coarse.get();
  std::optional<DeflationRank> defl;
  std::vector<Vector> zy, vdef;
  Vector cbuf;
  if (coarse != nullptr) {
    Vector w(nl);  // Z weights 1/d̂: the scaled operator's near-null basis
    for (std::size_t l = 0; l < nl; ++l)
      w[l] = 1.0 / op.d[static_cast<std::size_t>(s)][l];
    defl.emplace(sub, s, part.nparts(), op.deflation, w);
    zy.assign(nb, Vector(nl));
    vdef.assign(nb, Vector(nl));
  }

  std::vector<Vector*> ex;         // fused-exchange view
  std::vector<const Vector*> pv;   // poly inputs
  std::vector<Vector*> pz;         // poly outputs
  Vector red;                      // batched-reduction buffer
  std::vector<std::size_t> cyc, live;
  ex.reserve(std::max(nb, prewidth));
  pv.reserve(nb);
  pz.reserve(nb);
  cyc.reserve(nb);
  live.reserve(nb);

  // ---- Solve-session warm setup (opts.recycle): warm-start guesses,
  // recycled-direction projection, and the ‖b̂‖ convergence reference.
  // ALL the extra session traffic is ONE fused exchange plus ONE
  // allreduce for the whole batch; stateless solves (prewidth == 0) skip
  // this block entirely and stay bit-identical — exchange count for
  // exchange count (the Table-1 contract) — with the pre-session code.
  const auto kmax = static_cast<std::size_t>(
      std::max<index_t>(opts.recycle.max_directions, 0));
  const bool harvest =
      opts.recycle.enabled && opts.recycle.harvest && kmax > 0;
  std::vector<std::size_t> harvested(nb, 0);
  if (prewidth > 0) {
    OBS_SPAN(tr, "recycle_setup", obs::Cat::Setup,
             static_cast<std::uint32_t>(prewidth));
    const auto ng = static_cast<std::size_t>(part.n_global);
    std::vector<std::vector<Vector>> pd(nb);  // scaled directions p̂_j
    std::vector<std::vector<Vector>> cd(nb);  // Â p̂_j, globalized
    std::vector<Vector> bg(nb), ax0(nb);
    std::vector<char> has_x0(nb, 0);
    ex.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (recycle_width(opts, b, ng) == 0) continue;
      const RecycleIn& rin = (*opts.recycle.in)[b];
      // Warm start in the scaled variables: x̂ = D̂⁻¹u is globally
      // consistent because d̂ is consistent on shared dofs.
      if (rin.x0.size() == ng) {
        has_x0[b] = 1;
        for (std::size_t l = 0; l < nl; ++l)
          x[b][l] =
              rin.x0[static_cast<std::size_t>(sub.local_to_global[l])] / d[l];
        r.counters().flops += nl;
      }
      bg[b] = b_loc[b];  // globalized below, for ‖b̂‖ and r̂₀
      ex.push_back(&bg[b]);
      std::size_t k = 0;
      for (const Vector& dir : rin.directions)
        if (dir.size() == ng) ++k;
      std::size_t skip = k > kmax ? k - kmax : 0;  // keep the most recent
      for (const Vector& dir : rin.directions) {
        if (dir.size() != ng) continue;
        if (skip > 0) {
          --skip;
          continue;
        }
        Vector ps(nl);
        for (std::size_t l = 0; l < nl; ++l)
          ps[l] =
              dir[static_cast<std::size_t>(sub.local_to_global[l])] / d[l];
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
    // ---- Residuals r_b = b_b - A x_b for every unfinished RHS.
    cyc.clear();
    ex.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      if (done[b]) continue;
      r.spmv(a, x[b], r_loc[b]);
      for (std::size_t l = 0; l < nl; ++l) r_loc[b][l] = b_loc[b][l] - r_loc[b][l];
      r.counters().flops += nl;
      la::copy(r_loc[b], r_glob[b]);
      ex.push_back(&r_glob[b]);
      cyc.push_back(b);
    }
    if (cyc.empty()) break;
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
      if (iters[b] >= opts.max_iters) {
        done[b] = 1;
        continue;
      }
      for (std::size_t l = 0; l < nl; ++l) v[b][0][l] = r_glob[b][l] / beta;
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
      lsq[b].emplace(m, beta);
      if (iters[b] > 0 && s == leader) ++out.items[b].restarts;
      frozen[b] = 0;
      brk[b] = 0;
      jcols[b] = 0;
      next_cyc.push_back(b);
    }
    cyc.swap(next_cyc);
    if (cyc.empty()) continue;  // re-enter to terminate cleanly

    // ---- One fused Arnoldi cycle (Algorithm 6 inner loop).
    const int gs_passes = opts.reorthogonalize ? 2 : 1;
    for (index_t j = 0; j < m; ++j) {
      live.clear();
      for (const std::size_t b : cyc)
        if (!frozen[b] && iters[b] < opts.max_iters) live.push_back(b);
      if (live.empty()) break;
      const auto jj = static_cast<std::size_t>(j);

      OBS_SPAN(tr, "arnoldi", obs::Cat::Solve,
               static_cast<std::uint32_t>(live.size()));

      // z_b = P_m(A) v_b: m SpMVs per RHS, m fused exchanges in total.
      pv.clear();
      pz.clear();
      for (const std::size_t b : live) {
        pv.push_back(&v[b][jj]);
        pz.push_back(&z[b][jj]);
      }
      if (defl) {
        // Coarse correction first: v_b -> v_b − ÂZy_b with
        // y_b = E⁻¹Zᵀv_b, then the polynomial on the deflated vectors,
        // then z_b += Zy_b.
        const auto nc = static_cast<std::size_t>(defl->ncoarse());
        {
          OBS_SPAN(tr, "coarse_correct", obs::Cat::Precond,
                   static_cast<std::uint32_t>(live.size()));
          cbuf.assign(live.size() * nc, 0.0);
          const std::span<real_t> call(cbuf);
          for (std::size_t i = 0; i < live.size(); ++i) {
            defl->restrict_global(*pv[i], call.subspan(i * nc, nc));
            r.counters().flops += 2 * nl;
          }
          comm.allreduce_sum(call);
          ex.clear();
          for (std::size_t i = 0; i < live.size(); ++i) {
            const std::size_t b = live[i];
            const auto c = call.subspan(i * nc, nc);
            coarse->solve(c);
            r.counters().coarse_solves += 1;
            r.counters().flops += coarse->solve_flops();
            defl->prolong_global(c, zy[b]);
            r.counters().flops += nl;
            r.spmv(a, zy[b], vdef[b]);
            ex.push_back(&vdef[b]);
          }
          r.exchange_many(ex);  // one fused exchange globalizes every ÂZy
          for (std::size_t i = 0; i < live.size(); ++i) {
            const std::size_t b = live[i];
            const Vector& vin = *pv[i];
            for (std::size_t l = 0; l < nl; ++l)
              vdef[b][l] = vin[l] - vdef[b][l];
            r.counters().flops += nl;
            r.counters().vector_updates += 1;
          }
          pv.clear();
          for (const std::size_t b : live) pv.push_back(&vdef[b]);
        }
        {
          OBS_SPAN(tr, "poly_apply", obs::Cat::Precond);
          poly.apply(r, a, pv, pz);
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
          const std::size_t b = live[i];
          Vector& zout = *pz[i];
          for (std::size_t l = 0; l < nl; ++l) zout[l] += zy[b][l];
          r.counters().flops += nl;
          r.counters().vector_updates += 1;
        }
      } else {
        OBS_SPAN(tr, "poly_apply", obs::Cat::Precond);
        poly.apply(r, a, pv, pz);
      }

      // w_b = A z_b, globalized by the cycle's ONE extra fused exchange.
      ex.clear();
      for (const std::size_t b : live) {
        r.spmv(a, z[b][jj], w_loc[b]);
        la::copy(w_loc[b], w_glob[b]);
        ex.push_back(&w_glob[b]);
      }
      r.exchange_many(ex);

      // Gram-Schmidt: the whole batch's j+1 coefficients fold into one
      // allreduce (the batched_reductions idea, across RHS as well).
      {
        OBS_SPAN(tr, "gram_schmidt", obs::Cat::Ortho);
        for (int pass = 0; pass < gs_passes; ++pass) {
          red.resize(live.size() * (jj + 1));
          for (std::size_t i = 0; i < live.size(); ++i) {
            const std::size_t b = live[i];
            for (std::size_t k = 0; k <= jj; ++k)
              red[i * (jj + 1) + k] =
                  pass == 0 ? r.dot_lg_partial(w_loc[b], v[b][k])
                            : r.dot_gg_partial(w_glob[b], v[b][k]);
          }
          comm.allreduce_sum(red);
          for (std::size_t i = 0; i < live.size(); ++i) {
            const std::size_t b = live[i];
            Vector& coeff = pass == 0 ? h[b] : h2[b];
            for (std::size_t k = 0; k <= jj; ++k) {
              coeff[k] = red[i * (jj + 1) + k];
              la::axpy(-coeff[k], v[b][k], w_glob[b]);
            }
            r.counters().flops += 2 * nl * (jj + 1);
            r.counters().vector_updates += jj + 1;
            if (pass > 0)
              for (std::size_t k = 0; k <= jj; ++k) h[b][k] += h2[b][k];
          }
        }
      }

      // ||w_b|| for the whole batch: one more allreduce.
      red.resize(live.size());
      for (std::size_t i = 0; i < live.size(); ++i)
        red[i] = r.dot_gg_partial(w_glob[live[i]], w_glob[live[i]]);
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
          out.items[b].history.push_back(relres[b]);
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
        for (std::size_t l = 0; l < nl; ++l)
          v[b][jj + 1][l] = w_glob[b][l] / hnext;
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
        if (harvest) {
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
        // is the only arbiter of that (mirrors solve_edd).
        done[b] = 1;
        if (s == leader) out.items[b].breakdown = true;
      } else if (relres[b] <= opts.tol) {
        done[b] = 1;
      }
    }
  }

  // ---- Final true residuals (one fused exchange + one reduction) and
  // solutions in physical variables u = D x.
  ex.clear();
  for (std::size_t b = 0; b < nb; ++b) {
    r.spmv(a, x[b], r_loc[b]);
    for (std::size_t l = 0; l < nl; ++l) r_loc[b][l] = b_loc[b][l] - r_loc[b][l];
    la::copy(r_loc[b], r_glob[b]);
    ex.push_back(&r_glob[b]);
  }
  r.exchange_many(ex);
  red.resize(nb);
  for (std::size_t b = 0; b < nb; ++b)
    red[b] = r.dot_lg_partial(r_loc[b], r_glob[b]);
  comm.allreduce_sum(red);

  for (std::size_t b = 0; b < nb; ++b) {
    Vector u(nl);
    for (std::size_t l = 0; l < nl; ++l) u[l] = d[l] * x[b][l];
    out.sol[b][static_cast<std::size_t>(s)] = std::move(u);
  }
  if (s == leader) {
    for (std::size_t b = 0; b < nb; ++b) {
      BatchItemResult& item = out.items[b];
      const real_t final_res = sqrt_nonneg(red[b]);
      item.final_relres = beta0[b] > 0.0 ? final_res / beta0[b] : 0.0;
      // Convergence is claimed on the final TRUE relative residual alone
      // (a trivial RHS reports 0, which always meets a positive tol).
      item.converged = item.final_relres <= opts.tol;
      item.iterations = iters[b];
      if (harvest) out.dir_count[b] = harvested[b];
    }
  }
}

}  // namespace

EddOperatorState build_edd_operator(
    par::Team& team, const partition::EddPartition& part, const PolySpec& spec,
    const std::vector<sparse::CsrMatrix>* local_matrices, obs::Trace* trace,
    const KernelOptions& kernels, const DeflationOptions& deflation) {
  validate_poly_spec(spec);
  // Fail a mismatched coarse-space configuration HERE, on the calling
  // thread, as a typed BadOperatorError — not as a per-rank surprise
  // halfway through the team's build.
  validate_deflation(deflation, part.n_global);
  PFEM_CHECK_MSG(team.size() == part.nparts(),
                 "build_edd_operator: team size " << team.size()
                 << " != partition parts " << part.nparts());
  if (local_matrices != nullptr)
    PFEM_CHECK(local_matrices->size() == part.subs.size());
  // Matrix override + matrix-free kernel: the element store would be
  // stale — same guard as solve_edd.
  PFEM_CHECK_MSG(!(kernels.format == KernelOptions::Format::Ebe &&
                   local_matrices != nullptr),
                 "Format::Ebe cannot be combined with a local-matrix "
                 "override: the partition's element store holds the "
                 "originally assembled operator, not the override");
  const auto p = static_cast<std::size_t>(part.nparts());

  WallTimer timer;
  EddOperatorState op;
  op.poly = spec;
  op.kernels = kernels;
  op.deflation = deflation;
  op.a.resize(p);
  op.d.resize(p);
  op.kern.resize(p);
  la::DenseMatrix e_shared;  // allreduced E, identical bits on every rank
  op.setup_counters = team.run(
      [&](par::Comm& comm) {
        const auto s = static_cast<std::size_t>(comm.rank());
        const EddSubdomain& sub = part.subs[s];
        EddRank r(sub, comm);
        OBS_SPAN(comm.tracer(), "build_operator", obs::Cat::Setup);
        const std::size_t nl = r.nl();
        CsrMatrix a = local_matrices ? (*local_matrices)[s] : sub.k_loc;
        Vector d = a.row_norms1();  // partial row norms d_i^(s) (Eq. 43)
        r.counters().flops += static_cast<std::uint64_t>(a.nnz());
        r.exchange(d);              // d_i = Σ_s d_i^(s) (Eq. 42)
        invert_sqrt_row_norms(sub, d);
        // Kernels are built from the UNSCALED matrix and fold D into
        // their own stored entries.  op.a keeps the scaled CSR
        // alongside for callers that inspect it.
        op.kern[s] = RankKernel(a, Vector(d), sub.interface_local_dofs,
                                kernels,
                                local_matrices ? nullptr
                                               : sub.elem_store.get());
        a.scale_symmetric(d);  // Â = D̂ K̂ D̂ (Eq. 44)
        r.counters().flops += 2ull * static_cast<std::uint64_t>(a.nnz());
        if (deflation.enabled) {
          // E = ZᵀÂZ from the local-format sum identity: one sweep over
          // the scaled nnz per rank, ONE allreduce of the dense buffer.
          OBS_SPAN(comm.tracer(), "build_coarse", obs::Cat::Setup);
          Vector w(nl);  // Z weights 1/d̂ (see core/deflation.hpp)
          for (std::size_t l = 0; l < nl; ++l) w[l] = 1.0 / d[l];
          DeflationRank dr(sub, static_cast<int>(s), part.nparts(),
                           deflation, w);
          la::DenseMatrix ep(dr.ncoarse(), dr.ncoarse());
          dr.accumulate_e_scaled(a, ep);
          r.counters().flops += static_cast<std::uint64_t>(a.nnz());
          comm.allreduce_sum(ep.data());
          // Local-leader guard (not rank 0): on a multi-process team
          // every process needs its own copy, and the allreduce made
          // ep bit-identical on every rank.
          if (static_cast<int>(s) == comm.local_leader())
            e_shared = std::move(ep);
        }
        op.a[s] = std::move(a);
        op.d[s] = std::move(d);
      },
      trace);
  if (deflation.enabled) {
    // One shared read-only factorization serves every rank (the
    // allreduce already replicated E bit-identically); the flops are
    // charged per rank, matching the redundant factorization a
    // distributed-memory run performs in place of a broadcast.
    op.coarse = std::make_shared<const CoarseOperator>(std::move(e_shared));
    const auto nc = static_cast<std::uint64_t>(op.coarse->n());
    for (auto& c : op.setup_counters) c.flops += 2 * nc * nc * nc / 3;
  }

  // The polynomial recursion data depends only on the spec (the paper
  // builds it redundantly per rank with zero communication); one shared
  // read-only build serves every rank of every later batch solve.
  if (spec.kind == PolyKind::Gls) {
    op.gls = std::make_shared<const GlsPolynomial>(spec.theta, spec.degree);
    const std::uint64_t build = DistPoly::gls_build_flops(*op.gls);
    for (auto& c : op.setup_counters) c.flops += build;
  } else if (spec.kind == PolyKind::Chebyshev) {
    op.cheb = std::make_shared<const ChebyshevPolynomial>(spec.theta.front(),
                                                          spec.degree);
  }
  op.setup_seconds = timer.seconds();
  for (auto& c : op.setup_counters) c.total_seconds = op.setup_seconds;
  return op;
}

BatchSolveResult solve_edd_batch(par::Team& team, const EddPartition& part,
                                 const EddOperatorState& op,
                                 std::span<const Vector> rhs,
                                 const SolveOptions& opts, obs::Trace* trace) {
  PFEM_CHECK_MSG(!rhs.empty(), "solve_edd_batch: empty RHS batch");
  PFEM_CHECK_MSG(opts.restart >= 1 && opts.max_iters >= 1 && opts.tol > 0.0,
                 "solve_edd_batch: restart/max_iters must be >= 1 and "
                 "tol > 0");
  PFEM_CHECK_MSG(team.size() == part.nparts(),
                 "solve_edd_batch: team size " << team.size()
                 << " != partition parts " << part.nparts());
  PFEM_CHECK(op.a.size() == part.subs.size());
  validate_poly_spec(op.poly);
  for (const Vector& f : rhs)
    PFEM_CHECK(f.size() == static_cast<std::size_t>(part.n_global));
  const auto p = static_cast<std::size_t>(part.nparts());
  const std::size_t nb = rhs.size();
  if (opts.recycle.enabled && opts.recycle.in != nullptr) {
    // Session inputs are physical global vectors, same shape as the
    // solutions this solver returns; anything else is a caller bug.
    const auto& in = *opts.recycle.in;
    for (std::size_t b = 0; b < std::min(in.size(), nb); ++b) {
      PFEM_CHECK_MSG(
          in[b].x0.empty() ||
              in[b].x0.size() == static_cast<std::size_t>(part.n_global),
          "solve_edd_batch: recycle x0 length mismatch for RHS " << b);
      for (const Vector& dir : in[b].directions)
        PFEM_CHECK_MSG(
            dir.size() == static_cast<std::size_t>(part.n_global),
            "solve_edd_batch: recycle direction length mismatch for RHS "
                << b);
    }
  }
  const auto kmax = static_cast<std::size_t>(
      std::max<index_t>(opts.recycle.max_directions, 0));
  const bool harvest =
      opts.recycle.enabled && opts.recycle.harvest && kmax > 0;

  BatchShared out;
  out.sol.assign(nb, std::vector<Vector>(p));
  out.items.assign(nb, BatchItemResult{});
  if (harvest) {
    out.dirs.assign(
        nb, std::vector<std::vector<Vector>>(kmax, std::vector<Vector>(p)));
    out.dir_count.assign(nb, 0);
  }

  // An external trace (the service's) wins; otherwise honor the per-call
  // observe knob with a trace owned by this result.
  std::shared_ptr<obs::Trace> own_trace;
  if (trace == nullptr && opts.observe.trace) {
    own_trace = std::make_shared<obs::Trace>(static_cast<int>(p),
                                             opts.observe.ring_capacity);
    trace = own_trace.get();
  }

  WallTimer timer;
  std::vector<par::PerfCounters> counters;
  std::string comm_error;
  try {
    counters = team.run(
        [&](par::Comm& comm) {
          batch_rank_solve(part, op, rhs, opts, comm, out);
        },
        trace);
  } catch (const par::CommError& e) {
    // Typed communication failure: all ranks have joined, so the partial
    // per-RHS histories rank 0 wrote incrementally are intact.  Return a
    // typed failed report; Cancelled and rank errors still propagate.
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
  // On a multi-process team only locally hosted subdomains deposited
  // their solution pieces; zero-fill the remote slots so the gather
  // assembles the dofs this process's ranks own (each process holds its
  // piece of the solution, as a distributed-memory run would — the
  // per-RHS convergence reports above are complete everywhere).
  for (std::size_t b = 0; b < nb; ++b)
    for (std::size_t q = 0; q < p; ++q) {
      Vector& slot = out.sol[b][q];
      const std::size_t want = part.subs[q].local_to_global.size();
      if (slot.size() != want) slot.assign(want, 0.0);
    }
  result.x.reserve(nb);
  for (std::size_t b = 0; b < nb; ++b)
    result.x.push_back(partition::edd_gather_global(part, out.sol[b]));
  if (harvest) {
    // Assemble the harvested ring slots oldest → newest; remote ranks'
    // pieces zero-fill exactly like the solution gather above.
    result.recycled.resize(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t cnt = out.dir_count[b];
      const std::size_t h = std::min(cnt, kmax);
      for (std::size_t i = 0; i < h; ++i) {
        std::vector<Vector>& pieces = out.dirs[b][(cnt - h + i) % kmax];
        for (std::size_t q = 0; q < p; ++q) {
          Vector& piece = pieces[q];
          const std::size_t want = part.subs[q].local_to_global.size();
          if (piece.size() != want) piece.assign(want, 0.0);
        }
        result.recycled[b].push_back(
            partition::edd_gather_global(part, pieces));
      }
    }
  }
  result.rank_counters = std::move(counters);
  return result;
}

}  // namespace pfem::core
