// Internal rank-local kernels shared by the EDD solvers (FGMRES and CG):
// the nearest-neighbor exchange (monolithic and split into start/finish
// halves for compute overlap), distributed inner products in the two
// vector formats, and the distributed polynomial application
// (Algorithm 7 generalized to Neumann and GLS, in both the local- and
// global-format disciplines).  Not part of the public API.
#pragma once

#include <cmath>
#include <optional>
#include <span>
#include <string>

#include "common/error.hpp"
#include "core/chebyshev.hpp"
#include "core/edd_solver.hpp"
#include "core/gls_poly.hpp"
#include "core/kernels.hpp"
#include "core/neumann.hpp"
#include "la/vector_ops.hpp"
#include "par/comm.hpp"
#include "partition/edd.hpp"
#include "sparse/csr.hpp"

namespace pfem::core::detail {

using partition::EddPartition;
using partition::EddSubdomain;
using sparse::CsrMatrix;

inline constexpr int kExchangeTag = 0;

/// d_i <- 1/√d_i over the globally summed row norms (Eq. 44).  The
/// exchange made d consistent, so a zero sum is a degenerate ROW OF THE
/// ASSEMBLED OPERATOR, not a partition artifact — typed so the service
/// answers Failed{BadOperator} (request-scoped, never cached).
inline void invert_sqrt_row_norms(const EddSubdomain& sub, Vector& d) {
  for (std::size_t l = 0; l < d.size(); ++l) {
    if (!(d[l] > 0.0))
      throw BadOperatorError(
          "norm-1 scaling: zero/degenerate row at global dof " +
          std::to_string(sub.local_to_global[l]));
    d[l] = 1.0 / std::sqrt(d[l]);
  }
}

/// sqrt clamped at zero: distributed ⟨x_loc, x_glob⟩ equals ‖x‖² only in
/// exact arithmetic — near convergence the cross-format partial sums can
/// round to a tiny negative value.  Callers must treat an exactly-zero
/// result as a zero vector (happy breakdown), never divide by it.
inline real_t sqrt_nonneg(real_t v) { return v > 0.0 ? std::sqrt(v) : 0.0; }

/// Rank-local helper: exchange, distributed inner products, counting.
class EddRank {
 public:
  /// `max_batch` is the widest fused exchange this rank will run (the
  /// solver's RHS batch width); buffers are preposted for it so the
  /// per-iteration resizes below never allocate.
  EddRank(const EddSubdomain& sub, par::Comm& comm, std::size_t max_batch = 1)
      : sub_(sub),
        comm_(comm),
        nl_(static_cast<std::size_t>(sub.n_local())),
        max_batch_(std::max<std::size_t>(max_batch, 1)) {
    // Prepost the exchange buffers: capacities are fixed by the neighbor
    // lists TIMES the configured batch width, so neither the single-RHS
    // nor the fused multi-RHS exchange ever allocates per iteration.
    std::size_t max_shared = 0;
    for (const auto& nb : sub_.neighbors)
      max_shared = std::max(max_shared, nb.shared_local_dofs.size());
    send_buf_.reserve(max_shared * max_batch_);
    recv_buf_.reserve(max_shared * max_batch_);
    buf_.reserve(sub_.interface_local_dofs.size());
    fused_buf_.reserve(sub_.interface_local_dofs.size() * max_batch_);
  }

  [[nodiscard]] std::size_t nl() const noexcept { return nl_; }
  [[nodiscard]] par::Comm& comm() noexcept { return comm_; }
  [[nodiscard]] par::PerfCounters& counters() noexcept {
    return comm_.counters();
  }

  /// û_glob = ⊕Σ_{∂Ω_s} û_loc (Eq. 28): in-place sum of neighbors'
  /// shared-dof contributions.  One logical nearest-neighbor exchange.
  ///
  /// Determinism: contributions are folded in ascending *rank* order
  /// (own contribution inserted at this rank's position), so every
  /// sharer of a dof computes the bit-identical sum even when three or
  /// more subdomains meet at a point.  Without this, the per-rank
  /// "global format" copies drift apart by ulps — harmless for restarted
  /// FGMRES but fatal for CG's recursively updated residual.
  void exchange(std::span<real_t> v) {
    PFEM_DEBUG_CHECK(v.size() == nl_);
    // The "exchange" span and neighbor_exchanges count the same logical
    // event, so a trace is an exact cross-check of the counters (and of
    // the paper's Table 1 per-iteration exchange counts).
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    counters().neighbor_exchanges += 1;
    post_sends(v);
    stash_and_zero(v);
    fold(v);
  }

  /// First half of exchange(): post the sends and stash-and-zero the
  /// interface entries of v, then return with the messages in flight.
  /// The caller may do any work that neither reads nor writes v's
  /// interface entries — in particular the interior-row block of the
  /// split operator — before calling exchange_finish(v).  The
  /// neighbor_exchanges counter is charged here (the exchange logically
  /// begins now); the matching "exchange" span is emitted by the finish
  /// half, so a trace still carries exactly one per logical exchange.
  void exchange_start(std::span<real_t> v) {
    PFEM_DEBUG_CHECK(v.size() == nl_);
    counters().neighbor_exchanges += 1;
    post_sends(v);
    stash_and_zero(v);
  }

  /// Second half: drain the receives and fold all contributions in the
  /// same ascending-rank order as the monolithic exchange — the result
  /// is bit-identical regardless of how much compute ran in between.
  void exchange_finish(std::span<real_t> v) {
    PFEM_DEBUG_CHECK(v.size() == nl_);
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
    fold(v);
  }

  /// Fused form of exchange(): one ⊕Σ round for `vs.size()` vectors at
  /// once — each neighbor gets ONE message carrying every vector's
  /// shared-dof section, so the per-message latency (the cost model's
  /// alpha term) is amortized across the batch.  Counted as one logical
  /// neighbor exchange.  The per-dof fold order is identical to
  /// exchange()'s (ascending sharer rank), so each vector's result is
  /// bit-identical to what a standalone exchange would produce.
  void exchange_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    if (nb == 0) return;
    if (nb == 1) {
      exchange(*vs[0]);
      return;
    }
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(nb));
    counters().neighbor_exchanges += 1;
    post_sends_many(vs);
    stash_and_zero_many(vs);
    fold_many(vs);
  }

  /// Split halves of exchange_many(), same contract as exchange_start/
  /// exchange_finish but for a fused batch.
  void exchange_many_start(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    if (nb == 0) return;
    if (nb == 1) {
      exchange_start(*vs[0]);
      return;
    }
    counters().neighbor_exchanges += 1;
    post_sends_many(vs);
    stash_and_zero_many(vs);
  }

  void exchange_many_finish(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    if (nb == 0) return;
    if (nb == 1) {
      exchange_finish(*vs[0]);
      return;
    }
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(nb));
    fold_many(vs);
  }

  /// ⟨x, y⟩ with x local-distributed and y global-distributed (Eq. 33):
  /// local partial + allreduce.
  [[nodiscard]] real_t dot_lg(std::span<const real_t> x_loc,
                              std::span<const real_t> y_glob) {
    counters().inner_products += 1;
    counters().flops += 2 * nl_;
    return comm_.allreduce_sum(la::dot(x_loc, y_glob));
  }

  /// Local partial of ⟨x_loc, y_glob⟩ without the reduction — used when
  /// the caller batches several coefficients into one allreduce.
  [[nodiscard]] real_t dot_lg_partial(std::span<const real_t> x_loc,
                                      std::span<const real_t> y_glob) {
    counters().inner_products += 1;
    counters().flops += 2 * nl_;
    return la::dot(x_loc, y_glob);
  }

  /// ‖x‖² for a global-distributed x via the partition-of-unity weights
  /// 1/mult (each global dof counted exactly once across ranks).
  [[nodiscard]] real_t norm2_sq_global(std::span<const real_t> x_glob) {
    return comm_.allreduce_sum(dot_gg_partial(x_glob, x_glob));
  }

  /// ⟨x, y⟩ with both operands in global-distributed format (weighted by
  /// 1/mult), allreduced.
  [[nodiscard]] real_t dot_gg(std::span<const real_t> x_glob,
                              std::span<const real_t> y_glob) {
    return comm_.allreduce_sum(dot_gg_partial(x_glob, y_glob));
  }

  /// Local partial of the weighted global-format inner product.
  [[nodiscard]] real_t dot_gg_partial(std::span<const real_t> x_glob,
                                      std::span<const real_t> y_glob) {
    counters().inner_products += 1;
    counters().flops += 3 * nl_;
    real_t s = 0.0;
    for (std::size_t l = 0; l < nl_; ++l)
      s += x_glob[l] * y_glob[l] /
           static_cast<real_t>(sub_.multiplicity[l]);
    return s;
  }

  /// Local SpMV ŷ_loc = Â x̂_glob (Eq. 37) with counting.
  void spmv(const CsrMatrix& a, std::span<const real_t> x_glob,
            std::span<real_t> y_loc) {
    OBS_SPAN(comm_.tracer(), "spmv", obs::Cat::Matvec);
    a.spmv(x_glob, y_loc);
    counters().matvecs += 1;
    counters().flops += a.spmv_flops();
  }

  /// Same through the kernel layer (format chosen by KernelOptions).
  void spmv(const RankKernel& a, std::span<const real_t> x_glob,
            std::span<real_t> y_loc) {
    OBS_SPAN(comm_.tracer(), "spmv", obs::Cat::Matvec);
    a.apply(x_glob, y_loc);
    counters().matvecs += 1;
    counters().flops += a.apply_flops();
  }

  const EddSubdomain& sub() const noexcept { return sub_; }

 private:
  // The exchange decomposed into its three phases, shared by the
  // monolithic and the split form so the message pattern, the stash/fold
  // arithmetic and the deterministic ordering cannot drift apart.

  void post_sends(std::span<const real_t> v) {
    for (const auto& nb : sub_.neighbors) {
      const std::size_t ns = nb.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(ns <= send_buf_.capacity());
      send_buf_.resize(ns);
      for (std::size_t k = 0; k < ns; ++k)
        send_buf_[k] = v[static_cast<std::size_t>(nb.shared_local_dofs[k])];
      comm_.exchange_start(nb.rank, kExchangeTag, send_buf_);
    }
  }

  /// Stash own interface contributions into buf_ and zero them in v, so
  /// the folds (own and neighbors') can land in pure ascending order.
  void stash_and_zero(std::span<real_t> v) {
    buf_.resize(sub_.interface_local_dofs.size());
    for (std::size_t k = 0; k < sub_.interface_local_dofs.size(); ++k) {
      const auto l = static_cast<std::size_t>(sub_.interface_local_dofs[k]);
      buf_[k] = v[l];
      v[l] = 0.0;
    }
  }

  /// Fold all sharers' contributions in ascending rank order (own
  /// contribution inserted at this rank's position).
  void fold(std::span<real_t> v) {
    bool own_added = sub_.neighbors.empty();
    auto add_own = [&] {
      // The own-contribution fold is the same work as a neighbor fold —
      // account its flops symmetrically.
      for (std::size_t k = 0; k < sub_.interface_local_dofs.size(); ++k)
        v[static_cast<std::size_t>(sub_.interface_local_dofs[k])] += buf_[k];
      counters().flops += sub_.interface_local_dofs.size();
      own_added = true;
    };
    if (own_added) add_own();
    for (const auto& nb : sub_.neighbors) {  // sorted by rank
      if (!own_added && nb.rank > comm_.rank()) add_own();
      const std::size_t ns = nb.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(ns <= recv_buf_.capacity());
      recv_buf_.resize(ns);
      comm_.exchange_finish(nb.rank, kExchangeTag,
                            std::span<real_t>(recv_buf_.data(), ns));
      for (std::size_t k = 0; k < ns; ++k)
        v[static_cast<std::size_t>(nb.shared_local_dofs[k])] += recv_buf_[k];
      counters().flops += ns;
    }
    if (!own_added) add_own();
  }

  void post_sends_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    PFEM_DEBUG_CHECK(nb <= max_batch_);
    for (const auto& nb_it : sub_.neighbors) {
      const std::size_t ns = nb_it.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(nb * ns <= send_buf_.capacity());
      send_buf_.resize(nb * ns);
      for (std::size_t b = 0; b < nb; ++b) {
        const Vector& v = *vs[b];
        for (std::size_t k = 0; k < ns; ++k)
          send_buf_[b * ns + k] =
              v[static_cast<std::size_t>(nb_it.shared_local_dofs[k])];
      }
      comm_.exchange_start(nb_it.rank, kExchangeTag, send_buf_);
    }
  }

  void stash_and_zero_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    const std::size_t ni = sub_.interface_local_dofs.size();
    PFEM_DEBUG_CHECK(nb * ni <= fused_buf_.capacity());
    fused_buf_.resize(nb * ni);
    for (std::size_t b = 0; b < nb; ++b) {
      Vector& v = *vs[b];
      for (std::size_t k = 0; k < ni; ++k) {
        const auto l = static_cast<std::size_t>(sub_.interface_local_dofs[k]);
        fused_buf_[b * ni + k] = v[l];
        v[l] = 0.0;
      }
    }
  }

  void fold_many(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    const std::size_t ni = sub_.interface_local_dofs.size();
    bool own_added = sub_.neighbors.empty();
    auto add_own = [&] {
      for (std::size_t b = 0; b < nb; ++b) {
        Vector& v = *vs[b];
        for (std::size_t k = 0; k < ni; ++k)
          v[static_cast<std::size_t>(sub_.interface_local_dofs[k])] +=
              fused_buf_[b * ni + k];
      }
      counters().flops += nb * ni;
      own_added = true;
    };
    if (own_added) add_own();
    for (const auto& nb_it : sub_.neighbors) {  // sorted by rank
      if (!own_added && nb_it.rank > comm_.rank()) add_own();
      const std::size_t ns = nb_it.shared_local_dofs.size();
      PFEM_DEBUG_CHECK(nb * ns <= recv_buf_.capacity());
      recv_buf_.resize(nb * ns);
      comm_.exchange_finish(nb_it.rank, kExchangeTag,
                            std::span<real_t>(recv_buf_.data(), nb * ns));
      for (std::size_t b = 0; b < nb; ++b) {
        Vector& v = *vs[b];
        for (std::size_t k = 0; k < ns; ++k)
          v[static_cast<std::size_t>(nb_it.shared_local_dofs[k])] +=
              recv_buf_[b * ns + k];
      }
      counters().flops += nb * ns;
    }
    if (!own_added) add_own();
  }

  const EddSubdomain& sub_;
  par::Comm& comm_;
  std::size_t nl_;
  std::size_t max_batch_;  ///< widest fused exchange ever issued
  Vector buf_, send_buf_, recv_buf_;
  Vector fused_buf_;  ///< interface stash of exchange_many (nb x ni)
};

/// One Enhanced-discipline recursion step: ŷ = Â x̂ immediately
/// globalized by one exchange.  With a split kernel the exchange
/// overlaps the interior block: the interface-coupled rows are computed
/// first, the sends go out while the interior rows (disjoint from every
/// stashed interface dof) fill in, and the folds land last.  Exactly one
/// matvec and one exchange either way — the overlapped "exchange" span
/// nests inside the "spmv" span instead of following it, but per-event
/// counts (what pfem_trace cross-checks against Table 1) are unchanged.
inline void spmv_exchange(EddRank& r, const RankKernel& a,
                          std::span<const real_t> x_glob,
                          std::span<real_t> y) {
  if (a.split()) {
    OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec);
    // Additive halves (Ebe) scatter-add into shared rows — start clean.
    if (a.additive()) la::fill(y, 0.0);
    a.apply_coupled(x_glob, y);
    r.exchange_start(y);
    a.apply_interior(x_glob, y);
    r.counters().matvecs += 1;
    r.counters().flops += a.apply_flops();
    r.exchange_finish(y);
  } else {
    r.spmv(a, x_glob, y);
    r.exchange(y);
  }
}

/// One Basic-discipline recursion step: globalize ŵ in place (the caller
/// passes a copy it can spare), then ŷ_loc = Â ŵ_glob.  With a split
/// kernel the sends go out first; the interior rows — which read no
/// interface column, so the mid-flight zeroed entries of ŵ are invisible
/// to them — compute while messages fly; the folds land; the coupled
/// rows finish against the fully globalized ŵ.
inline void exchange_spmv(EddRank& r, const RankKernel& a,
                          std::span<real_t> w_glob,
                          std::span<real_t> y_loc) {
  if (a.split()) {
    r.exchange_start(w_glob);
    OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec);
    // Additive halves (Ebe) scatter-add into shared rows — start clean.
    if (a.additive()) la::fill(y_loc, 0.0);
    a.apply_interior(w_glob, y_loc);
    r.exchange_finish(w_glob);
    a.apply_coupled(w_glob, y_loc);
    r.counters().matvecs += 1;
    r.counters().flops += a.apply_flops();
  } else {
    r.exchange(w_glob);
    r.spmv(a, w_glob, y_loc);
  }
}

/// Distributed polynomial preconditioner: the Algorithm-7 pattern for
/// both Neumann and GLS, in both vector-format disciplines.
class DistPoly {
 public:
  /// @param counters when non-null, construction work (the GLS Stieltjes
  ///        basis build) is charged here so setup accounting covers the
  ///        preconditioner, not just the scaling.
  DistPoly(const PolySpec& spec, std::size_t nl,
           par::PerfCounters* counters = nullptr)
      : spec_(spec) {
    if (spec.kind == PolyKind::Gls) {
      gls_.emplace(spec.theta, spec.degree);
      if (counters != nullptr) counters->flops += gls_build_flops(*gls_);
    } else if (spec.kind == PolyKind::Chebyshev) {
      PFEM_CHECK_MSG(!spec.theta.empty(),
                     "Chebyshev preconditioner needs an interval");
      cheb_.emplace(spec.theta.front(), spec.degree);
    }
    scratch_a_.resize(nl);
    scratch_b_.resize(nl);
    scratch_c_.resize(nl);
    scratch_d_.resize(nl);
  }

  /// Flop estimate of a GLS build: the Stieltjes three-term recursion and
  /// the mu fit each sweep every quadrature node per basis degree (~10
  /// flops per node-degree pair, counting the alpha/beta inner products).
  [[nodiscard]] static std::uint64_t gls_build_flops(const GlsPolynomial& g) {
    return 10ull * static_cast<std::uint64_t>(g.degree() + 1) *
           static_cast<std::uint64_t>(g.basis().num_nodes());
  }

  [[nodiscard]] int degree() const noexcept {
    return spec_.kind == PolyKind::None ? 0 : spec_.degree;
  }

  /// Enhanced discipline (Algorithm 6 line 10): v and z in *global*
  /// distributed format; exactly `degree` exchanges.
  void apply_global(EddRank& r, const RankKernel& a,
                    std::span<const real_t> v_glob, std::span<real_t> z_glob) {
    const std::size_t n = r.nl();
    switch (spec_.kind) {
      case PolyKind::None:
        la::copy(v_glob, z_glob);
        return;
      case PolyKind::Neumann: {
        // w_k = v + (I − ωA) w_{k−1}, all in global format.
        Vector& w = scratch_a_;
        Vector& aw = scratch_b_;
        la::copy(v_glob, w);
        for (int k = 0; k < spec_.degree; ++k) {
          spmv_exchange(r, a, w, aw);
          for (std::size_t i = 0; i < n; ++i)
            w[i] = v_glob[i] + w[i] - spec_.omega * aw[i];
          r.counters().flops += 3 * n;
          r.counters().vector_updates += 1;
        }
        for (std::size_t i = 0; i < n; ++i) z_glob[i] = spec_.omega * w[i];
        r.counters().flops += n;
        return;
      }
      case PolyKind::Gls: {
        const OrthoBasis& basis = gls_->basis();
        const auto mu = gls_->mu();
        Vector& u_prev = scratch_a_;
        Vector& u = scratch_b_;
        Vector& au = scratch_c_;
        la::fill(u_prev, 0.0);
        const real_t inv0 = 1.0 / basis.sqrt_beta(0);
        for (std::size_t i = 0; i < n; ++i) {
          u[i] = inv0 * v_glob[i];
          z_glob[i] = mu[0] * u[i];
        }
        r.counters().flops += 2 * n;
        for (int i = 0; i < spec_.degree; ++i) {
          spmv_exchange(r, a, u, au);
          const real_t ai = basis.alpha(i);
          const real_t sb_i = basis.sqrt_beta(i);
          const real_t sb_n = basis.sqrt_beta(i + 1);
          const real_t mu_next = mu[static_cast<std::size_t>(i) + 1];
          for (std::size_t k = 0; k < n; ++k) {
            const real_t t =
                (au[k] - ai * u[k] - (i > 0 ? sb_i * u_prev[k] : 0.0)) / sb_n;
            u_prev[k] = u[k];
            u[k] = t;
            z_glob[k] += mu_next * t;
          }
          r.counters().flops += 7 * n;
          r.counters().vector_updates += 1;
        }
        return;
      }
      case PolyKind::Chebyshev: {
        // Chebyshev semi-iteration, all vectors in global format; each
        // step's SpMV output is globalized by one exchange.
        const real_t theta = cheb_theta();
        const real_t delta = cheb_delta();
        const real_t sigma1 = theta / delta;
        Vector& res = scratch_a_;
        Vector& d = scratch_b_;
        Vector& ad = scratch_c_;
        la::copy(v_glob, res);
        real_t rho = 1.0 / sigma1;
        for (std::size_t i = 0; i < n; ++i) {
          d[i] = res[i] / theta;
          z_glob[i] = d[i];
        }
        r.counters().flops += 2 * n;
        for (int k = 1; k <= spec_.degree; ++k) {
          spmv_exchange(r, a, d, ad);
          const real_t rho_next = 1.0 / (2.0 * sigma1 - rho);
          const real_t c1 = rho_next * rho;
          const real_t c2 = 2.0 * rho_next / delta;
          for (std::size_t i = 0; i < n; ++i) {
            res[i] -= ad[i];
            d[i] = c1 * d[i] + c2 * res[i];
            z_glob[i] += d[i];
          }
          rho = rho_next;
          r.counters().flops += 6 * n;
          r.counters().vector_updates += 1;
        }
        return;
      }
    }
  }

  /// Basic discipline (Algorithm 5 line 12 via Algorithm 7): v and z in
  /// *local* distributed format; the recursion state is kept in both
  /// formats so the result needs no final exchange.  Exactly `degree`
  /// exchanges.
  void apply_local(EddRank& r, const RankKernel& a,
                   std::span<const real_t> v_loc, std::span<real_t> z_loc) {
    const std::size_t n = r.nl();
    switch (spec_.kind) {
      case PolyKind::None:
        la::copy(v_loc, z_loc);
        return;
      case PolyKind::Neumann: {
        // w_loc holds w_k in local format; each step exchanges a copy to
        // get the global format needed by the SpMV.
        Vector& w_loc = scratch_a_;
        Vector& w_glob = scratch_b_;
        Vector& aw = scratch_c_;
        la::copy(v_loc, w_loc);
        for (int k = 0; k < spec_.degree; ++k) {
          la::copy(w_loc, w_glob);
          exchange_spmv(r, a, w_glob, aw);
          for (std::size_t i = 0; i < n; ++i)
            w_loc[i] = v_loc[i] + w_loc[i] - spec_.omega * aw[i];
          r.counters().flops += 3 * n;
          r.counters().vector_updates += 1;
        }
        for (std::size_t i = 0; i < n; ++i) z_loc[i] = spec_.omega * w_loc[i];
        r.counters().flops += n;
        return;
      }
      case PolyKind::Gls: {
        const OrthoBasis& basis = gls_->basis();
        const auto mu = gls_->mu();
        Vector& u_prev = scratch_a_;
        Vector& u = scratch_b_;
        Vector& work = scratch_c_;  // globalized copy of u
        Vector& au = scratch_d_;
        la::fill(u_prev, 0.0);
        const real_t inv0 = 1.0 / basis.sqrt_beta(0);
        for (std::size_t i = 0; i < n; ++i) {
          u[i] = inv0 * v_loc[i];
          z_loc[i] = mu[0] * u[i];
        }
        r.counters().flops += 2 * n;
        for (int i = 0; i < spec_.degree; ++i) {
          la::copy(u, work);
          exchange_spmv(r, a, work, au);  // au back in local format
          const real_t ai = basis.alpha(i);
          const real_t sb_i = basis.sqrt_beta(i);
          const real_t sb_n = basis.sqrt_beta(i + 1);
          const real_t mu_next = mu[static_cast<std::size_t>(i) + 1];
          for (std::size_t k = 0; k < n; ++k) {
            const real_t t =
                (au[k] - ai * u[k] - (i > 0 ? sb_i * u_prev[k] : 0.0)) / sb_n;
            u_prev[k] = u[k];
            u[k] = t;
            z_loc[k] += mu_next * t;
          }
          r.counters().flops += 7 * n;
          r.counters().vector_updates += 1;
        }
        return;
      }
      case PolyKind::Chebyshev: {
        // Chebyshev semi-iteration with res/d/z in local format; each
        // step exchanges a copy of d to feed the SpMV.
        const real_t theta = cheb_theta();
        const real_t delta = cheb_delta();
        const real_t sigma1 = theta / delta;
        Vector& res = scratch_a_;
        Vector& d = scratch_b_;
        Vector& ad = scratch_c_;
        Vector& d_glob = scratch_d_;
        la::copy(v_loc, res);
        real_t rho = 1.0 / sigma1;
        for (std::size_t i = 0; i < n; ++i) {
          d[i] = res[i] / theta;
          z_loc[i] = d[i];
        }
        r.counters().flops += 2 * n;
        for (int k = 1; k <= spec_.degree; ++k) {
          la::copy(d, d_glob);
          exchange_spmv(r, a, d_glob, ad);  // local-format result
          const real_t rho_next = 1.0 / (2.0 * sigma1 - rho);
          const real_t c1 = rho_next * rho;
          const real_t c2 = 2.0 * rho_next / delta;
          for (std::size_t i = 0; i < n; ++i) {
            res[i] -= ad[i];
            d[i] = c1 * d[i] + c2 * res[i];
            z_loc[i] += d[i];
          }
          rho = rho_next;
          r.counters().flops += 6 * n;
          r.counters().vector_updates += 1;
        }
        return;
      }
    }
  }

 private:
  PolySpec spec_;
  std::optional<GlsPolynomial> gls_;
  std::optional<ChebyshevPolynomial> cheb_;
  Vector scratch_a_, scratch_b_, scratch_c_, scratch_d_;

  [[nodiscard]] real_t cheb_theta() const {
    return 0.5 * (cheb_->interval().lo + cheb_->interval().hi);
  }
  [[nodiscard]] real_t cheb_delta() const {
    return 0.5 * (cheb_->interval().hi - cheb_->interval().lo);
  }
};


}  // namespace pfem::core::detail
