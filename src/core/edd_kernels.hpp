// Internal rank-level building blocks of the distributed solvers.  A
// *rank space* is a rank helper plus the operator it applies: EDD's
// EddRank + RankKernel (the nearest-neighbor exchange fused over lanes,
// whole or split into start/finish halves for compute overlap, and the
// distributed inner products of its two vector formats), and
// RDD's RddRank + RddOp (owned rows plus an external halo, where the two
// formats coincide).  On top of a space: the multi-lane polynomial
// applier (Algorithm 7 generalized to Neumann, GLS and Chebyshev), the
// A-DEF1 deflation wrapper around it (EDD), the one EDD setup, and the
// one distributed FGMRES driver and one-shot runner every FGMRES entry
// point shares (Algorithms 5, 6 and 8).  Not part of the public API.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/chebyshev.hpp"
#include "core/deflation.hpp"
#include "core/edd_batch.hpp"
#include "core/edd_solver.hpp"
#include "core/gls_poly.hpp"
#include "core/kernels.hpp"
#include "la/vector_ops.hpp"
#include "par/comm.hpp"
#include "partition/edd.hpp"
#include "partition/rdd.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"

namespace pfem::core::detail {

using partition::EddPartition;
using partition::EddSubdomain;
using sparse::CsrMatrix;

inline constexpr int kExchangeTag = 0;

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
    // lists TIMES the configured batch width, so no exchange ever
    // allocates per iteration.
    std::size_t max_shared = 0;
    for (const auto& nb : sub_.neighbors)
      max_shared = std::max(max_shared, nb.shared_local_dofs.size());
    send_buf_.reserve(max_shared * max_batch_);
    recv_buf_.reserve(max_shared * max_batch_);
    stash_.reserve(sub_.interface_local_dofs.size() * max_batch_);
  }

  [[nodiscard]] std::size_t nl() const noexcept { return nl_; }
  [[nodiscard]] par::Comm& comm() noexcept { return comm_; }
  [[nodiscard]] par::PerfCounters& counters() noexcept {
    return comm_.counters();
  }

  /// û_glob = ⊕Σ_{∂Ω_s} û_loc (Eq. 28) for every vector of `vs` at
  /// once: in-place sum of neighbors' shared-dof contributions.  Each
  /// neighbor gets ONE message carrying every vector's shared-dof
  /// section, so the per-message latency (the cost model's alpha term)
  /// is amortized across the batch.  One logical nearest-neighbor
  /// exchange, whatever the width.
  ///
  /// Determinism: contributions are folded in ascending *rank* order
  /// (own contribution inserted at this rank's position), so every
  /// sharer of a dof computes the bit-identical sum even when three or
  /// more subdomains meet at a point, and each vector's result is the
  /// same at any batch width.  Without this, the per-rank "global
  /// format" copies drift apart by ulps — harmless for restarted FGMRES
  /// but fatal for CG's recursively updated residual.
  void exchange_many(std::span<Vector* const> vs) {
    if (vs.empty()) return;
    // The "exchange" span and neighbor_exchanges count the same logical
    // event, so a trace is an exact cross-check of the counters (and of
    // the paper's Table 1 per-iteration exchange counts).
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(vs.size()));
    counters().neighbor_exchanges += 1;
    post_sends(vs);
    stash_and_zero(vs);
    fold(vs);
  }

  /// exchange_many() of one vector.
  void exchange(Vector& v) {
    Vector* const vs[] = {&v};
    exchange_many(vs);
  }

  /// First half of exchange_many(): post the sends and stash-and-zero the
  /// interface entries of every vector, then return with the messages in
  /// flight.  The caller may do any work that neither reads nor writes
  /// the interface entries — in particular the interior-row block of the
  /// split operator — before calling exchange_many_finish(vs).  The
  /// neighbor_exchanges counter is charged here (the exchange logically
  /// begins now); the matching "exchange" span is emitted by the finish
  /// half, so a trace carries exactly one per logical exchange.
  void exchange_many_start(std::span<Vector* const> vs) {
    if (vs.empty()) return;
    counters().neighbor_exchanges += 1;
    post_sends(vs);
    stash_and_zero(vs);
  }

  /// Second half: drain the receives and fold all contributions in
  /// ascending rank order — the result is bit-identical regardless of
  /// how much compute ran in between.
  void exchange_many_finish(std::span<Vector* const> vs) {
    if (vs.empty()) return;
    OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange,
             static_cast<std::uint32_t>(vs.size()));
    fold(vs);
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

  /// Local partial of ⟨x, y⟩ with both operands in global-distributed
  /// format, weighted by 1/mult so each global dof counts exactly once
  /// across ranks (‖x‖² for x = y).
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

  /// Local SpMV ŷ_loc = Â x̂_glob (Eq. 37) through the kernel layer
  /// (format chosen by KernelOptions), with counting.
  void spmv(const RankKernel& a, std::span<const real_t> x_glob,
            std::span<real_t> y_loc) {
    OBS_SPAN(comm_.tracer(), "spmv", obs::Cat::Matvec);
    a.apply(x_glob, y_loc);
    counters().matvecs += 1;
    counters().flops += a.apply_flops();
  }

  /// b̂ = D̂ (f / mult) on this rank's dofs: the scaled RHS in local
  /// distributed format.
  void localize(std::span<const real_t> f, std::span<const real_t> d,
                std::span<real_t> b) {
    for (std::size_t l = 0; l < nl_; ++l)
      b[l] = d[l] * (f[static_cast<std::size_t>(sub_.local_to_global[l])] /
                     static_cast<real_t>(sub_.multiplicity[l]));
    counters().flops += 2 * nl_;
  }

  [[nodiscard]] std::span<const index_t> global_ids() const noexcept {
    return sub_.local_to_global;
  }

 private:
  // The exchange's three phases, shared by the monolithic and the split
  // form so the message pattern, the stash/fold arithmetic and the
  // deterministic ordering cannot drift apart.

  void post_sends(std::span<Vector* const> vs) {
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

  /// Stash own interface contributions into stash_ and zero them in
  /// every vector, so the folds (own and neighbors') can land in pure
  /// ascending order.
  void stash_and_zero(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    const std::size_t ni = sub_.interface_local_dofs.size();
    PFEM_DEBUG_CHECK(nb * ni <= stash_.capacity());
    stash_.resize(nb * ni);
    for (std::size_t b = 0; b < nb; ++b) {
      Vector& v = *vs[b];
      for (std::size_t k = 0; k < ni; ++k) {
        const auto l = static_cast<std::size_t>(sub_.interface_local_dofs[k]);
        stash_[b * ni + k] = v[l];
        v[l] = 0.0;
      }
    }
  }

  /// Fold all sharers' contributions in ascending rank order (own
  /// contribution inserted at this rank's position).
  void fold(std::span<Vector* const> vs) {
    const std::size_t nb = vs.size();
    const std::size_t ni = sub_.interface_local_dofs.size();
    bool own_added = sub_.neighbors.empty();
    auto add_own = [&] {
      // The own-contribution fold is the same work as a neighbor fold —
      // account its flops symmetrically.
      for (std::size_t b = 0; b < nb; ++b) {
        Vector& v = *vs[b];
        for (std::size_t k = 0; k < ni; ++k)
          v[static_cast<std::size_t>(sub_.interface_local_dofs[k])] +=
              stash_[b * ni + k];
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
  Vector send_buf_, recv_buf_;
  Vector stash_;  ///< own interface contributions in flight (nb x ni)
};

/// One Enhanced-discipline recursion step for every lane: ŷ_i = Â x̂_i,
/// then ONE fused exchange globalizes all outputs.  The coupled rows of
/// every lane are computed first, the sends go out, the interior rows
/// fill in while messages fly (they write no stashed interface dof), and
/// the folds land last — exactly one logical exchange and one matvec per
/// lane.  The matrix-free kernel runs its element sweeps lane-fused
/// (each dense element matrix loaded once per batch) with the same
/// per-lane arithmetic as a single apply.
inline void spmv_exchange(EddRank& r, const RankKernel& a,
                          std::span<Vector* const> xs,
                          std::span<Vector* const> ys) {
  const std::size_t nb = xs.size();
  const std::span<const Vector* const> cxs(
      const_cast<const Vector* const*>(xs.data()), nb);
  {
    OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
             static_cast<std::uint32_t>(nb));
    // Additive halves scatter-add into shared rows — start clean.
    if (a.additive())
      for (Vector* y : ys) la::fill(*y, 0.0);
    a.apply_coupled_many(cxs, ys);
    r.exchange_many_start(ys);
    a.apply_interior_many(cxs, ys);
    r.counters().matvecs += nb;
    r.counters().flops += nb * a.apply_flops();
  }
  r.exchange_many_finish(ys);
}

/// One Basic-discipline recursion step for every lane: globalize ŵ_i in
/// place with ONE fused exchange (the caller passes copies it can
/// spare), then ŷ_i = Â ŵ_i in local format.  The sends go out first;
/// the interior rows — which read no interface column, so the mid-flight
/// zeroed entries of ŵ are invisible to them — compute while messages
/// fly; the folds land; the coupled rows finish against the fully
/// globalized ŵ.
inline void exchange_spmv(EddRank& r, const RankKernel& a,
                          std::span<Vector* const> ws,
                          std::span<Vector* const> ys) {
  const std::size_t nb = ws.size();
  const std::span<const Vector* const> cws(
      const_cast<const Vector* const*>(ws.data()), nb);
  r.exchange_many_start(ws);
  OBS_SPAN(r.comm().tracer(), "spmv", obs::Cat::Matvec,
           static_cast<std::uint32_t>(nb));
  if (a.additive())
    for (Vector* y : ys) la::fill(*y, 0.0);
  a.apply_interior_many(cws, ys);
  r.exchange_many_finish(ws);
  a.apply_coupled_many(cws, ys);
  r.counters().matvecs += nb;
  r.counters().flops += nb * a.apply_flops();
}

// ---- RDD's rank space (§4, Algorithm 8): vectors live on the owned rows
// only, so the local and global formats coincide — globalizing is a
// no-op, both partial dots are la::dot, and the lane mat-vec gathers the
// halo itself (Eq. 48).

inline constexpr int kRddTag = 1;

/// RDD's operator: the rank's scaled row blocks (A_loc, A_ext) in the
/// selected storage format.  SELL conversion preserves per-row
/// accumulation order, so the iteration is bit-identical across formats.
struct RddOp {
  CsrMatrix loc, ext;
  sparse::SellMatrix loc_sell, ext_sell;
  bool sell = false;
  std::uint64_t spmv_flops = 0;

  void apply_loc(std::span<const real_t> x, std::span<real_t> y) const {
    if (sell)
      loc_sell.spmv(x, y);
    else
      loc.spmv(x, y);
  }
  void apply_ext_add(std::span<const real_t> x_ext,
                     std::span<real_t> y) const {
    if (sell)
      ext_sell.spmv_add(x_ext, y);
    else
      ext.spmv_add(x_ext, y);
  }
};

/// Rank-local RDD kernels: the halo exchange, the distributed mat-vec
/// (Eq. 48) and the partial inner products (Eq. 47), with counting.
class RddRank {
 public:
  RddRank(const partition::RddSubdomain& sub, par::Comm& comm)
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
  /// of x, which the exchange never touches, so it runs while the
  /// neighbor messages are in flight.  One exchange per matvec.
  void spmv(const RddOp& op, std::span<const real_t> x, std::span<real_t> y) {
    OBS_SPAN(comm_.tracer(), "matvec", obs::Cat::Matvec);
    {
      // Split exchange: counted when the sends go out; the finish emits
      // the one "exchange" span.
      counters().neighbor_exchanges += 1;
      post_sends(x);
      op.apply_loc(x, y);
      OBS_SPAN(comm_.tracer(), "exchange", obs::Cat::Exchange);
      recv_into_ext();
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

  [[nodiscard]] std::span<const real_t> x_ext() const { return x_ext_; }

  /// The formats coincide: there is nothing to globalize.
  void exchange_many(std::span<Vector* const>) {}

  /// Local partial of the global inner product (Eq. 47).
  [[nodiscard]] real_t dot_lg_partial(std::span<const real_t> x,
                                      std::span<const real_t> y) {
    counters().inner_products += 1;
    counters().flops += 2 * nl_;
    return la::dot(x, y);
  }
  [[nodiscard]] real_t dot_gg_partial(std::span<const real_t> x,
                                      std::span<const real_t> y) {
    return dot_lg_partial(x, y);
  }

  /// b = D f on the owned rows: a gather and a scale, not charged to the
  /// flop count.
  void localize(std::span<const real_t> f, std::span<const real_t> d,
                std::span<real_t> b) const {
    for (std::size_t l = 0; l < nl_; ++l)
      b[l] = d[l] * f[static_cast<std::size_t>(sub_.rows[l])];
  }

  [[nodiscard]] std::span<const index_t> global_ids() const noexcept {
    return sub_.rows;
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

  const partition::RddSubdomain& sub_;
  par::Comm& comm_;
  std::size_t nl_;
  Vector x_ext_, send_buf_, recv_buf_;
};

/// RDD's lane step, in either discipline's form: each lane's mat-vec
/// gathers its own halo (one exchange per lane).
inline void spmv_exchange(RddRank& r, const RddOp& a,
                          std::span<Vector* const> xs,
                          std::span<Vector* const> ys) {
  for (std::size_t i = 0; i < xs.size(); ++i) r.spmv(a, *xs[i], *ys[i]);
}
inline void exchange_spmv(RddRank& r, const RddOp& a,
                          std::span<Vector* const> xs,
                          std::span<Vector* const> ys) {
  spmv_exchange(r, a, xs, ys);
}

/// Flop estimate of a GLS build: the Stieltjes three-term recursion and
/// the mu fit each sweep every quadrature node per basis degree (~10
/// flops per node-degree pair, counting the alpha/beta inner products).
[[nodiscard]] inline std::uint64_t gls_build_flops(const GlsPolynomial& g) {
  return 10ull * static_cast<std::uint64_t>(g.degree() + 1) *
         static_cast<std::uint64_t>(g.basis().num_nodes());
}

/// Each rank's own polynomial build (no communication, the paper's
/// point): the recursion data `spec` needs, null for kinds that need
/// none.
[[nodiscard]] inline std::pair<std::shared_ptr<const GlsPolynomial>,
                               std::shared_ptr<const ChebyshevPolynomial>>
build_polynomial(const PolySpec& spec) {
  if (spec.kind == PolyKind::Gls)
    return {std::make_shared<const GlsPolynomial>(spec.theta, spec.degree),
            nullptr};
  if (spec.kind == PolyKind::Chebyshev)
    return {nullptr, std::make_shared<const ChebyshevPolynomial>(
                         spec.theta.front(), spec.degree)};
  return {};
}

/// The polynomial preconditioner z = P_m(Â) v (Algorithm 7, generalized
/// to Neumann, GLS and Chebyshev): the one vector-space implementation
/// of the three recursions.  NeumannPolynomial, GlsPolynomial and
/// ChebyshevPolynomial::apply run it at width 1 with a LinearOp as the
/// step.  The distributed solvers run it for any number of lanes and in
/// either rank space: the recursions advance in lockstep, so each of the
/// m steps does one SpMV per lane but (EDD) ONE fused neighbor exchange
/// in total.  Two vector formats, one recursion:
///   global (Algorithms 6 and 8, and EDD-PCG) — v, z and the state are
///     globally consistent; each step's SpMV output is globalized;
///   local  (Algorithm 5 line 12) — v, z and the state are in local
///     distributed format; each step globalizes a copy of the state
///     before its SpMV, so the result needs no final exchange.
/// Either way exactly `degree` exchanges per application.
class PolyApplier {
 public:
  PolyApplier(const PolySpec& spec, const GlsPolynomial* gls,
              const ChebyshevPolynomial* cheb, std::size_t nl,
              std::size_t width)
      : spec_(spec), gls_(gls), cheb_(cheb), nl_(nl) {
    PFEM_CHECK(spec.kind != PolyKind::Gls || gls != nullptr);
    PFEM_CHECK(spec.kind != PolyKind::Chebyshev || cheb != nullptr);
    if (spec.kind == PolyKind::None) return;
    wa_.assign(width, Vector(nl));
    wb_.assign(width, Vector(nl));
    if (spec.kind != PolyKind::Neumann) wc_.assign(width, Vector(nl));
    ins_.reserve(width);
    outs_.reserve(width);
    vs_.reserve(width);
    zs_.reserve(width);
  }

  /// z <- P_m(A) v at width 1, with `a` as the step: the sequential
  /// applies.  A LinearOp carries no counters, so none are charged.
  void apply(const LinearOp& a, std::span<const real_t> v,
             std::span<real_t> z) {
    PFEM_CHECK(v.size() == nl_ && z.size() == nl_);
    par::PerfCounters uncounted;
    const std::span<const real_t> vs[] = {v};
    const std::span<real_t> zs[] = {z};
    run(vs, zs, uncounted,
        [&](std::vector<Vector>& in, std::vector<Vector>& out) {
          a.apply(in[0], out[0]);
        });
  }

  /// vin[i] -> zout[i] in a rank space, in the local or the global
  /// format; scratch lane i serves input i.
  template <class Rank, class Op>
  void apply(Rank& r, const Op& a, std::span<const Vector* const> vin,
             std::span<Vector* const> zout, bool local) {
    OBS_SPAN(r.comm().tracer(), "poly_apply", obs::Cat::Precond);
    const std::size_t nb = vin.size();
    vs_.clear();
    zs_.clear();
    for (std::size_t i = 0; i < nb; ++i) {
      vs_.emplace_back(*vin[i]);
      zs_.emplace_back(*zout[i]);
    }
    // out_i = Â in_i for every lane, in this application's format.
    run(vs_, zs_, r.counters(),
        [&](std::vector<Vector>& in, std::vector<Vector>& out) {
          ins_.clear();
          outs_.clear();
          if (local && wd_.size() < nb) wd_.resize(nb, Vector(nl_));
          for (std::size_t i = 0; i < nb; ++i) {
            if (local) la::copy(in[i], wd_[i]);
            ins_.push_back(local ? &wd_[i] : &in[i]);
            outs_.push_back(&out[i]);
          }
          if (local)
            exchange_spmv(r, a, ins_, outs_);
          else
            spmv_exchange(r, a, ins_, outs_);
        });
  }

 private:
  /// The three recursions over the lanes vin -> zout.  step(in, out)
  /// sets out[i] = Â in[i] for the first vin.size() lanes of the state;
  /// `c` is charged the vector work.
  template <class Step>
  void run(std::span<const std::span<const real_t>> vin,
           std::span<const std::span<real_t>> zout, par::PerfCounters& c,
           const Step& step) {
    const std::size_t nb = vin.size();
    const std::size_t n = nl_;
    switch (spec_.kind) {
      case PolyKind::None:
        for (std::size_t i = 0; i < nb; ++i) la::copy(vin[i], zout[i]);
        return;
      case PolyKind::Neumann: {
        // w_k = v + (I − ωÂ) w_{k−1}; wa = w, wb = Âw.
        for (std::size_t i = 0; i < nb; ++i) la::copy(vin[i], wa_[i]);
        for (int k = 0; k < spec_.degree; ++k) {
          step(wa_, wb_);
          for (std::size_t i = 0; i < nb; ++i) {
            const std::span<const real_t> v = vin[i];
            Vector& w = wa_[i];
            const Vector& aw = wb_[i];
            for (std::size_t l = 0; l < n; ++l)
              w[l] = v[l] + w[l] - spec_.omega * aw[l];
            c.flops += 3 * n;
            c.vector_updates += 1;
          }
        }
        for (std::size_t i = 0; i < nb; ++i) {
          const std::span<real_t> z = zout[i];
          for (std::size_t l = 0; l < n; ++l) z[l] = spec_.omega * wa_[i][l];
          c.flops += n;
        }
        return;
      }
      case PolyKind::Gls: {
        // Three-term recursion of the orthonormal basis; wa = u_prev,
        // wb = u, wc = Âu.
        const OrthoBasis& basis = gls_->basis();
        const auto mu = gls_->mu();
        const real_t inv0 = 1.0 / basis.sqrt_beta(0);
        for (std::size_t i = 0; i < nb; ++i) {
          Vector& u = wb_[i];
          const std::span<real_t> z = zout[i];
          const std::span<const real_t> v = vin[i];
          for (std::size_t l = 0; l < n; ++l) {
            u[l] = inv0 * v[l];
            z[l] = mu[0] * u[l];
          }
          c.flops += 2 * n;
        }
        for (int s = 0; s < spec_.degree; ++s) {
          step(wb_, wc_);
          const real_t as = basis.alpha(s);
          const real_t sb_s = basis.sqrt_beta(s);
          const real_t sb_n = basis.sqrt_beta(s + 1);
          const real_t mu_next = mu[static_cast<std::size_t>(s) + 1];
          for (std::size_t i = 0; i < nb; ++i) {
            Vector& u_prev = wa_[i];
            const Vector& u = wb_[i];
            const Vector& au = wc_[i];
            const std::span<real_t> z = zout[i];
            // u_{s+1} overwrites u_prev (dead once t is formed) and then
            // swaps into u: one write stream less than copying u into
            // u_prev elementwise.
            for (std::size_t l = 0; l < n; ++l) {
              const real_t t =
                  (au[l] - as * u[l] - (s > 0 ? sb_s * u_prev[l] : 0.0)) /
                  sb_n;
              u_prev[l] = t;
              z[l] += mu_next * t;
            }
            std::swap(wa_[i], wb_[i]);
            c.flops += 7 * n;
            c.vector_updates += 1;
          }
        }
        return;
      }
      case PolyKind::Chebyshev: {
        // Chebyshev semi-iteration; wa = residual, wb = direction d,
        // wc = Âd.
        const real_t theta =
            0.5 * (cheb_->interval().lo + cheb_->interval().hi);
        const real_t delta =
            0.5 * (cheb_->interval().hi - cheb_->interval().lo);
        const real_t sigma1 = theta / delta;
        real_t rho = 1.0 / sigma1;
        for (std::size_t i = 0; i < nb; ++i) {
          Vector& res = wa_[i];
          Vector& d = wb_[i];
          const std::span<real_t> z = zout[i];
          la::copy(vin[i], res);
          for (std::size_t l = 0; l < n; ++l) {
            d[l] = res[l] / theta;
            z[l] = d[l];
          }
          c.flops += 2 * n;
        }
        for (int k = 1; k <= spec_.degree; ++k) {
          step(wb_, wc_);
          const real_t rho_next = 1.0 / (2.0 * sigma1 - rho);
          const real_t c1 = rho_next * rho;
          const real_t c2 = 2.0 * rho_next / delta;
          for (std::size_t i = 0; i < nb; ++i) {
            Vector& res = wa_[i];
            Vector& d = wb_[i];
            const Vector& ad = wc_[i];
            const std::span<real_t> z = zout[i];
            for (std::size_t l = 0; l < n; ++l) {
              res[l] -= ad[l];
              d[l] = c1 * d[l] + c2 * res[l];
              z[l] += d[l];
            }
            c.flops += 6 * n;
            c.vector_updates += 1;
          }
          rho = rho_next;
        }
        return;
      }
    }
  }

  PolySpec spec_;
  const GlsPolynomial* gls_;
  const ChebyshevPolynomial* cheb_;
  std::size_t nl_;
  std::vector<Vector> wa_, wb_, wc_;  // per-lane recursion state
  std::vector<Vector> wd_;  // local format: the copy each step globalizes
  std::vector<Vector*> ins_, outs_;  // one step's lane views
  std::vector<std::span<const real_t>> vs_;  // one application's lanes
  std::vector<std::span<real_t>> zs_;
};

/// Z's per-dof weights 1/d̂: the scaled operator's near-null basis (see
/// core/deflation.hpp).
[[nodiscard]] inline Vector z_weights(std::span<const real_t> d) {
  Vector w(d.size());
  for (std::size_t l = 0; l < d.size(); ++l) w[l] = 1.0 / d[l];
  return w;
}

/// The two-level A-DEF1 preconditioner (Tang/Nabben/Vuik/Erlangga)
/// wrapped around a local preconditioner M:
///
///   B v = M (v − ÂQv) + Qv,     Q = Z E⁻¹ Zᵀ.
///
/// (A-DEF2, the M-first order, only matches it when started from the
/// special x0 = Qb; from the zero start used here it measurably
/// degrades.)  Per application, for every lane at once: ONE small
/// allreduce (the coarse residuals Zᵀv), one extra mat-vec ÂZy per
/// lane, and — in global format only — ONE fused exchange globalizing
/// those mat-vecs.  Zy is globally consistent by construction (every
/// column ingredient is a function of the global dof id), so the local
/// format's mat-vec input is already global and it needs no exchange.
class Adef1 {
 public:
  /// @param d the rank's scaling 1/√d_i (Z is weighted by z_weights(d)).
  Adef1(const EddSubdomain& sub, int rank, int nparts,
        const DeflationOptions& opts, std::span<const real_t> d,
        const CoarseOperator& coarse, std::size_t width)
      : defl_(sub, rank, nparts, opts, z_weights(d)),
        coarse_(coarse),
        zy_(width, Vector(d.size())),
        vdef_(width, Vector(d.size())) {
    pv_.reserve(width);
  }

  void apply(EddRank& r, const RankKernel& a, PolyApplier& m,
             std::span<const Vector* const> vin, std::span<Vector* const> zout,
             bool local) {
    const std::size_t nb = vin.size();
    const std::size_t nl = r.nl();
    const auto nc = static_cast<std::size_t>(defl_.ncoarse());
    {
      OBS_SPAN(r.comm().tracer(), "coarse_correct", obs::Cat::Precond,
               static_cast<std::uint32_t>(nb));
      cbuf_.assign(nb * nc, 0.0);
      for (std::size_t i = 0; i < nb; ++i) {
        if (local)
          defl_.restrict_local(*vin[i], lane(i, nc));
        else
          defl_.restrict_global(*vin[i], lane(i, nc));
        r.counters().flops += 2 * nl;
      }
      r.comm().allreduce_sum(cbuf_);
      pv_.clear();
      for (std::size_t i = 0; i < nb; ++i) {
        coarse_.solve(lane(i, nc));  // y = E⁻¹Zᵀv, identical on every rank
        r.counters().coarse_solves += 1;
        r.counters().flops += coarse_.solve_flops();
        defl_.prolong_global(lane(i, nc), zy_[i]);
        r.counters().flops += nl;
        r.spmv(a, zy_[i], vdef_[i]);  // ÂZy in local format
        pv_.push_back(&vdef_[i]);
      }
      if (!local) r.exchange_many(pv_);
      for (std::size_t i = 0; i < nb; ++i) {
        const Vector& v = *vin[i];
        Vector& vd = vdef_[i];
        for (std::size_t l = 0; l < nl; ++l) vd[l] = v[l] - vd[l];
        r.counters().flops += nl;
        r.counters().vector_updates += 1;
      }
    }
    const std::span<const Vector* const> cpv(
        const_cast<const Vector* const*>(pv_.data()), nb);
    m.apply(r, a, cpv, zout, local);
    for (std::size_t i = 0; i < nb; ++i) {
      // Local format adds Zy split by multiplicity; global adds it as is.
      if (local) defl_.prolong_local(lane(i, nc), zy_[i]);
      Vector& z = *zout[i];
      for (std::size_t l = 0; l < nl; ++l) z[l] += zy_[i][l];
      r.counters().flops += nl;
      r.counters().vector_updates += 1;
    }
  }

 private:
  std::span<real_t> lane(std::size_t i, std::size_t nc) {
    return std::span<real_t>(cbuf_).subspan(i * nc, nc);
  }

  DeflationRank defl_;
  const CoarseOperator& coarse_;
  Vector cbuf_;                     // every lane's coarse residual
  std::vector<Vector> zy_, vdef_;   // per-lane Zy and v − ÂZy
  std::vector<Vector*> pv_;         // lane views of vdef_
};

// ---- The one EDD setup, the one distributed FGMRES driver, and the
// one-shot runner: shared by build_edd_operator / solve_edd_batch (a
// persistent team) and solve_edd / solve_edd_cg / solve_rdd (a transient
// team).

/// One rank's share of a built EDD operator: what the one EDD setup
/// produces (build_edd_operator keeps it; a one-shot solve hands it to
/// its solver loop).
struct RankSetup {
  Vector d;         ///< scaling 1/√d_i (Eq. 43), globally consistent
  RankKernel kern;  ///< Â = D̂ K̂ D̂ (Eq. 44), folded at build
  /// Polynomial recursion data (null for kinds that need none).
  std::shared_ptr<const GlsPolynomial> gls;
  std::shared_ptr<const ChebyshevPolynomial> cheb;
  /// Factorized coarse operator E = ZᵀÂZ (null when deflation is off).
  std::shared_ptr<const CoarseOperator> coarse;
};

/// What a solver loop reads of one rank's operator: a view into an
/// EddOperatorState or into a RankSetup.
struct RankOp {
  const Vector& d;
  const RankKernel& a;
  const PolySpec& poly;
  const GlsPolynomial* gls;
  const ChebyshevPolynomial* cheb;
  const DeflationOptions& deflation;
  const CoarseOperator* coarse;
};

/// What the ranks of one distributed solve write back; read after the
/// team joins.  Per-RHS reports are written by each process's local
/// leader from allreduced scalars, so every process holds the same
/// reports.
struct SolveOut {
  /// `harvest` turns on the recycle-direction ring below.
  SolveOut(std::size_t nparts, std::size_t nb, bool harvest = false);

  std::vector<std::vector<Vector>> sol;  ///< [rhs][rank] u, global format
  std::vector<SolveReport> items;        ///< [rhs], local leader writes
  /// Harvested recycle directions, [rhs][ring slot][rank] pieces of the
  /// physical cycle updates Δu, ring-bounded to `kmax` slots; dir_count
  /// says how many cycles deposited.  The slot index is a pure function
  /// of allreduced state, so every rank writes its piece of one slot.
  std::size_t kmax = 0;  ///< 0 = no harvest
  std::vector<std::vector<std::vector<Vector>>> dirs;
  std::vector<std::size_t> dir_count;
  std::vector<par::PerfCounters> setup;  ///< one-shot: per-rank setup slice

  /// Global solution of RHS b on an EDD partition.  On a multi-process
  /// team only locally hosted subdomains deposited pieces; remote slots
  /// zero-fill, so each process assembles the dofs its ranks own.
  [[nodiscard]] Vector solution(const EddPartition& part, std::size_t b);
  /// Harvested directions of RHS b, oldest → newest.
  [[nodiscard]] std::vector<Vector> recycled(const EddPartition& part,
                                             std::size_t b);
};

/// How a solve runs fgmres_rank.
struct FgmresMode {
  /// Algorithm 5: x and the basis in local format, m+3 exchanges per
  /// iteration.  Otherwise Algorithm 6 (8 in RDD's space): global
  /// format, m+1.
  bool basic = false;
  /// One allreduce per Gram–Schmidt coefficient, as the paper's Table 1
  /// counts; otherwise each pass folds into one allreduce.  The two
  /// give identical bits — only the reduction count differs.
  bool per_coefficient = false;
};

/// The preconditioner a caller hands the driver: z_i = B v_i for every
/// live lane of one Arnoldi step, in the discipline's format (the
/// polynomial, A-DEF1 around it, or RDD's block-Jacobi ILU / restricted
/// Schwarz).
using LanePrecond = std::function<void(std::span<const Vector* const>,
                                       std::span<Vector* const>)>;

/// The one distributed FGMRES (Algorithms 5, 6 and 8), generic over the
/// rank space Rank + Op — explicitly instantiated for EddRank +
/// RankKernel and RddRank + RddOp — and loop-fused over the RHS in `rhs`
/// (global vectors, scaled by `d` on entry and on exit): each Arnoldi
/// step performs the discipline's exchanges ONCE for the whole batch —
/// each fused message carries every live RHS's shared-dof section — and
/// the batch's Gram–Schmidt coefficients and norms fold into shared
/// allreduces.  Every branch depends only on allreduced scalars, so all
/// ranks take identical decisions and each RHS's arithmetic is exactly
/// that of a width-1 run.  `recycle` is solve_edd_batch's per-RHS
/// session state (global format: the Enhanced discipline only).
template <class Rank, class Op>
void fgmres_rank(Rank& r, const Op& a, std::span<const real_t> d,
                 std::span<const Vector> rhs,
                 std::span<const RecycleIn> recycle,
                 const LanePrecond& precond, const SolveOptions& opts,
                 FgmresMode mode, SolveOut& out);

/// fgmres_rank on one rank's EDD operator: the EDD rank (its exchange
/// buffers sized for the batch and any session warm-up), and the
/// polynomial M, wrapped by A-DEF1 when the operator carries a coarse
/// space.
void fgmres_edd(par::Comm& comm, const EddPartition& part, const RankOp& op,
                std::span<const Vector> rhs,
                std::span<const RecycleIn> recycle, const SolveOptions& opts,
                FgmresMode mode, SolveOut& out);

/// One rank's part of a one-shot job: its setup, then `setup_done()`,
/// then a solve loop that fills out.sol[0] and out.items[0].
using RankJob =
    std::function<void(par::Comm&, const std::function<void()>& setup_done)>;

/// Run a one-shot distributed solve of one RHS as ONE job on a transient
/// team armed from opts.observe (fault injector, comm timeout, trace).
/// Every rank opens the `root` span and runs `job`; at `setup_done` the
/// rank's counters and wall time become its setup slice.  The caller
/// assembles result.x from out.sol[0] unless comm_failed(): a
/// par::CommError becomes a typed partial report (history so far, no
/// solution); any other rank error propagates.
[[nodiscard]] DistSolve run_one_shot(int nparts, const SolveOptions& opts,
                                     const char* root, SolveOut& out,
                                     const RankJob& job);

/// run_one_shot of one RHS on an EDD partition: the setup arguments are
/// checked on the calling thread first, so a bad spec or coarse space
/// fails typed there, not halfway through the job; every rank then runs
/// the EDD setup and `solve`.
[[nodiscard]] DistSolve run_edd_one_shot(
    const EddPartition& part, const PolySpec& spec,
    const std::vector<CsrMatrix>* local_matrices, const SolveOptions& opts,
    const char* root,
    const std::function<void(par::Comm&, const RankSetup&, SolveOut&)>&
        solve);

}  // namespace pfem::core::detail
