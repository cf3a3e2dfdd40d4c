#include "core/rdd_solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "core/diag_scaling.hpp"
#include "core/edd_kernels.hpp"
#include "sparse/ilu0.hpp"

namespace pfem::core {

namespace {

using detail::RddOp;
using detail::RddRank;
using partition::RddPartition;
using partition::RddSubdomain;

/// One rank's RDD setup: the scaling, the scaled operator and the
/// preconditioner's data.
struct RddSetup {
  Vector d;  ///< scaling 1/√‖row‖₁ of the owned rows
  RddOp op;  ///< scaled blocks Â_loc, Â_ext
  std::shared_ptr<const GlsPolynomial> gls;
  std::shared_ptr<const ChebyshevPolynomial> cheb;
  /// Block-Jacobi: ILU(0) of Â_loc; restricted Schwarz: ILU(0) of the
  /// scaled overlap block.
  std::optional<sparse::Ilu0> ilu;
};

/// RDD's own setup (§4.1.2), a different algorithm from EDD's: the row
/// norms need no communication (rows are complete), but one exchange
/// brings the scaling of the external columns.  Then the scaled blocks
/// in the selected format and the preconditioner's data.
RddSetup rdd_setup(RddRank& r, const RddSubdomain& sub,
                   const RddOptions& rdd_opts, const KernelOptions& kernels) {
  OBS_SPAN(r.comm().tracer(), "setup", obs::Cat::Setup);
  const std::size_t nl = r.nl();
  RddSetup st;
  RddOp& op = st.op;
  op.loc = sub.a_loc;
  op.ext = sub.a_ext;
  st.d.assign(nl, 0.0);
  for (index_t i = 0; i < sub.n_local(); ++i) {
    real_t& rownorm = st.d[static_cast<std::size_t>(i)];
    for (real_t v : op.loc.row_vals(i)) rownorm += std::abs(v);
    for (real_t v : op.ext.row_vals(i)) rownorm += std::abs(v);
  }
  invert_sqrt_row_norms(st.d, sub.rows);
  const auto nnz = static_cast<std::uint64_t>(op.loc.nnz() + op.ext.nnz());
  r.counters().flops += nnz;
  r.exchange_into_ext(st.d);
  const Vector d_ext(r.x_ext().begin(), r.x_ext().end());

  op.loc.scale_symmetric(st.d);
  {
    auto vals = op.ext.values();
    const auto rp = op.ext.row_ptr();
    const auto ci = op.ext.col_idx();
    for (index_t i = 0; i < op.ext.rows(); ++i)
      for (index_t k = rp[i]; k < rp[i + 1]; ++k)
        vals[k] *= st.d[static_cast<std::size_t>(i)] *
                   d_ext[static_cast<std::size_t>(ci[k])];
  }
  r.counters().flops += 2 * nnz;

  // SELL-C-σ keeps each row's accumulation order (bit-identical).
  // Format::Ebe falls back to CSR, bit-identically to Format::Csr: RDD
  // rows are FULLY assembled (local + external column blocks), so there
  // is no per-subdomain element sub-assembly to sweep matrix-free.
  op.spmv_flops = op.loc.spmv_flops() + op.ext.spmv_flops();
  if (kernels.format == KernelOptions::Format::Sell) {
    op.sell = true;
    op.loc_sell = sparse::SellMatrix::from_csr(op.loc);
    if (sub.n_ext() > 0) op.ext_sell = sparse::SellMatrix::from_csr(op.ext);
  }

  // Each rank builds the polynomial redundantly (no communication).
  switch (rdd_opts.precond) {
    case RddOptions::Precond::Poly:
      std::tie(st.gls, st.cheb) = detail::build_polynomial(rdd_opts.poly);
      break;
    case RddOptions::Precond::BlockJacobiIlu:
      st.ilu.emplace(op.loc);
      break;
    case RddOptions::Precond::AdditiveSchwarz: {
      // Scale the overlap block consistently with the scaled system:
      // rows/cols 0..nl-1 carry d, the appended externals carry d_ext.
      sparse::CsrMatrix a_ovl = sub.a_overlap;
      Vector d_full(st.d);
      d_full.insert(d_full.end(), d_ext.begin(), d_ext.begin() + sub.n_ext());
      a_ovl.scale_symmetric(d_full);
      st.ilu.emplace(a_ovl);
      break;
    }
  }
  return st;
}

}  // namespace

DistSolve solve_rdd(const RddPartition& part,
                    std::span<const real_t> f_global,
                    const RddOptions& rdd_opts, const SolveOptions& opts) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  check_solve_input(opts, f_global);
  // The coarse space is built on EDD operators.
  PFEM_CHECK_MSG(!opts.deflation.enabled,
                 "solve_rdd: deflation (A-DEF1) needs an EDD operator; "
                 "use solve_edd");
  if (rdd_opts.precond == RddOptions::Precond::Poly)
    validate_poly_spec(rdd_opts.poly);
  // Algorithm 8 is Algorithm 6's loop in RDD's rank space, with the
  // paper's one allreduce per Gram–Schmidt coefficient unless
  // batched_reductions folds them.
  const detail::FgmresMode mode{false, !opts.batched_reductions};
  const std::vector<Vector> rhs{Vector(f_global.begin(), f_global.end())};

  detail::SolveOut out(part.subs.size(), 1);
  DistSolve result = detail::run_one_shot(
      part.nparts(), opts, "solve_rdd", out,
      [&](par::Comm& comm, const std::function<void()>& setup_done) {
        const RddSubdomain& sub =
            part.subs[static_cast<std::size_t>(comm.rank())];
        RddRank r(sub, comm);
        const RddSetup st = rdd_setup(r, sub, rdd_opts, opts.kernels);
        setup_done();

        const std::size_t nl = r.nl();
        std::optional<detail::PolyApplier> poly;
        if (rdd_opts.precond == RddOptions::Precond::Poly)
          poly.emplace(rdd_opts.poly, st.gls.get(), st.cheb.get(), nl, 1);
        const bool ras =
            rdd_opts.precond == RddOptions::Precond::AdditiveSchwarz;
        Vector ovl_rhs(nl + static_cast<std::size_t>(sub.n_ext()));
        Vector ovl_sol(ovl_rhs.size());
        const auto precond = [&](std::span<const Vector* const> v,
                                 std::span<Vector* const> z) {
          OBS_SPAN(comm.tracer(), "precond", obs::Cat::Precond);
          if (poly) {
            poly->apply(r, st.op, v, z, /*local=*/false);  // m exchanges
            return;
          }
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (ras) {
              // Restricted additive Schwarz: gather the external residual
              // entries (one exchange), solve on the overlap block, keep
              // the owned part of the solution.
              r.exchange_into_ext(*v[i]);
              std::copy(v[i]->begin(), v[i]->end(), ovl_rhs.begin());
              std::copy_n(r.x_ext().begin(), sub.n_ext(),
                          ovl_rhs.begin() + static_cast<std::ptrdiff_t>(nl));
              st.ilu->solve(ovl_rhs, ovl_sol);
              std::copy_n(ovl_sol.begin(), nl, z[i]->begin());
            } else {
              st.ilu->solve(*v[i], *z[i]);  // block Jacobi: no exchange
            }
            r.counters().flops += st.ilu->solve_flops();
          }
        };
        detail::fgmres_rank(r, st.op, st.d, rhs, {}, precond, opts, mode,
                            out);
      });
  if (!result.comm_failed())
    result.x = partition::rdd_gather(part, out.sol.front());
  return result;
}

}  // namespace pfem::core
