#include "core/edd_solver.hpp"

#include <string>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"

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

DistSolve solve_edd(const partition::EddPartition& part,
                    std::span<const real_t> f_global, const PolySpec& spec,
                    const SolveOptions& opts, EddVariant variant,
                    const std::vector<sparse::CsrMatrix>* local_matrices) {
  PFEM_CHECK(f_global.size() == static_cast<std::size_t>(part.n_global));
  check_solve_input(opts, f_global);
  // Algorithm 5 or 6, with the paper's one allreduce per Gram–Schmidt
  // coefficient unless batched_reductions folds them.
  const detail::FgmresMode mode{variant == EddVariant::Basic,
                                !opts.batched_reductions};
  const std::vector<Vector> rhs{Vector(f_global.begin(), f_global.end())};

  return detail::run_edd_one_shot(
      part, spec, local_matrices, opts, "solve_edd",
      [&](par::Comm& comm, const detail::RankSetup& op,
          detail::SolveOut& out) {
        const detail::RankOp rop{op.d,          op.kern,
                                 spec,          op.gls.get(),
                                 op.cheb.get(), opts.deflation,
                                 op.coarse.get()};
        detail::fgmres_edd(comm, part, rop, rhs, {}, opts, mode, out);
      });
}

}  // namespace pfem::core
