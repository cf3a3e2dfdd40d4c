#include "core/deflation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace pfem::core {

namespace {

[[noreturn]] void bad_deflation(const std::ostringstream& os) {
  throw BadOperatorError("deflation options do not match the operator: " +
                         os.str());
}

}  // namespace

void validate_deflation(const DeflationOptions& opts, index_t n_global) {
  if (!opts.enabled) return;
  std::ostringstream os;
  if (opts.vectors_per_subdomain < 1 || opts.components < 1) {
    os << "vectors_per_subdomain and components must be >= 1 (got "
       << opts.vectors_per_subdomain << ", " << opts.components << ")";
    bad_deflation(os);
  }
  if (n_global % static_cast<index_t>(opts.components) != 0) {
    os << "components = " << opts.components << " does not divide the "
       << n_global << " free dofs — wrong problem family for this "
       << "coarse space (scalar diffusion is 1, plane elasticity 2, "
       << "3-D elasticity 3)";
    bad_deflation(os);
  }
  if (opts.coord_dim < 0 || opts.coord_dim > 3) {
    os << "coord_dim must be in [0, 3] (got " << opts.coord_dim << ")";
    bad_deflation(os);
  }
  const auto want_coords = static_cast<std::size_t>(n_global) *
                           static_cast<std::size_t>(opts.coord_dim);
  if (opts.coord_dim > 0 && opts.dof_coords.size() != want_coords) {
    os << "dof_coords holds " << opts.dof_coords.size() << " entries, but "
       << n_global << " free dofs x coord_dim " << opts.coord_dim
       << " needs " << want_coords
       << " — the coordinate table was built for a different mesh or "
       << "dimension";
    bad_deflation(os);
  }
  if (opts.coord_dim == 0 && !opts.dof_coords.empty()) {
    os << "dof_coords supplied without coord_dim — the per-dof layout is "
       << "ambiguous";
    bad_deflation(os);
  }
  if (opts.jump_aware) {
    if (opts.dof_coeff.size() != static_cast<std::size_t>(n_global)) {
      os << "jump_aware needs one coefficient per free dof: dof_coeff "
         << "holds " << opts.dof_coeff.size() << " entries for " << n_global
         << " dofs";
      bad_deflation(os);
    }
    for (std::size_t g = 0; g < opts.dof_coeff.size(); ++g)
      if (!(opts.dof_coeff[g] > 0.0) || !std::isfinite(opts.dof_coeff[g])) {
        os << "dof_coeff[" << g << "] = " << opts.dof_coeff[g]
           << " — coefficient magnitudes must be positive and finite";
        bad_deflation(os);
      }
  }
}

CoarseOperator::CoarseOperator(la::DenseMatrix e) : lu_([&] {
  const index_t n = e.rows();
  PFEM_CHECK(e.cols() == n);
  for (index_t i = 0; i < n; ++i) {
    bool empty = true;
    for (index_t j = 0; j < n && empty; ++j)
      empty = e(i, j) == 0.0 && e(j, i) == 0.0;
    if (empty) e(i, i) = 1.0;
  }
  return la::LuFactorization(std::move(e));
}()) {}

DeflationRank::DeflationRank(const partition::EddSubdomain& sub, int rank,
                             int nparts, const DeflationOptions& opts,
                             std::span<const real_t> dof_weights)
    : sub_(&sub) {
  const auto q = static_cast<index_t>(opts.vectors_per_subdomain);
  const auto nc = static_cast<index_t>(opts.components);
  PFEM_CHECK_MSG(q >= 1, "deflation: vectors_per_subdomain must be >= 1");
  PFEM_CHECK_MSG(nc >= 1, "deflation: components must be >= 1");
  PFEM_CHECK(rank >= 0 && rank < nparts);
  const auto dim = static_cast<index_t>(opts.coord_dim);
  const bool have_coords = dim > 0 && !opts.dof_coords.empty();
  nbasis_ = static_cast<int>(std::clamp(
      q / nc, index_t{1}, have_coords ? 1 + dim : index_t{1}));
  const bool jump = opts.jump_aware && !opts.dof_coeff.empty();
  nclasses_ = jump ? 2 : 1;
  comps_ = nc;
  ncoarse_ = static_cast<index_t>(nparts) * nclasses_ * nbasis_ * nc;

  // Jump-aware class pivot: the geometric mean of the coefficient
  // range.  Computed from the globally replicated table, so every rank
  // derives the identical pivot — the class of a dof stays a pure
  // function of its global id (the exchange-free consistency invariant).
  real_t pivot = 0.0;
  if (jump) {
    real_t lo = std::numeric_limits<real_t>::infinity();
    real_t hi = 0.0;
    for (const real_t c : opts.dof_coeff) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    pivot = std::sqrt(lo * hi);
  }

  const std::size_t nl = sub.local_to_global.size();
  PFEM_CHECK(dof_weights.size() == nl);

  // Owner of each local dof: the lowest rank sharing it.  Every sharer
  // computes the same minimum from its own neighbor lists, so the patch
  // assignment is globally consistent without communication.
  std::vector<int> owner(nl, rank);
  for (const auto& nb : sub.neighbors)
    if (nb.rank < rank)
      for (const index_t l : nb.shared_local_dofs)
        owner[static_cast<std::size_t>(l)] =
            std::min(owner[static_cast<std::size_t>(l)], nb.rank);

  col0_.resize(nl);
  val_.resize(nl * static_cast<std::size_t>(nbasis_));
  const auto nb_stride = static_cast<index_t>(nbasis_) * nc;
  for (std::size_t l = 0; l < nl; ++l) {
    const index_t g = sub.local_to_global[l];
    index_t patch = static_cast<index_t>(owner[l]) *
                    static_cast<index_t>(nclasses_);
    if (jump) {
      PFEM_CHECK_MSG(static_cast<std::size_t>(g) < opts.dof_coeff.size(),
                     "deflation: dof_coeff too short for the partition");
      if (opts.dof_coeff[static_cast<std::size_t>(g)] >= pivot) ++patch;
    }
    col0_[l] = patch * nb_stride + g % nc;
    val_[l * static_cast<std::size_t>(nbasis_)] = dof_weights[l];
    for (int b = 1; b < nbasis_; ++b) {
      const auto ci = static_cast<std::size_t>(g) *
                          static_cast<std::size_t>(dim) +
                      static_cast<std::size_t>(b - 1);
      PFEM_CHECK_MSG(ci < opts.dof_coords.size(),
                     "deflation: dof_coords too short for the partition");
      val_[l * static_cast<std::size_t>(nbasis_) +
           static_cast<std::size_t>(b)] = dof_weights[l] * opts.dof_coords[ci];
    }
  }
}

void DeflationRank::accumulate_e(const sparse::CsrMatrix& k,
                                 std::span<const real_t> d,
                                 la::DenseMatrix& e) const {
  PFEM_CHECK(e.rows() == ncoarse_ && e.cols() == ncoarse_);
  const auto rp = k.row_ptr();
  const auto ci = k.col_idx();
  const auto vals = k.values();
  const auto nb = static_cast<std::size_t>(nbasis_);
  for (index_t i = 0; i < k.rows(); ++i) {
    const auto si = static_cast<std::size_t>(i);
    const index_t ci0 = col0_[si];
    for (index_t nz = rp[si]; nz < rp[si + 1]; ++nz) {
      const auto j = static_cast<std::size_t>(ci[static_cast<std::size_t>(nz)]);
      const real_t a_ij =
          d[si] * vals[static_cast<std::size_t>(nz)] * d[j];
      const index_t cj0 = col0_[j];
      for (std::size_t b1 = 0; b1 < nb; ++b1)
        for (std::size_t b2 = 0; b2 < nb; ++b2)
          e(ci0 + static_cast<index_t>(b1) * comps_,
            cj0 + static_cast<index_t>(b2) * comps_) +=
              val_[si * nb + b1] * a_ij * val_[j * nb + b2];
    }
  }
}

void DeflationRank::restrict_local(std::span<const real_t> v_loc,
                                   std::span<real_t> c) const {
  PFEM_CHECK(v_loc.size() == col0_.size());
  PFEM_CHECK(c.size() == static_cast<std::size_t>(ncoarse_));
  const auto nb = static_cast<std::size_t>(nbasis_);
  for (std::size_t l = 0; l < col0_.size(); ++l)
    for (std::size_t b = 0; b < nb; ++b)
      c[static_cast<std::size_t>(col0_[l] +
                                 static_cast<index_t>(b) * comps_)] +=
          val_[l * nb + b] * v_loc[l];
}

void DeflationRank::restrict_global(std::span<const real_t> v_glob,
                                    std::span<real_t> c) const {
  PFEM_CHECK(v_glob.size() == col0_.size());
  PFEM_CHECK(c.size() == static_cast<std::size_t>(ncoarse_));
  const auto nb = static_cast<std::size_t>(nbasis_);
  for (std::size_t l = 0; l < col0_.size(); ++l) {
    const real_t v = v_glob[l] / static_cast<real_t>(sub_->multiplicity[l]);
    for (std::size_t b = 0; b < nb; ++b)
      c[static_cast<std::size_t>(col0_[l] +
                                 static_cast<index_t>(b) * comps_)] +=
          val_[l * nb + b] * v;
  }
}

void DeflationRank::prolong_global(std::span<const real_t> y,
                                   std::span<real_t> z) const {
  PFEM_CHECK(y.size() == static_cast<std::size_t>(ncoarse_));
  PFEM_CHECK(z.size() == col0_.size());
  const auto nb = static_cast<std::size_t>(nbasis_);
  for (std::size_t l = 0; l < col0_.size(); ++l) {
    real_t acc = 0.0;
    for (std::size_t b = 0; b < nb; ++b)
      acc += val_[l * nb + b] *
             y[static_cast<std::size_t>(col0_[l] +
                                        static_cast<index_t>(b) * comps_)];
    z[l] = acc;
  }
}

void DeflationRank::prolong_local(std::span<const real_t> y,
                                  std::span<real_t> z) const {
  PFEM_CHECK(y.size() == static_cast<std::size_t>(ncoarse_));
  PFEM_CHECK(z.size() == col0_.size());
  const auto nb = static_cast<std::size_t>(nbasis_);
  for (std::size_t l = 0; l < col0_.size(); ++l) {
    real_t acc = 0.0;
    for (std::size_t b = 0; b < nb; ++b)
      acc += val_[l * nb + b] *
             y[static_cast<std::size_t>(col0_[l] +
                                        static_cast<index_t>(b) * comps_)];
    z[l] = acc / static_cast<real_t>(sub_->multiplicity[l]);
  }
}

}  // namespace pfem::core
