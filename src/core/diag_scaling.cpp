#include "core/diag_scaling.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace pfem::core {

void invert_sqrt_row_norms(std::span<real_t> d,
                           std::span<const index_t> global_dofs) {
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (!(d[i] > 0.0) || !std::isfinite(d[i]))
      throw BadOperatorError(
          "norm-1 scaling: zero/degenerate row at global dof " +
          std::to_string(global_dofs.empty() ? static_cast<index_t>(i)
                                             : global_dofs[i]) +
          " (row norm " + std::to_string(d[i]) + ")");
    d[i] = 1.0 / std::sqrt(d[i]);
  }
}

Vector norm1_scaling(const sparse::CsrMatrix& k) {
  Vector d = k.row_norms1();
  invert_sqrt_row_norms(d);
  return d;
}

Vector ScaledSystem::unscale(std::span<const real_t> x) const {
  PFEM_CHECK(x.size() == d.size());
  Vector u(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) u[i] = d[i] * x[i];
  return u;
}

ScaledSystem scale_system(const sparse::CsrMatrix& k,
                          std::span<const real_t> f) {
  PFEM_CHECK(k.rows() == k.cols());
  PFEM_CHECK(f.size() == static_cast<std::size_t>(k.rows()));
  ScaledSystem s;
  s.d = norm1_scaling(k);
  s.a = k;
  s.a.scale_symmetric(s.d);
  s.b.resize(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) s.b[i] = s.d[i] * f[i];
  return s;
}

}  // namespace pfem::core
