#include "core/gls_poly.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"

namespace pfem::core {

OrthoBasis GlsPolynomial::build_basis(const Theta& theta, int degree,
                                      int points_per_interval,
                                      QuadratureRule& w_rule_out) {
  validate_theta(theta);
  PFEM_CHECK(degree >= 0);
  if (points_per_interval <= 0)
    points_per_interval = std::max(64, 8 * (degree + 1));
  w_rule_out = chebyshev_rule(theta, points_per_interval);
  // Modified measure λ²·w for the φ basis ({λφ_i} orthonormal under w).
  QuadratureRule mod = w_rule_out;
  for (std::size_t j = 0; j < mod.nodes.size(); ++j)
    mod.weights[j] *= mod.nodes[j] * mod.nodes[j];
  return OrthoBasis(mod, degree);
}

GlsPolynomial::GlsPolynomial(Theta theta, int degree, int points_per_interval)
    : theta_(std::move(theta)), m_(degree),
      basis_([&] {
        QuadratureRule w_rule;
        OrthoBasis b = build_basis(theta_, degree, points_per_interval,
                                   w_rule);
        // Stash the w-rule via the lambda capture trick is not possible
        // here; μ is computed below from a re-built rule instead.
        return b;
      }()) {
  // μ_i = <1, λ φ_i>_w = Σ_j w_j λ_j φ_i(λ_j), with φ_i evaluated at the
  // shared node set (w-rule and modified rule share nodes).
  const int ppi =
      points_per_interval > 0 ? points_per_interval : std::max(64, 8 * (m_ + 1));
  const QuadratureRule w_rule = chebyshev_rule(theta_, ppi);
  PFEM_CHECK(w_rule.nodes.size() == basis_.num_nodes());
  mu_.assign(static_cast<std::size_t>(m_) + 1, 0.0);
  for (int i = 0; i <= m_; ++i) {
    const auto phi = basis_.node_values(i);
    real_t s = 0.0;
    for (std::size_t j = 0; j < w_rule.nodes.size(); ++j)
      s += w_rule.weights[j] * w_rule.nodes[j] * phi[j];
    mu_[static_cast<std::size_t>(i)] = s;
  }
}

void GlsPolynomial::apply(const LinearOp& a, std::span<const real_t> v,
                          std::span<real_t> z) const {
  detail::PolyApplier(PolySpec{PolyKind::Gls, m_}, this, nullptr, v.size(),
                      1)
      .apply(a, v, z);
}

real_t GlsPolynomial::eval(real_t lambda) const {
  const Vector phi = basis_.eval_all(lambda);
  real_t s = 0.0;
  for (int i = 0; i <= m_; ++i)
    s += mu_[static_cast<std::size_t>(i)] * phi[static_cast<std::size_t>(i)];
  return s;
}

real_t GlsPolynomial::residual(real_t lambda) const {
  return 1.0 - lambda * eval(lambda);
}

real_t GlsPolynomial::residual_sup_on_theta(int samples_per_interval) const {
  PFEM_CHECK(samples_per_interval >= 2);
  real_t sup = 0.0;
  for (const Interval& iv : theta_) {
    for (int k = 0; k < samples_per_interval; ++k) {
      const real_t lambda =
          iv.lo + (iv.hi - iv.lo) * static_cast<real_t>(k) /
                      static_cast<real_t>(samples_per_interval - 1);
      sup = std::max(sup, std::abs(residual(lambda)));
    }
  }
  return sup;
}

Vector GlsPolynomial::power_coeffs() const {
  // Power-basis coefficients of φ_i via the recursion, accumulated with μ.
  const std::size_t sz = static_cast<std::size_t>(m_) + 1;
  Vector phi_prev(sz, 0.0), phi_cur(sz, 0.0), acc(sz, 0.0), tmp(sz, 0.0);
  phi_cur[0] = 1.0 / basis_.sqrt_beta(0);
  for (std::size_t k = 0; k < sz; ++k) acc[k] = mu_[0] * phi_cur[k];
  for (int i = 0; i < m_; ++i) {
    const real_t ai = basis_.alpha(i);
    const real_t sb_i = basis_.sqrt_beta(i);
    const real_t sb_n = basis_.sqrt_beta(i + 1);
    // tmp = (λ·phi_cur − ai·phi_cur − sb_i·phi_prev) / sb_n.
    for (std::size_t k = 0; k < sz; ++k) tmp[k] = 0.0;
    for (std::size_t k = 0; k + 1 < sz; ++k)
      tmp[k + 1] += phi_cur[k];  // λ shift
    for (std::size_t k = 0; k < sz; ++k) {
      tmp[k] -= ai * phi_cur[k];
      if (i > 0) tmp[k] -= sb_i * phi_prev[k];
      tmp[k] /= sb_n;
    }
    phi_prev = phi_cur;
    phi_cur = tmp;
    const real_t mu_next = mu_[static_cast<std::size_t>(i) + 1];
    for (std::size_t k = 0; k < sz; ++k) acc[k] += mu_next * phi_cur[k];
  }
  return acc;
}

real_t GlsPolynomial::coeff_abs_sum() const {
  real_t s = 0.0;
  for (real_t c : power_coeffs()) s += std::abs(c);
  return s;
}

}  // namespace pfem::core
