#include "core/chebyshev.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"

namespace pfem::core {

ChebyshevPolynomial::ChebyshevPolynomial(Interval interval, int degree)
    : iv_(interval), m_(degree) {
  PFEM_CHECK_MSG(interval.lo > 0.0 && interval.lo < interval.hi,
                 "Chebyshev preconditioner needs 0 < a < b");
  PFEM_CHECK(degree >= 0);
  theta_ = 0.5 * (interval.lo + interval.hi);
  delta_ = 0.5 * (interval.hi - interval.lo);
  sigma1_ = theta_ / delta_;
}

void ChebyshevPolynomial::apply(const LinearOp& a, std::span<const real_t> v,
                                std::span<real_t> z) const {
  detail::PolyApplier(PolySpec{PolyKind::Chebyshev, m_}, nullptr, this,
                      v.size(), 1)
      .apply(a, v, z);
}

real_t ChebyshevPolynomial::eval(real_t lambda) const {
  // Mirror the vector recurrence on scalars (A -> lambda, v -> 1); avoids
  // the 0/0 of (1 - residual)/lambda at lambda = 0.
  real_t r = 1.0, d = 1.0 / theta_, z = d;
  real_t rho = 1.0 / sigma1_;
  for (int k = 1; k <= m_; ++k) {
    r -= lambda * d;
    const real_t rho_next = 1.0 / (2.0 * sigma1_ - rho);
    d = rho_next * rho * d + (2.0 * rho_next / delta_) * r;
    z += d;
    rho = rho_next;
  }
  return z;
}

real_t ChebyshevPolynomial::residual(real_t lambda) const {
  return 1.0 - lambda * eval(lambda);
}

real_t ChebyshevPolynomial::minimax_bound() const {
  // 1 / T_{m+1}(t0), t0 = theta/delta > 1, via the stable cosh form.
  const real_t t0 = sigma1_;
  const real_t acosh_t0 = std::log(t0 + std::sqrt(t0 * t0 - 1.0));
  return 1.0 / std::cosh(static_cast<real_t>(m_ + 1) * acosh_t0);
}

Vector ChebyshevPolynomial::power_coeffs() const {
  // Run the scalar recurrence on power-basis coefficient vectors.
  const std::size_t sz = static_cast<std::size_t>(m_) + 1;
  Vector r(sz + 1, 0.0), d(sz, 0.0), z(sz, 0.0);
  r[0] = 1.0;
  d[0] = 1.0 / theta_;
  z[0] = d[0];
  real_t rho = 1.0 / sigma1_;
  for (int k = 1; k <= m_; ++k) {
    // r -= lambda * d  (shift d by one power).
    for (std::size_t i = 0; i + 1 < sz + 1 && i < sz; ++i)
      r[i + 1] -= d[i];
    const real_t rho_next = 1.0 / (2.0 * sigma1_ - rho);
    const real_t c1 = rho_next * rho;
    const real_t c2 = 2.0 * rho_next / delta_;
    for (std::size_t i = 0; i < sz; ++i) {
      d[i] = c1 * d[i] + c2 * r[i];
      z[i] += d[i];
    }
    rho = rho_next;
  }
  return z;
}

real_t ChebyshevPolynomial::coeff_abs_sum() const {
  real_t s = 0.0;
  for (real_t c : power_coeffs()) s += std::abs(c);
  return s;
}

}  // namespace pfem::core
