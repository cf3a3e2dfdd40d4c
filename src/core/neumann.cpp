#include "core/neumann.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/edd_kernels.hpp"

namespace pfem::core {

NeumannPolynomial::NeumannPolynomial(int degree, real_t omega)
    : m_(degree), omega_(omega) {
  PFEM_CHECK(degree >= 0);
  PFEM_CHECK(omega != 0.0);
}

void NeumannPolynomial::apply(const LinearOp& a, std::span<const real_t> v,
                              std::span<real_t> z) const {
  detail::PolyApplier(PolySpec{PolyKind::Neumann, m_, omega_}, nullptr,
                      nullptr, v.size(), 1)
      .apply(a, v, z);
}

real_t NeumannPolynomial::eval(real_t lambda) const {
  const real_t g = 1.0 - omega_ * lambda;
  real_t acc = 1.0;  // Horner on Σ g^i
  for (int i = 0; i < m_; ++i) acc = 1.0 + g * acc;
  return omega_ * acc;
}

real_t NeumannPolynomial::residual(real_t lambda) const {
  return 1.0 - lambda * eval(lambda);
}

Vector NeumannPolynomial::power_coeffs() const {
  // g(λ) = 1 − ωλ.  acc = Σ_{i=0}^m g^i, built iteratively: gi holds g^i.
  Vector acc(static_cast<std::size_t>(m_) + 1, 0.0);
  Vector gi(static_cast<std::size_t>(m_) + 1, 0.0);
  gi[0] = 1.0;  // g^0
  acc[0] = 1.0;
  for (int i = 1; i <= m_; ++i) {
    // gi <- gi * (1 - ωλ): new[k] = old[k] - ω old[k-1].
    for (int k = i; k >= 1; --k)
      gi[static_cast<std::size_t>(k)] =
          gi[static_cast<std::size_t>(k)] -
          omega_ * gi[static_cast<std::size_t>(k) - 1];
    // k = 0 term unchanged.
    for (int k = 0; k <= i; ++k)
      acc[static_cast<std::size_t>(k)] += gi[static_cast<std::size_t>(k)];
  }
  for (real_t& c : acc) c *= omega_;
  return acc;
}

real_t NeumannPolynomial::coeff_abs_sum() const {
  real_t s = 0.0;
  for (real_t c : power_coeffs()) s += std::abs(c);
  return s;
}

real_t polynomial_stability_bound(int degree, real_t coeff_abs_sum) {
  return static_cast<real_t>(degree) *
         std::numeric_limits<real_t>::epsilon() * coeff_abs_sum;
}

}  // namespace pfem::core
