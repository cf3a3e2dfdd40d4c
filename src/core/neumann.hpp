// Neumann-series polynomial preconditioner (§2.1.2, Algorithm 7).
//
// P_m(A) = ω (I + G + G² + ... + G^m),  G = I − ωA,
// valid whenever ρ(G) < 1 (Theorem 2) — guaranteed with ω = 1 after the
// norm-1 diagonal scaling maps σ(A) into (0,1).  Application is m
// mat-vecs in detail::PolyApplier's recursion: here through a LinearOp
// at width 1, and in the EDD/RDD solvers on the distributed operators
// (where each mat-vec embeds one nearest-neighbor exchange, giving the
// paper's per-iteration exchange count).
#pragma once

#include <span>

#include "common/types.hpp"
#include "core/operator.hpp"

namespace pfem::core {

class NeumannPolynomial {
 public:
  /// @param degree m >= 0; degree 0 is ω·I.
  /// @param omega  series scaling; must satisfy ρ(I − ωA) < 1.
  explicit NeumannPolynomial(int degree, real_t omega = 1.0);

  [[nodiscard]] int degree() const noexcept { return m_; }
  [[nodiscard]] real_t omega() const noexcept { return omega_; }

  /// z <- P_m(A) v via Algorithm 7 (m applications of A).
  void apply(const LinearOp& a, std::span<const real_t> v,
             std::span<real_t> z) const;

  /// Scalar evaluation P_m(λ) (for the Fig. 1 residual plots).
  [[nodiscard]] real_t eval(real_t lambda) const;

  /// Residual polynomial 1 − λ P_m(λ).
  [[nodiscard]] real_t residual(real_t lambda) const;

  /// Coefficients a_0..a_m of P_m in the power basis (Eq. 23) — input to
  /// the Fig. 3 stability bound m·ε·Σ|a_i| (Eq. 24).
  [[nodiscard]] Vector power_coeffs() const;

  /// Σ|a_i| of the power-basis coefficients.
  [[nodiscard]] real_t coeff_abs_sum() const;

 private:
  int m_;
  real_t omega_;
};

/// Eq. 24: upper bound on the floating-point error of P_m(A)v.
[[nodiscard]] real_t polynomial_stability_bound(int degree,
                                                real_t coeff_abs_sum);

}  // namespace pfem::core
