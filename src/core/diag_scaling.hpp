// Norm-1 diagonal scaling (§2.1.1, Algorithms 3–4).
//
// D = diag(1/√d_i), d_i = ‖k_i‖₁, transforms K u = f into
// A x = b with A = DKD, b = Df, u = Dx, and — by Gershgorin (Theorem 1) —
// σ(A) ⊂ (−1, 1), in fact (0, 1) for SPD K.  This is the pre-processing
// step that lets the polynomial preconditioner always use Θ = (ε, 1)
// without estimating eigenvalues.
#pragma once

#include <span>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace pfem::core {

/// d_i <- 1/√d_i over the row norms d_i = ‖k_i‖₁ (Eq. 44), in place.  A
/// zero, NaN or infinite norm means the scaling does not exist: the
/// operator is degenerate, not the solver.  Throws BadOperatorError
/// naming the row's global dof (global_dofs[i], or i when global_dofs is
/// empty), typed so a multi-tenant service answers Failed{BadOperator}
/// and keeps serving.  The one inversion every solver setup uses.
void invert_sqrt_row_norms(std::span<real_t> d,
                           std::span<const index_t> global_dofs = {});

/// The scaling diagonal: D_ii = 1/√(‖k_i‖₁) (invert_sqrt_row_norms).
[[nodiscard]] Vector norm1_scaling(const sparse::CsrMatrix& k);

/// A scaled system plus what is needed to map solutions back.
struct ScaledSystem {
  sparse::CsrMatrix a;  ///< A = D K D
  Vector b;             ///< b = D f
  Vector d;             ///< D diagonal

  /// u = D x.
  [[nodiscard]] Vector unscale(std::span<const real_t> x) const;
};

/// Apply Algorithm 4 to (K, f).
[[nodiscard]] ScaledSystem scale_system(const sparse::CsrMatrix& k,
                                        std::span<const real_t> f);

}  // namespace pfem::core
