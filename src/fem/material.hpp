// Linear elastic material and the plane-stress constitutive matrix.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pfem::fem {

/// Row-major N x N constitutive matrix in Voigt order.  Fixed size, so
/// the element kernels keep it on the stack.
template <int N>
struct ConstitutiveMatrix {
  std::array<real_t, static_cast<std::size_t>(N * N)> v{};

  real_t& operator()(int i, int j) {
    return v[static_cast<std::size_t>(N * i + j)];
  }
  real_t operator()(int i, int j) const {
    return v[static_cast<std::size_t>(N * i + j)];
  }
};

/// Isotropic linear elastic material (plane stress), optionally
/// heterogeneous: per-element coefficient fields ride along as shared
/// tables so a Material stays cheap to copy and the assembly signatures
/// stay unchanged.
struct Material {
  real_t youngs_modulus = 1.0e3;  ///< E
  real_t poisson_ratio = 0.3;     ///< nu, in (-1, 0.5)
  real_t density = 1.0;           ///< rho (mass matrix)
  real_t thickness = 1.0;         ///< t (plane problems)

  /// Per-element stiffness multiplier (size num_elems when set): scales
  /// the Stiffness/Poisson element matrix of element e by elem_scale[e]
  /// — coefficient jumps for elasticity (2-D and 3-D) without touching
  /// E/nu per element.  The Mass operator is NOT scaled (density is a
  /// separate physical field).  Null means homogeneous.
  std::shared_ptr<const std::vector<real_t>> elem_scale;

  /// Per-element 2x2 diffusion tensors, row-major [e*4 + 2*i + j] (size
  /// num_elems*4 when set): the Quad4 Poisson operator integrates
  /// grad(N)^T D_e grad(N) instead of the identity — anisotropic,
  /// possibly rotated, heterogeneous scalar diffusion.  Null keeps the
  /// plain Laplacian.  Ignored by elasticity/mass operators.
  std::shared_ptr<const std::vector<real_t>> diffusion;

  /// 3x3 plane-stress constitutive matrix D:
  ///   D = E/(1-nu^2) * [[1, nu, 0], [nu, 1, 0], [0, 0, (1-nu)/2]].
  [[nodiscard]] ConstitutiveMatrix<3> plane_stress_d() const {
    PFEM_CHECK(youngs_modulus > 0.0);
    PFEM_CHECK(poisson_ratio > -1.0 && poisson_ratio < 0.5);
    const real_t e = youngs_modulus, nu = poisson_ratio;
    const real_t c = e / (1.0 - nu * nu);
    ConstitutiveMatrix<3> d;
    d(0, 0) = c;
    d(0, 1) = c * nu;
    d(1, 0) = c * nu;
    d(1, 1) = c;
    d(2, 2) = c * (1.0 - nu) / 2.0;
    return d;
  }

  /// 6x6 isotropic 3-D constitutive matrix in Voigt order
  /// (xx, yy, zz, xy, yz, zx), from the Lamé constants.
  [[nodiscard]] ConstitutiveMatrix<6> elastic_3d_d() const {
    PFEM_CHECK(youngs_modulus > 0.0);
    PFEM_CHECK(poisson_ratio > -1.0 && poisson_ratio < 0.5);
    const real_t e = youngs_modulus, nu = poisson_ratio;
    const real_t lambda = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu));
    const real_t mu = e / (2.0 * (1.0 + nu));
    ConstitutiveMatrix<6> d;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) d(i, j) = lambda;
      d(i, i) = lambda + 2.0 * mu;
      d(i + 3, i + 3) = mu;
    }
    return d;
  }
};

}  // namespace pfem::fem
