#include "fem/stress.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "fem/assembly.hpp"
#include "fem/elements.hpp"

namespace pfem::fem {

namespace {

/// Gather the element displacement vector: free dofs from u, fixed
/// (homogeneous Dirichlet) dofs as zero.
Vector gather_element_u(const Mesh& mesh, const DofMap& dofs, index_t e,
                        std::span<const real_t> u) {
  const IndexVector gd = element_dofs(mesh, dofs, e);
  Vector ue(gd.size(), 0.0);
  for (std::size_t k = 0; k < gd.size(); ++k)
    if (gd[k] >= 0) ue[k] = u[static_cast<std::size_t>(gd[k])];
  return ue;
}

/// sigma = D eps, each component summed from 0.0 in column order.
template <int N>
std::array<real_t, N> stress_of(const ConstitutiveMatrix<N>& d,
                                const std::array<real_t, 6>& eps) {
  std::array<real_t, N> sig{};
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j) sig[i] += d(i, j) * eps[j];
  return sig;
}

real_t von_mises_plane_stress(real_t sxx, real_t syy, real_t sxy) {
  return std::sqrt(sxx * sxx - sxx * syy + syy * syy + 3.0 * sxy * sxy);
}

real_t von_mises_3d(const ElementStress& s) {
  const real_t d1 = s.sxx - s.syy, d2 = s.syy - s.szz, d3 = s.szz - s.sxx;
  return std::sqrt(0.5 * (d1 * d1 + d2 * d2 + d3 * d3) +
                   3.0 * (s.sxy * s.sxy + s.syz * s.syz + s.szx * s.szx));
}

}  // namespace

ElementStress element_stress(const Mesh& mesh, const DofMap& dofs,
                             const Material& mat, index_t e,
                             std::span<const real_t> u) {
  PFEM_CHECK(u.size() == static_cast<std::size_t>(dofs.num_free()));
  const Vector ue = gather_element_u(mesh, dofs, e, u);
  std::array<real_t, 6> eps{};
  centroid_strain(mesh.type(), element_coords(mesh, e), ue,
                  std::span(eps).first(mesh.dim() == 3 ? 6 : 3));
  ElementStress out;
  if (mesh.dim() == 3) {
    const std::array<real_t, 6> sig = stress_of(mat.elastic_3d_d(), eps);
    out.sxx = sig[0];
    out.syy = sig[1];
    out.szz = sig[2];
    out.sxy = sig[3];
    out.syz = sig[4];
    out.szx = sig[5];
    out.von_mises = von_mises_3d(out);
  } else {
    const std::array<real_t, 3> sig = stress_of(mat.plane_stress_d(), eps);
    out.sxx = sig[0];
    out.syy = sig[1];
    out.sxy = sig[2];
    out.von_mises = von_mises_plane_stress(out.sxx, out.syy, out.sxy);
  }
  return out;
}

std::vector<ElementStress> compute_stresses(const Mesh& mesh,
                                            const DofMap& dofs,
                                            const Material& mat,
                                            std::span<const real_t> u) {
  std::vector<ElementStress> out;
  out.reserve(static_cast<std::size_t>(mesh.num_elems()));
  for (index_t e = 0; e < mesh.num_elems(); ++e)
    out.push_back(element_stress(mesh, dofs, mat, e, u));
  return out;
}

}  // namespace pfem::fem
