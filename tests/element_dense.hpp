// The element kernels write into caller storage; the element-property
// tests read one element's matrix as a DenseMatrix.
#pragma once

#include "fem/elements.hpp"
#include "la/dense.hpp"

namespace pfem::fem {

inline la::DenseMatrix dense_stiffness(ElemType type, const ElemCoords& x,
                                       const Material& mat) {
  const index_t n = nodes_per_elem(type) * elem_dim(type);
  la::DenseMatrix ke(n, n);
  stiffness_matrix(type, x, mat, ke.data());
  return ke;
}

inline la::DenseMatrix dense_mass(ElemType type, const ElemCoords& x,
                                  const Material& mat) {
  const index_t n = nodes_per_elem(type) * elem_dim(type);
  la::DenseMatrix me(n, n);
  mass_matrix(type, x, mat, me.data());
  return me;
}

inline la::DenseMatrix dense_diffusion(
    ElemType type, const ElemCoords& x,
    const DiffusionTensor& d = kIdentityDiffusion) {
  la::DenseMatrix ke(nodes_per_elem(type), nodes_per_elem(type));
  diffusion_matrix(type, x, d, ke.data());
  return ke;
}

}  // namespace pfem::fem
