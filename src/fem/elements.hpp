// Element integrals: stiffness, consistent mass and scalar diffusion
// matrices, and centroid strains.
//
// Q4 (4-node bilinear quadrilateral, 2x2 Gauss) and T3 (constant-strain
// triangle) for 2-D plane-stress elasticity — the elements the paper
// evaluates with ("four-node quadrilateral finite elements", §6.1) plus
// the T3 used in its planar-graph argument (§5) — the Q8 serendipity
// quadrilateral (3x3 Gauss) §5 singles out as making the matrix graph
// non-planar, and the trilinear Hex8 (2x2x2 Gauss) for 3-D elasticity.
// A scalar diffusion Q4/T3 stiffness serves the heterogeneous family and
// substrate tests with known analytic behaviour.
//
// Every integral is one isoparametric loop over a shape policy, on
// fixed-size stack storage, written straight into caller storage
// (edofs x edofs, row-major): the element store's value array, or a
// test's matrix.  Nothing is allocated per element.
#pragma once

#include <array>
#include <span>

#include "fem/material.hpp"
#include "fem/mesh.hpp"

namespace pfem::fem {

/// Packed node coordinates of one element, node-major: (x, y) pairs for
/// the 2-D types, (x, y, z) triples for Hex8; entries past the element's
/// nodes are unused.  Node order: Q4 and T3 counter-clockwise; Q8 the 4
/// CCW corners then the midsides of edges 01, 12, 23, 30; Hex8 the
/// bottom face CCW (viewed from +z) then the top face above it.
using ElemCoords = std::array<real_t, 24>;

/// Element e's node coordinates, gathered from the mesh.
[[nodiscard]] ElemCoords element_coords(const Mesh& mesh, index_t e);

/// Elasticity stiffness Ke = s * sum_g B^T D B |J| w_g with s the
/// thickness and D plane stress for the 2-D types, s = 1 and the 3-D D
/// for Hex8; dof order u0,v0(,w0),u1,...  ke holds edofs^2 entries,
/// edofs = nodes x dim.  Throws on a degenerate or inverted element.
void stiffness_matrix(ElemType type, const ElemCoords& x,
                      const Material& mat, std::span<real_t> ke);

/// Consistent mass Me = rho * s * sum_g N^T N |J| w_g in each
/// displacement component (s as above); T3 uses its exact closed form.
void mass_matrix(ElemType type, const ElemCoords& x, const Material& mat,
                 std::span<real_t> me);

/// Symmetric positive-definite 2x2 diffusion tensor, row-major
/// (dxx, dxy, dyx, dyy).
using DiffusionTensor = std::array<real_t, 4>;
inline constexpr DiffusionTensor kIdentityDiffusion{1.0, 0.0, 0.0, 1.0};

/// Scalar diffusion stiffness ke = sum_g grad(N)^T D grad(N) |J| w_g
/// (nodes^2 entries).  Q4 integrates D; T3 is the exact closed-form
/// Laplacian and does not read d; Q8 and Hex8 throw.
void diffusion_matrix(ElemType type, const ElemCoords& x,
                      const DiffusionTensor& d, std::span<real_t> ke);

/// Centroid strain eps = B(centroid) ue from the element displacement
/// vector (node-major, component-minor dof order): Voigt
/// (exx, eyy, gxy) for the 2-D types, (exx, eyy, ezz, gxy, gyz, gzx)
/// for Hex8.
void centroid_strain(ElemType type, const ElemCoords& x,
                     std::span<const real_t> ue, std::span<real_t> eps);

/// Signed area of a triangle (positive for CCW node order).
[[nodiscard]] real_t tri3_area(const ElemCoords& x);

}  // namespace pfem::fem
