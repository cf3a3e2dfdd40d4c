// Synthetic sparse test matrices.
//
// Tests and the Fig. 1-3 polynomial studies need matrices with known
// spectra independent of the FE substrate: 2-D Laplacians (classical
// eigenvalues), diagonally dominant random SPD systems, and diagonal
// matrices with prescribed eigenvalues to probe Θ coverage directly.
#pragma once

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace pfem::sparse {

/// 5-point finite-difference Laplacian on an nx x ny grid (Dirichlet).
/// Eigenvalues: 4 - 2cos(i*pi/(nx+1)) - 2cos(j*pi/(ny+1)); SPD.
[[nodiscard]] CsrMatrix laplace2d(index_t nx, index_t ny);

/// Random sparse symmetric diagonally dominant SPD matrix:
/// ~`per_row` off-diagonals per row in (-1,0), diagonal = |row| sum + margin.
[[nodiscard]] CsrMatrix random_spd(index_t n, index_t per_row,
                                   real_t margin = 0.1,
                                   std::uint64_t seed = 7);

/// Symmetric tridiagonal Toeplitz [off, diag, off]; eigenvalues
/// diag + 2*off*cos(k*pi/(n+1)).
[[nodiscard]] CsrMatrix tridiag(index_t n, real_t diag, real_t off);

/// Diagonal matrix with the given eigenvalues (for spectral tests of the
/// polynomial preconditioners — p(A) acts exactly as p(lambda_i)).
[[nodiscard]] CsrMatrix diagonal_matrix(const Vector& eigenvalues);

/// Upwind finite-difference convection–diffusion operator
/// −Δu + (vx, vy)·∇u on an nx x ny grid (Dirichlet): the classical
/// *unsymmetric* test system for GMRES (the paper motivates
/// GMRES with exactly this problem class).  Larger |v| = stronger
/// nonsymmetry; the upwind stencil keeps it an M-matrix.
[[nodiscard]] CsrMatrix convection_diffusion_2d(index_t nx, index_t ny,
                                                real_t vx, real_t vy);

}  // namespace pfem::sparse
