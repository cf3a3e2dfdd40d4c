#include "fem/elements.hpp"

#include <algorithm>
#include <type_traits>

#include "common/error.hpp"
#include "sparse/ebe_store.hpp"

namespace pfem::fem {

namespace {

constexpr real_t kGauss = 0.57735026918962576451;  // 1/sqrt(3)

/// Shape values and physical gradients of an N-node element in D
/// dimensions at one point.
template <int N, int D>
struct PointEval {
  std::array<real_t, N> n{};                  // N_i
  std::array<std::array<real_t, N>, D> dn{};  // dN_i/dx_d
  real_t det_j = 0.0;                         // |J|
};

/// Physical gradients from the reference ones dref[a][i] = dN_i/dxi_a
/// through the Jacobian J = d(x)/d(xi) of the packed coordinates.
template <class S>
PointEval<S::kNodes, S::kDim> isoparametric(
    const ElemCoords& x, const std::array<real_t, S::kNodes>& n,
    const std::array<std::array<real_t, S::kNodes>, S::kDim>& dref) {
  constexpr int kN = S::kNodes, kD = S::kDim;
  PointEval<kN, kD> s;
  s.n = n;
  real_t j[kD][kD] = {};  // j[a][b] = dx_b/dxi_a
  for (int i = 0; i < kN; ++i)
    for (int a = 0; a < kD; ++a)
      for (int b = 0; b < kD; ++b) j[a][b] += dref[a][i] * x[kD * i + b];
  if constexpr (kD == 2) {
    s.det_j = j[0][0] * j[1][1] - j[0][1] * j[1][0];
    PFEM_CHECK_MSG(s.det_j > 0.0, "degenerate/inverted " << S::kName
                                                         << " element");
    const real_t inv = 1.0 / s.det_j;
    for (int i = 0; i < kN; ++i) {
      s.dn[0][i] = inv * (j[1][1] * dref[0][i] - j[0][1] * dref[1][i]);
      s.dn[1][i] = inv * (-j[1][0] * dref[0][i] + j[0][0] * dref[1][i]);
    }
  } else {
    s.det_j = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1]) -
              j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0]) +
              j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    PFEM_CHECK_MSG(s.det_j > 0.0, "degenerate/inverted " << S::kName
                                                         << " element");
    // Inverse Jacobian (adjugate / det).
    const real_t inv = 1.0 / s.det_j;
    real_t ji[3][3];
    ji[0][0] = inv * (j[1][1] * j[2][2] - j[1][2] * j[2][1]);
    ji[0][1] = inv * (j[0][2] * j[2][1] - j[0][1] * j[2][2]);
    ji[0][2] = inv * (j[0][1] * j[1][2] - j[0][2] * j[1][1]);
    ji[1][0] = inv * (j[1][2] * j[2][0] - j[1][0] * j[2][2]);
    ji[1][1] = inv * (j[0][0] * j[2][2] - j[0][2] * j[2][0]);
    ji[1][2] = inv * (j[0][2] * j[1][0] - j[0][0] * j[1][2]);
    ji[2][0] = inv * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    ji[2][1] = inv * (j[0][1] * j[2][0] - j[0][0] * j[2][1]);
    ji[2][2] = inv * (j[0][0] * j[1][1] - j[0][1] * j[1][0]);
    for (int i = 0; i < kN; ++i)
      for (int d = 0; d < 3; ++d)
        s.dn[d][i] = ji[d][0] * dref[0][i] + ji[d][1] * dref[1][i] +
                     ji[d][2] * dref[2][i];
  }
  return s;
}

// ---- Shape policies ---------------------------------------------------
//
// Node count, dimension, the 1-D Gauss rule whose tensor product is the
// element's quadrature, and the shape values and physical gradients at
// a reference point.

struct Quad4 {
  static constexpr int kNodes = 4, kDim = 2;
  static constexpr const char* kName = "Q4";
  static constexpr std::array<real_t, 2> kRule{-kGauss, kGauss};
  static constexpr std::array<real_t, 2> kWeights{1.0, 1.0};

  static PointEval<4, 2> at(const ElemCoords& x,
                            const std::array<real_t, 3>& p) {
    // Node order: (-1,-1), (1,-1), (1,1), (-1,1).
    constexpr std::array<real_t, 4> xs{-1.0, 1.0, 1.0, -1.0};
    constexpr std::array<real_t, 4> es{-1.0, -1.0, 1.0, 1.0};
    const real_t xi = p[0], eta = p[1];
    std::array<real_t, 4> n{};
    std::array<std::array<real_t, 4>, 2> dref{};
    for (int i = 0; i < 4; ++i) {
      n[i] = 0.25 * (1.0 + xs[i] * xi) * (1.0 + es[i] * eta);
      dref[0][i] = 0.25 * xs[i] * (1.0 + es[i] * eta);
      dref[1][i] = 0.25 * es[i] * (1.0 + xs[i] * xi);
    }
    return isoparametric<Quad4>(x, n, dref);
  }
};

/// Serendipity Q8: corners CCW then midsides of edges 01, 12, 23, 30.
struct Quad8 {
  static constexpr int kNodes = 8, kDim = 2;
  static constexpr const char* kName = "Q8";
  static constexpr std::array<real_t, 3> kRule{-0.77459666924148337704, 0.0,
                                               0.77459666924148337704};
  static constexpr std::array<real_t, 3> kWeights{5.0 / 9.0, 8.0 / 9.0,
                                                  5.0 / 9.0};

  static PointEval<8, 2> at(const ElemCoords& x,
                            const std::array<real_t, 3>& p) {
    constexpr std::array<real_t, 4> xs{-1.0, 1.0, 1.0, -1.0};
    constexpr std::array<real_t, 4> es{-1.0, -1.0, 1.0, 1.0};
    const real_t xi = p[0], eta = p[1];
    std::array<real_t, 8> n{};
    std::array<std::array<real_t, 8>, 2> dref{};
    // Corners: N = 1/4 (1+ξξi)(1+ηηi)(ξξi+ηηi−1).
    for (int i = 0; i < 4; ++i) {
      const real_t xi_i = xs[i], et_i = es[i];
      n[i] = 0.25 * (1 + xi_i * xi) * (1 + et_i * eta) *
             (xi_i * xi + et_i * eta - 1);
      dref[0][i] = 0.25 * xi_i * (1 + et_i * eta) *
                   (2 * xi_i * xi + et_i * eta);
      dref[1][i] = 0.25 * et_i * (1 + xi_i * xi) *
                   (xi_i * xi + 2 * et_i * eta);
    }
    // Midsides on η = ∓1 edges (nodes 4 and 6): N = 1/2 (1−ξ²)(1+ηηi).
    for (int k = 0; k < 2; ++k) {
      const int i = 4 + 2 * k;
      const real_t et_i = k == 0 ? -1.0 : 1.0;
      n[i] = 0.5 * (1 - xi * xi) * (1 + et_i * eta);
      dref[0][i] = -xi * (1 + et_i * eta);
      dref[1][i] = 0.5 * et_i * (1 - xi * xi);
    }
    // Midsides on ξ = ±1 edges (nodes 5 and 7): N = 1/2 (1+ξξi)(1−η²).
    for (int k = 0; k < 2; ++k) {
      const int i = 5 + 2 * k;
      const real_t xi_i = k == 0 ? 1.0 : -1.0;
      n[i] = 0.5 * (1 + xi_i * xi) * (1 - eta * eta);
      dref[0][i] = 0.5 * xi_i * (1 - eta * eta);
      dref[1][i] = -eta * (1 + xi_i * xi);
    }
    return isoparametric<Quad8>(x, n, dref);
  }
};

/// Trilinear Hex8.  Node order: bottom face (-1,-1,-1),(1,-1,-1),
/// (1,1,-1),(-1,1,-1) then the top face above it.
struct Hex8 {
  static constexpr int kNodes = 8, kDim = 3;
  static constexpr const char* kName = "Hex8";
  static constexpr std::array<real_t, 2> kRule{-kGauss, kGauss};
  static constexpr std::array<real_t, 2> kWeights{1.0, 1.0};

  static PointEval<8, 3> at(const ElemCoords& x,
                            const std::array<real_t, 3>& p) {
    constexpr std::array<real_t, 8> xs{-1, 1, 1, -1, -1, 1, 1, -1};
    constexpr std::array<real_t, 8> es{-1, -1, 1, 1, -1, -1, 1, 1};
    constexpr std::array<real_t, 8> zs{-1, -1, -1, -1, 1, 1, 1, 1};
    std::array<real_t, 8> n{};
    std::array<std::array<real_t, 8>, 3> dref{};
    for (int i = 0; i < 8; ++i) {
      const real_t fx = 1 + xs[i] * p[0], fe = 1 + es[i] * p[1],
                   fz = 1 + zs[i] * p[2];
      n[i] = 0.125 * fx * fe * fz;
      dref[0][i] = 0.125 * xs[i] * fe * fz;
      dref[1][i] = 0.125 * es[i] * fx * fz;
      dref[2][i] = 0.125 * zs[i] * fx * fe;
    }
    return isoparametric<Hex8>(x, n, dref);
  }
};

/// CST geometry: the area A and the constant gradient numerators
/// b_i = y_j - y_k, c_i = x_k - x_j (cyclic), so dN_i/dx = b_i / 2A and
/// dN_i/dy = c_i / 2A.
struct Tri3Geometry {
  real_t area;
  std::array<real_t, 3> b;
  std::array<real_t, 3> c;
};

Tri3Geometry tri3_geometry(const ElemCoords& x) {
  const real_t area = tri3_area(x);
  PFEM_CHECK_MSG(area > 0.0, "degenerate/inverted T3 element");
  const real_t x1 = x[0], y1 = x[1], x2 = x[2], y2 = x[3], x3 = x[4],
               y3 = x[5];
  return {area, {y2 - y3, y3 - y1, y1 - y2}, {x3 - x2, x1 - x3, x2 - x1}};
}

/// CST: its gradients are constant, so one point with weight 1 and the
/// area in place of |J| integrates B^T D B exactly.
struct Tri3 {
  static constexpr int kNodes = 3, kDim = 2;
  static constexpr std::array<real_t, 1> kRule{1.0 / 3.0};
  static constexpr std::array<real_t, 1> kWeights{1.0};

  static PointEval<3, 2> at(const ElemCoords& x,
                            const std::array<real_t, 3>& /*p*/) {
    const Tri3Geometry g = tri3_geometry(x);
    const real_t inv2a = 1.0 / (2.0 * g.area);
    PointEval<3, 2> s;
    s.det_j = g.area;
    for (int i = 0; i < 3; ++i) {
      s.n[i] = 1.0 / 3.0;
      s.dn[0][i] = g.b[i] * inv2a;
      s.dn[1][i] = g.c[i] * inv2a;
    }
    return s;
  }
};

/// Calls f(point, w) at each point of S's tensor-product rule, first
/// coordinate outermost, with w = scale * |J| * w_1 * ... * w_dim
/// multiplied in that order.
template <class S, class F>
void for_each_point(const ElemCoords& x, real_t scale, F&& f) {
  constexpr int kP = static_cast<int>(S::kRule.size());
  int points = 1;
  for (int d = 0; d < S::kDim; ++d) points *= kP;
  for (int q = 0; q < points; ++q) {
    std::array<int, 3> g{};
    std::array<real_t, 3> p{};
    for (int d = S::kDim - 1, r = q; d >= 0; --d, r /= kP) {
      g[d] = r % kP;
      p[d] = S::kRule[g[d]];
    }
    const auto s = S::at(x, p);
    real_t w = scale * s.det_j;
    for (int d = 0; d < S::kDim; ++d) w *= S::kWeights[g[d]];
    f(s, w);
  }
}

/// Engineering strain in Voigt order: strain k gets dN/dx_d times
/// displacement component c for each term (k, d, c).  A shear strain's
/// two terms are summed per node in the order listed.
struct VoigtTerm {
  int k, d, c;
};
constexpr std::array<VoigtTerm, 4> kVoigt2{
    {{0, 0, 0}, {1, 1, 1}, {2, 1, 0}, {2, 0, 1}}};
constexpr std::array<VoigtTerm, 9> kVoigt3{{{0, 0, 0},
                                            {1, 1, 1},
                                            {2, 2, 2},
                                            {3, 1, 0},
                                            {3, 0, 1},
                                            {4, 2, 1},
                                            {4, 1, 2},
                                            {5, 2, 0},
                                            {5, 0, 2}}};

template <int D>
constexpr const auto& voigt_terms() {
  if constexpr (D == 2)
    return kVoigt2;
  else
    return kVoigt3;
}

constexpr int strains(int dim) { return dim == 2 ? 3 : 6; }

/// ke += sum_g w_g B^T (D B): B from the Voigt terms (structural zeros
/// stored), D's zero entries skipped in D B.
template <class S>
void stiffness(const ElemCoords& x,
               const ConstitutiveMatrix<strains(S::kDim)>& d, real_t scale,
               std::span<real_t> ke) {
  constexpr int kE = S::kNodes * S::kDim, kS = strains(S::kDim);
  static_assert(kE <= sparse::kMaxEbeElemDofs);
  for_each_point<S>(x, scale, [&](const auto& s, real_t w) {
    real_t b[kS][kE] = {};
    for (int i = 0; i < S::kNodes; ++i)
      for (const VoigtTerm& t : voigt_terms<S::kDim>())
        b[t.k][S::kDim * i + t.c] = s.dn[t.d][i];
    real_t db[kS][kE] = {};
    for (int i = 0; i < kS; ++i)
      for (int k = 0; k < kS; ++k) {
        const real_t dik = d(i, k);
        if (dik == 0.0) continue;
        for (int j = 0; j < kE; ++j) db[i][j] += dik * b[k][j];
      }
    for (int r = 0; r < kE; ++r)
      for (int c = 0; c < kE; ++c) {
        real_t acc = 0.0;
        for (int k = 0; k < kS; ++k) acc += b[k][r] * db[k][c];
        ke[kE * r + c] += w * acc;
      }
  });
}

/// me += sum_g w_g N^T N in each displacement component.
template <class S>
void mass(const ElemCoords& x, real_t scale, std::span<real_t> me) {
  constexpr int kD = S::kDim, kE = S::kNodes * kD;
  for_each_point<S>(x, scale, [&](const auto& s, real_t w) {
    for (int i = 0; i < S::kNodes; ++i)
      for (int j = 0; j < S::kNodes; ++j) {
        const real_t nij = w * s.n[i] * s.n[j];
        for (int c = 0; c < kD; ++c) me[kE * (kD * i + c) + kD * j + c] += nij;
      }
  });
}

/// ke += sum_g w_g grad(N)^T D grad(N) for a 2-D scalar field.
template <class S>
void diffusion(const ElemCoords& x, const DiffusionTensor& d,
               std::span<real_t> ke) {
  constexpr int kN = S::kNodes;
  for_each_point<S>(x, 1.0, [&](const auto& s, real_t w) {
    for (int i = 0; i < kN; ++i) {
      // (D grad Ni) with D = [dxx dxy; dyx dyy], row-major.
      const real_t qx = d[0] * s.dn[0][i] + d[1] * s.dn[1][i];
      const real_t qy = d[2] * s.dn[0][i] + d[3] * s.dn[1][i];
      for (int j = 0; j < kN; ++j)
        ke[kN * i + j] += w * (qx * s.dn[0][j] + qy * s.dn[1][j]);
    }
  });
}

template <class F>
void with_shape(ElemType type, F&& f) {
  switch (type) {
    case ElemType::Quad4: return f(Quad4{});
    case ElemType::Tri3: return f(Tri3{});
    case ElemType::Quad8: return f(Quad8{});
    case ElemType::Hex8: return f(Hex8{});
  }
}

/// Check that `out` holds an n x n matrix and zero it.
void begin_matrix(std::span<real_t> out, index_t n) {
  PFEM_CHECK(out.size() == static_cast<std::size_t>(n) * n);
  std::fill(out.begin(), out.end(), 0.0);
}

}  // namespace

ElemCoords element_coords(const Mesh& mesh, index_t e) {
  const auto dim = static_cast<std::size_t>(mesh.dim());
  const auto nodes = mesh.elem_nodes(e);
  ElemCoords x{};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    x[dim * i] = mesh.x(nodes[i]);
    x[dim * i + 1] = mesh.y(nodes[i]);
    if (dim == 3) x[dim * i + 2] = mesh.z(nodes[i]);
  }
  return x;
}

real_t tri3_area(const ElemCoords& x) {
  return 0.5 * ((x[2] - x[0]) * (x[5] - x[1]) - (x[4] - x[0]) * (x[3] - x[1]));
}

void stiffness_matrix(ElemType type, const ElemCoords& x,
                      const Material& mat, std::span<real_t> ke) {
  begin_matrix(ke, nodes_per_elem(type) * elem_dim(type));
  with_shape(type, [&]<class S>(S) {
    if constexpr (S::kDim == 2)
      stiffness<S>(x, mat.plane_stress_d(), mat.thickness, ke);
    else
      stiffness<S>(x, mat.elastic_3d_d(), 1.0, ke);
  });
}

void mass_matrix(ElemType type, const ElemCoords& x, const Material& mat,
                 std::span<real_t> me) {
  begin_matrix(me, nodes_per_elem(type) * elem_dim(type));
  with_shape(type, [&]<class S>(S) {
    if constexpr (std::is_same_v<S, Tri3>) {
      // Consistent CST mass: (rho*t*A/12) * (2 if i==j else 1) per dof
      // pair.
      const real_t c =
          mat.density * mat.thickness * tri3_geometry(x).area / 12.0;
      for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
          const real_t v = c * (i == j ? 2.0 : 1.0);
          me[6 * (2 * i) + 2 * j] = v;
          me[6 * (2 * i + 1) + 2 * j + 1] = v;
        }
    } else {
      mass<S>(x, mat.density * (S::kDim == 2 ? mat.thickness : 1.0), me);
    }
  });
}

void diffusion_matrix(ElemType type, const ElemCoords& x,
                      const DiffusionTensor& d, std::span<real_t> ke) {
  begin_matrix(ke, nodes_per_elem(type));
  if (type == ElemType::Quad4) return diffusion<Quad4>(x, d, ke);
  PFEM_CHECK_MSG(type == ElemType::Tri3,
                 "scalar Poisson not provided for "
                     << (type == ElemType::Quad8 ? "Q8" : "Hex8"));
  const Tri3Geometry g = tri3_geometry(x);
  const real_t c = 1.0 / (4.0 * g.area);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      ke[3 * i + j] = c * (g.b[i] * g.b[j] + g.c[i] * g.c[j]);
}

void centroid_strain(ElemType type, const ElemCoords& x,
                     std::span<const real_t> ue, std::span<real_t> eps) {
  with_shape(type, [&]<class S>(S) {
    constexpr int kS = strains(S::kDim);
    PFEM_CHECK(ue.size() == static_cast<std::size_t>(S::kNodes * S::kDim));
    PFEM_CHECK(eps.size() == static_cast<std::size_t>(kS));
    const auto s = S::at(x, {0.0, 0.0, 0.0});
    std::fill(eps.begin(), eps.end(), 0.0);
    for (int i = 0; i < S::kNodes; ++i) {
      real_t node[kS] = {};
      for (const VoigtTerm& t : voigt_terms<S::kDim>())
        node[t.k] += s.dn[t.d][i] * ue[S::kDim * i + t.c];
      for (int k = 0; k < kS; ++k) eps[k] += node[k];
    }
  });
}

}  // namespace pfem::fem
