// Tests for stress recovery and mesh file I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/fgmres.hpp"
#include "fem/mesh_io.hpp"
#include "fem/problems.hpp"
#include "fem/stress.hpp"
#include "fem/structured.hpp"

namespace pfem {
namespace {

// ---- Stress recovery ----

TEST(Stress, UniaxialBarRecoversExactStress) {
  // A bar pulled with total force F over cross-section A = ny (thickness
  // 1) carries sxx = F/A everywhere, syy ≈ sxy ≈ 0 away from the clamp.
  fem::CantileverSpec spec;
  spec.nx = 12;
  spec.ny = 3;
  spec.load_total = 60.0;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  Vector u(prob.load.size(), 0.0);
  core::Ilu0Precond ilu(prob.stiffness);
  core::SolveOptions opts;
  opts.tol = 1e-11;
  ASSERT_TRUE(core::fgmres(prob.stiffness, prob.load, u, ilu, opts)
                  .converged);

  const auto stresses =
      fem::compute_stresses(prob.mesh, prob.dofs, prob.material, u);
  ASSERT_EQ(stresses.size(), static_cast<std::size_t>(prob.mesh.num_elems()));
  const real_t expected = 60.0 / 3.0;  // F / (ny * thickness)
  // Check an element in the middle of the bar (away from end effects).
  const index_t mid = prob.mesh.num_elems() / 2;
  EXPECT_NEAR(stresses[static_cast<std::size_t>(mid)].sxx, expected,
              0.05 * expected);
  EXPECT_LT(std::abs(stresses[static_cast<std::size_t>(mid)].syy),
            0.1 * expected);
  EXPECT_NEAR(stresses[static_cast<std::size_t>(mid)].von_mises, expected,
              0.1 * expected);
}

TEST(Stress, ZeroDisplacementZeroStress) {
  fem::CantileverSpec spec;
  spec.nx = 4;
  spec.ny = 2;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  Vector u(prob.load.size(), 0.0);
  for (const auto& s :
       fem::compute_stresses(prob.mesh, prob.dofs, prob.material, u)) {
    EXPECT_DOUBLE_EQ(s.von_mises, 0.0);
    EXPECT_DOUBLE_EQ(s.sxx, 0.0);
  }
}

TEST(Stress, Hex8UniaxialBar) {
  fem::Cantilever3dSpec spec;
  spec.nx = 8;
  spec.ny = 2;
  spec.nz = 2;
  spec.load_total = 40.0;
  const fem::CantileverProblem prob = fem::make_cantilever_3d(spec);
  Vector u(prob.load.size(), 0.0);
  core::Ilu0Precond ilu(prob.stiffness);
  core::SolveOptions opts;
  opts.tol = 1e-11;
  opts.max_iters = 50000;
  ASSERT_TRUE(core::fgmres(prob.stiffness, prob.load, u, ilu, opts)
                  .converged);
  const auto stresses =
      fem::compute_stresses(prob.mesh, prob.dofs, prob.material, u);
  const real_t expected = 40.0 / 4.0;  // F / (ny*nz)
  // Pick an element mid-bar (away from the clamped face's constrained
  // lateral contraction): centroid x closest to nx/2.
  index_t mid = 0;
  real_t best = 1e30;
  for (index_t e = 0; e < prob.mesh.num_elems(); ++e) {
    const auto [cx, cy] = prob.mesh.elem_centroid(e);
    (void)cy;
    const real_t d = std::abs(cx - static_cast<real_t>(spec.nx) / 2.0);
    if (d < best) {
      best = d;
      mid = e;
    }
  }
  EXPECT_NEAR(stresses[static_cast<std::size_t>(mid)].sxx, expected,
              0.1 * expected);
  EXPECT_NEAR(stresses[static_cast<std::size_t>(mid)].von_mises, expected,
              0.15 * expected);
}

TEST(Stress, AllElementTypesProduceFiniteStress) {
  for (fem::ElemType t : {fem::ElemType::Quad4, fem::ElemType::Tri3,
                          fem::ElemType::Quad8}) {
    fem::CantileverSpec spec;
    spec.nx = 5;
    spec.ny = 2;
    spec.elem_type = t;
    const fem::CantileverProblem prob = fem::make_cantilever(spec);
    Vector u(prob.load.size(), 0.0);
    core::Ilu0Precond ilu(prob.stiffness);
    core::SolveOptions opts;
    opts.tol = 1e-9;
    opts.max_iters = 50000;
    ASSERT_TRUE(core::fgmres(prob.stiffness, prob.load, u, ilu, opts)
                    .converged);
    for (const auto& s :
         fem::compute_stresses(prob.mesh, prob.dofs, prob.material, u)) {
      EXPECT_TRUE(std::isfinite(s.von_mises));
      EXPECT_GE(s.von_mises, 0.0);
    }
  }
}

// ---- Mesh I/O ----

TEST(MeshIo, RoundTrip2d) {
  const fem::Mesh mesh = fem::structured_quad(4, 3, 4.0, 3.0);
  std::stringstream ss;
  fem::write_mesh(ss, mesh);
  const fem::Mesh back = fem::read_mesh(ss);
  ASSERT_EQ(back.num_nodes(), mesh.num_nodes());
  ASSERT_EQ(back.num_elems(), mesh.num_elems());
  EXPECT_EQ(back.type(), mesh.type());
  for (index_t n = 0; n < mesh.num_nodes(); ++n) {
    EXPECT_DOUBLE_EQ(back.x(n), mesh.x(n));
    EXPECT_DOUBLE_EQ(back.y(n), mesh.y(n));
  }
  for (index_t e = 0; e < mesh.num_elems(); ++e) {
    const auto a = mesh.elem_nodes(e);
    const auto b = back.elem_nodes(e);
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST(MeshIo, RoundTrip3d) {
  const fem::Mesh mesh = fem::structured_hex(3, 2, 2, 3.0, 2.0, 2.0);
  std::stringstream ss;
  fem::write_mesh(ss, mesh);
  const fem::Mesh back = fem::read_mesh(ss);
  EXPECT_EQ(back.dim(), 3);
  EXPECT_EQ(back.num_nodes(), mesh.num_nodes());
  for (index_t n = 0; n < mesh.num_nodes(); ++n)
    EXPECT_DOUBLE_EQ(back.z(n), mesh.z(n));
}

TEST(MeshIo, RejectsGarbage) {
  std::stringstream ss("nonsense 2\n");
  EXPECT_THROW((void)fem::read_mesh(ss), Error);
}

TEST(MeshIo, RejectsBadConnectivity) {
  std::stringstream ss;
  ss << "pfem-mesh 1\nelemtype tri3\nnodes 3\n0 0\n1 0\n0 1\n"
     << "elements 1\n0 1 7\n";  // node 7 does not exist
  EXPECT_THROW((void)fem::read_mesh(ss), Error);
}

TEST(MeshIo, TypeNamesRoundTrip) {
  for (fem::ElemType t : {fem::ElemType::Quad4, fem::ElemType::Tri3,
                          fem::ElemType::Quad8, fem::ElemType::Hex8})
    EXPECT_EQ(fem::elem_type_from_name(fem::elem_type_name(t)), t);
  EXPECT_THROW((void)fem::elem_type_from_name("hex27"), Error);
}

TEST(MeshIo, ReadMeshSolvesEndToEnd) {
  // Write a mesh, read it back, build a problem on it by hand and solve.
  const fem::Mesh original = fem::structured_quad(6, 3, 6.0, 3.0);
  std::stringstream ss;
  fem::write_mesh(ss, original);
  const fem::Mesh mesh = fem::read_mesh(ss);

  fem::DofMap dofs(mesh.num_nodes(), 2);
  for (index_t n : mesh.nodes_at_x(0.0)) dofs.fix_node(n);
  dofs.finalize();
  fem::Material mat;
  const sparse::CsrMatrix k =
      fem::assemble(mesh, dofs, mat, fem::Operator::Stiffness);
  Vector f(static_cast<std::size_t>(dofs.num_free()), 0.0);
  const IndexVector tip = mesh.nodes_at_x(6.0);
  fem::add_edge_load(dofs, tip, 0, 50.0, f);

  Vector x(f.size(), 0.0);
  core::Ilu0Precond ilu(k);
  EXPECT_TRUE(core::fgmres(k, f, x, ilu).converged);
}

}  // namespace
}  // namespace pfem
