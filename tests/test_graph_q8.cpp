// Tests for the graph partitioner and the Q8 serendipity element.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "core/edd_solver.hpp"
#include "dense_solve.hpp"
#include "element_dense.hpp"
#include "exp/experiments.hpp"
#include "fem/elements.hpp"
#include "fem/problems.hpp"
#include "fem/structured.hpp"
#include "la/vector_ops.hpp"
#include "partition/geom.hpp"
#include "partition/graph.hpp"

namespace pfem {
namespace {

TEST(ElementAdjacency, StructuredQuadCounts) {
  const fem::Mesh mesh = fem::structured_quad(4, 3, 4.0, 3.0);
  const auto adj_edge = partition::element_adjacency(mesh, 2);
  const auto adj_node = partition::element_adjacency(mesh, 1);
  // Interior element: 4 edge-neighbors, 8 node-neighbors.
  const index_t interior = 1 * 4 + 1;  // element (1,1)
  EXPECT_EQ(adj_edge[static_cast<std::size_t>(interior)].size(), 4u);
  EXPECT_EQ(adj_node[static_cast<std::size_t>(interior)].size(), 8u);
  // Corner element: 2 edge-neighbors, 3 node-neighbors.
  EXPECT_EQ(adj_edge[0].size(), 2u);
  EXPECT_EQ(adj_node[0].size(), 3u);
}

TEST(GreedyPartition, BalancedAndCovering) {
  const fem::Mesh mesh = fem::structured_quad(10, 6, 10.0, 6.0);
  const auto adj = partition::element_adjacency(mesh, 2);
  for (int p : {2, 3, 4, 7}) {
    const IndexVector part = partition::partition_greedy(adj, p);
    const IndexVector sizes = partition::part_sizes(part, p);
    const index_t total =
        std::accumulate(sizes.begin(), sizes.end(), index_t{0});
    EXPECT_EQ(total, mesh.num_elems());
    const index_t lo = *std::min_element(sizes.begin(), sizes.end());
    const index_t hi = *std::max_element(sizes.begin(), sizes.end());
    EXPECT_LE(hi - lo, 2) << "p=" << p;
  }
}

TEST(GreedyPartition, ProducesConnectedLowCutPartsOnStrip) {
  // On a long strip the greedy growth should essentially recover strips:
  // the edge cut must be within a small factor of the optimal (ny per
  // cut) and far below a random assignment.
  const fem::Mesh mesh = fem::structured_quad(32, 4, 32.0, 4.0);
  const auto adj = partition::element_adjacency(mesh, 2);
  const IndexVector part = partition::partition_greedy(adj, 4);
  const std::int64_t cut = partition::edge_cut(adj, part);
  EXPECT_LE(cut, 4 * 3 * 3);  // <= 3x optimal (3 cuts x 4 edges)
  IndexVector random_part(static_cast<std::size_t>(mesh.num_elems()));
  for (std::size_t e = 0; e < random_part.size(); ++e)
    random_part[e] = static_cast<index_t>(e % 4);
  EXPECT_LT(cut, partition::edge_cut(adj, random_part) / 4);
}

TEST(GreedyPartition, DrivesEddSolveCorrectly) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const auto adj = partition::element_adjacency(prob.mesh, 2);
  const IndexVector elem_part = partition::partition_greedy(adj, 4);
  const partition::EddPartition part = partition::build_edd_partition(
      prob.mesh, prob.dofs, prob.material, fem::Operator::Stiffness,
      elem_part, 4);
  core::PolySpec poly;
  poly.degree = 7;
  const core::DistSolve res = core::solve_edd(part, prob.load, poly);
  EXPECT_TRUE(res.converged);
}

// ---- Q8 element ----

const fem::ElemCoords kUnitQ8{0,   0,   1, 0,   1,   1, 0, 1,
                              0.5, 0,   1, 0.5, 0.5, 1, 0, 0.5};

TEST(Quad8, StiffnessSymmetricWithRigidBodyNullspace) {
  fem::Material mat;
  const la::DenseMatrix ke = fem::dense_stiffness(fem::ElemType::Quad8, kUnitQ8, mat);
  EXPECT_LT(ke.max_abs_diff(ke.transposed()), 1e-9);
  Vector tx(16, 0.0), ty(16, 0.0), rot(16, 0.0), f(16);
  for (int i = 0; i < 8; ++i) {
    tx[2 * i] = 1.0;
    ty[2 * i + 1] = 1.0;
    rot[2 * i] = -kUnitQ8[2 * i + 1];
    rot[2 * i + 1] = kUnitQ8[2 * i];
  }
  for (const Vector& u : {tx, ty, rot}) {
    ke.matvec(u, f);
    EXPECT_LT(la::nrm_inf(f), 1e-8);
  }
}

TEST(Quad8, MassTotalEqualsElementMass) {
  fem::Material mat;
  mat.density = 4.0;
  mat.thickness = 0.25;
  const la::DenseMatrix me = fem::dense_mass(fem::ElemType::Quad8, kUnitQ8, mat);
  double total = 0.0;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) total += me(2 * i, 2 * j);
  EXPECT_NEAR(total, 4.0 * 0.25 * 1.0, 1e-10);
}

TEST(Quad8, LinearFieldReproducedExactly) {
  // Serendipity elements contain the full linear (indeed quadratic)
  // polynomial space: a linear displacement field has zero residual
  // force beyond the constant-strain reaction pattern; equivalently the
  // energy of u = a*x matches the exact constant-strain energy.
  fem::Material mat;
  const la::DenseMatrix ke = fem::dense_stiffness(fem::ElemType::Quad8, kUnitQ8, mat);
  const double a = 0.02;
  Vector u(16, 0.0), f(16);
  for (int i = 0; i < 8; ++i) u[2 * i] = a * kUnitQ8[2 * i];
  ke.matvec(u, f);
  const double energy = 0.5 * la::dot(u, f);
  const double d00 = mat.plane_stress_d()(0, 0);
  EXPECT_NEAR(energy, 0.5 * d00 * a * a * 1.0, 1e-10 * energy);
}

TEST(Quad8, StructuredMeshCounts) {
  const fem::Mesh mesh = fem::structured_quad8(3, 2, 3.0, 2.0);
  // corners 4*3=12, h-mids 3*3=9, v-mids 4*2=8 -> 29 nodes, 6 elements.
  EXPECT_EQ(mesh.num_nodes(), 29);
  EXPECT_EQ(mesh.num_elems(), 6);
  EXPECT_EQ(nodes_per_elem(mesh.type()), 8);
  // Midside of the first element's bottom edge sits at (0.5, 0).
  const auto nodes = mesh.elem_nodes(0);
  EXPECT_DOUBLE_EQ(mesh.x(nodes[4]), 0.5);
  EXPECT_DOUBLE_EQ(mesh.y(nodes[4]), 0.0);
  EXPECT_DOUBLE_EQ(mesh.x(nodes[7]), 0.0);
  EXPECT_DOUBLE_EQ(mesh.y(nodes[7]), 0.5);
}

TEST(Quad8, CantileverSolvesAndBeatsQ4Accuracy) {
  // Same element budget: the Q8 discretization is stiffer-resolved and
  // its tip deflection should be at least as large (closer to the
  // continuum limit) than Q4's on the same coarse mesh.
  fem::CantileverSpec q4spec;
  q4spec.nx = 8;
  q4spec.ny = 2;
  fem::CantileverSpec q8spec = q4spec;
  q8spec.elem_type = fem::ElemType::Quad8;
  const auto q4 = fem::make_cantilever(q4spec);
  const auto q8 = fem::make_cantilever(q8spec);

  auto tip_u = [](const fem::CantileverProblem& prob, index_t nx) {
    const Vector x = dense_solve(prob.stiffness, prob.load);
    const auto tip = prob.mesh.nodes_at_x(static_cast<real_t>(nx));
    real_t u = 0.0;
    for (index_t n : tip) u += x[static_cast<std::size_t>(
        prob.dofs.dof(n, 0))];
    return u / static_cast<real_t>(tip.size());
  };
  const real_t u4 = tip_u(q4, q4spec.nx);
  const real_t u8 = tip_u(q8, q8spec.nx);
  EXPECT_GT(u4, 0.0);
  EXPECT_GE(u8, u4 * 0.99);  // Q8 at least as flexible (less locking)
}

TEST(Quad8, MatrixGraphDenserThanQ4) {
  // §5's non-planarity argument: the Q8 system couples more dofs per
  // row than Q4 on the same grid.
  fem::CantileverSpec q4spec;
  q4spec.nx = 6;
  q4spec.ny = 6;
  fem::CantileverSpec q8spec = q4spec;
  q8spec.elem_type = fem::ElemType::Quad8;
  const auto q4 = fem::make_cantilever(q4spec);
  const auto q8 = fem::make_cantilever(q8spec);
  const double q4_density =
      static_cast<double>(q4.stiffness.nnz()) / q4.stiffness.rows();
  const double q8_density =
      static_cast<double>(q8.stiffness.nnz()) / q8.stiffness.rows();
  EXPECT_GT(q8_density, q4_density);
}

TEST(Quad8, EddSolveAcrossPartitions) {
  fem::CantileverSpec spec;
  spec.nx = 6;
  spec.ny = 3;
  spec.elem_type = fem::ElemType::Quad8;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);

  const Vector x_ref = dense_solve(prob.stiffness, prob.load);

  const partition::EddPartition part = exp::make_edd(prob, 4);
  core::PolySpec poly;
  poly.degree = 7;
  core::SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const core::DistSolve res = core::solve_edd(part, prob.load, poly,
                                                    opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale);
}

}  // namespace
}  // namespace pfem
