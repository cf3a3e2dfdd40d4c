// Finite element substrate tests: meshers, element integrals (with the
// classical invariants: symmetry, rigid-body nullspace, mass totals,
// patch test), dof numbering, assembly, and the cantilever factory
// (Table 2 reproduction).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "element_dense.hpp"
#include "fem/assembly.hpp"
#include "fem/ebe.hpp"
#include "fem/elements.hpp"
#include "fem/families.hpp"
#include "fem/problems.hpp"
#include "fem/structured.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"

namespace pfem::fem {
namespace {

const ElemCoords kUnitSquare{0, 0, 1, 0, 1, 1, 0, 1};
const ElemCoords kUnitTri{0, 0, 1, 0, 0, 1};

TEST(StructuredMesh, QuadCountsAndCoords) {
  const Mesh m = structured_quad(3, 2, 6.0, 2.0);
  EXPECT_EQ(m.num_nodes(), 12);
  EXPECT_EQ(m.num_elems(), 6);
  EXPECT_DOUBLE_EQ(m.x(0), 0.0);
  EXPECT_DOUBLE_EQ(m.x(3), 6.0);
  EXPECT_DOUBLE_EQ(m.y(11), 2.0);
  const auto nodes = m.elem_nodes(0);
  EXPECT_EQ(nodes[0], 0);
  EXPECT_EQ(nodes[1], 1);
  EXPECT_EQ(nodes[2], 5);
  EXPECT_EQ(nodes[3], 4);
}

TEST(StructuredMesh, TriSplitsEachCell) {
  const Mesh m = structured_tri(3, 2, 3.0, 2.0);
  EXPECT_EQ(m.num_elems(), 12);
  EXPECT_EQ(nodes_per_elem(m.type()), 3);
  for (index_t e = 0; e < m.num_elems(); ++e)
    EXPECT_GT(tri3_area(element_coords(m, e)), 0.0)
        << "element " << e << " not CCW";
}

TEST(StructuredMesh, EdgeSelectors) {
  const Mesh m = structured_quad(4, 3, 4.0, 3.0);
  EXPECT_EQ(m.nodes_at_x(0.0).size(), 4u);
  EXPECT_EQ(m.nodes_at_x(4.0).size(), 4u);
  EXPECT_EQ(m.nodes_at_y(0.0).size(), 5u);
  const auto bb = m.bounding_box();
  EXPECT_DOUBLE_EQ(bb[1], 4.0);
  EXPECT_DOUBLE_EQ(bb[3], 3.0);
}

TEST(Elements, Quad4StiffnessSymmetric) {
  Material mat;
  const la::DenseMatrix ke = dense_stiffness(ElemType::Quad4, kUnitSquare, mat);
  EXPECT_LT(ke.max_abs_diff(ke.transposed()), 1e-10);
}

TEST(Elements, Quad4StiffnessRigidBodyNullspace) {
  // Translations in x and y and an infinitesimal rotation produce zero
  // force: Ke * u_rigid = 0.
  Material mat;
  const la::DenseMatrix ke = dense_stiffness(ElemType::Quad4, kUnitSquare, mat);
  Vector tx(8, 0.0), ty(8, 0.0), rot(8, 0.0), f(8);
  for (int i = 0; i < 4; ++i) {
    tx[2 * i] = 1.0;
    ty[2 * i + 1] = 1.0;
    // Rotation about origin: u = -y, v = x.
    rot[2 * i] = -kUnitSquare[2 * i + 1];
    rot[2 * i + 1] = kUnitSquare[2 * i];
  }
  for (const Vector& u : {tx, ty, rot}) {
    ke.matvec(u, f);
    EXPECT_LT(la::nrm_inf(f), 1e-9);
  }
}

TEST(Elements, Quad4StiffnessPositiveSemiDefinite) {
  Material mat;
  const la::DenseMatrix ke = dense_stiffness(ElemType::Quad4, kUnitSquare, mat);
  const la::EigRange r = la::symmetric_eig_range(ke);
  EXPECT_GT(r.max, 0.0);
  EXPECT_GT(r.min, -1e-8 * r.max);  // PSD up to roundoff
}

TEST(Elements, Quad4MassTotalEqualsElementMass) {
  Material mat;
  mat.density = 2.5;
  mat.thickness = 0.5;
  const la::DenseMatrix me = dense_mass(ElemType::Quad4, kUnitSquare, mat);
  // Sum over the u-dofs block = rho * t * area.
  double total = 0.0;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) total += me(2 * i, 2 * j);
  EXPECT_NEAR(total, 2.5 * 0.5 * 1.0, 1e-12);
  EXPECT_LT(me.max_abs_diff(me.transposed()), 1e-12);
  const la::EigRange r = la::symmetric_eig_range(me);
  EXPECT_GT(r.min, 0.0);  // consistent mass is SPD
}

TEST(Elements, Tri3StiffnessPropertiesAndArea) {
  Material mat;
  EXPECT_DOUBLE_EQ(tri3_area(kUnitTri), 0.5);
  const la::DenseMatrix ke = dense_stiffness(ElemType::Tri3, kUnitTri, mat);
  EXPECT_LT(ke.max_abs_diff(ke.transposed()), 1e-10);
  Vector tx(6, 0.0), f(6);
  for (int i = 0; i < 3; ++i) tx[2 * i] = 1.0;
  ke.matvec(tx, f);
  EXPECT_LT(la::nrm_inf(f), 1e-10);
}

TEST(Elements, Tri3MassTotal) {
  Material mat;
  mat.density = 3.0;
  const la::DenseMatrix me = dense_mass(ElemType::Tri3, kUnitTri, mat);
  double total = 0.0;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) total += me(2 * i, 2 * j);
  EXPECT_NEAR(total, 3.0 * 0.5, 1e-12);
}

TEST(Elements, DegenerateElementThrows) {
  // Clockwise node order inverts the Jacobian everywhere.
  const ElemCoords inverted{0, 0, 0, 1, 1, 1, 1, 0};
  EXPECT_THROW((void)dense_stiffness(ElemType::Quad4, inverted, Material{}), Error);
  const ElemCoords collinear{0, 0, 1, 0, 2, 0};
  EXPECT_THROW((void)dense_stiffness(ElemType::Tri3, collinear, Material{}), Error);
}

TEST(Elements, PoissonRowSumsZero) {
  // Laplace stiffness annihilates constants.
  const la::DenseMatrix kq = dense_diffusion(ElemType::Quad4, kUnitSquare);
  for (index_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < 4; ++j) s += kq(i, j);
    EXPECT_NEAR(s, 0.0, 1e-12);
  }
  const la::DenseMatrix kt = dense_diffusion(ElemType::Tri3, kUnitTri);
  for (index_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < 3; ++j) s += kt(i, j);
    EXPECT_NEAR(s, 0.0, 1e-12);
  }
}

TEST(Elements, PatchTestConstantStrain) {
  // A linear displacement field u = a*x, v = 0 on a distorted Q4 must
  // produce the constant-strain energy 1/2 eps^T D eps * area exactly
  // (bilinear elements pass the patch test).
  Material mat;
  const ElemCoords xy{0, 0, 1.2, 0.1, 1.1, 0.9, -0.1, 1.0};
  const la::DenseMatrix ke = dense_stiffness(ElemType::Quad4, xy, mat);
  const double a = 0.01;
  Vector u(8, 0.0), f(8);
  for (int i = 0; i < 4; ++i) u[2 * i] = a * xy[2 * i];
  ke.matvec(u, f);
  const double energy = 0.5 * la::dot(u, f);

  // Area by the shoelace formula.
  double area = 0.0;
  for (int i = 0; i < 4; ++i) {
    const int j = (i + 1) % 4;
    area += xy[2 * i] * xy[2 * j + 1] - xy[2 * j] * xy[2 * i + 1];
  }
  area *= 0.5;
  // eps = (a, 0, 0): energy density = 1/2 * D00 * a^2.
  const double d00 = mat.plane_stress_d()(0, 0);
  EXPECT_NEAR(energy, 0.5 * d00 * a * a * area, 1e-10 * std::abs(energy));
}

TEST(DofMap, NumberingSkipsFixed) {
  DofMap dofs(3, 2);
  dofs.fix_node(0);
  dofs.fix(1, 1);
  dofs.finalize();
  EXPECT_EQ(dofs.num_free(), 3);
  EXPECT_EQ(dofs.dof(0, 0), -1);
  EXPECT_EQ(dofs.dof(0, 1), -1);
  EXPECT_EQ(dofs.dof(1, 0), 0);
  EXPECT_EQ(dofs.dof(1, 1), -1);
  EXPECT_EQ(dofs.dof(2, 0), 1);
  EXPECT_EQ(dofs.dof(2, 1), 2);
}

TEST(DofMap, UsageErrors) {
  DofMap dofs(2, 1);
  EXPECT_THROW((void)dofs.dof(0, 0), Error);  // before finalize
  dofs.finalize();
  EXPECT_THROW(dofs.fix(0, 0), Error);        // after finalize
  EXPECT_THROW(dofs.finalize(), Error);       // double finalize
}

TEST(Assembly, GlobalStiffnessSymmetricSpd) {
  const Mesh mesh = structured_quad(4, 3, 4.0, 3.0);
  DofMap dofs(mesh.num_nodes(), 2);
  for (index_t n : mesh.nodes_at_x(0.0)) dofs.fix_node(n);
  dofs.finalize();
  Material mat;
  const sparse::CsrMatrix k = assemble(mesh, dofs, mat,
                                       Operator::Stiffness);
  EXPECT_EQ(k.rows(), dofs.num_free());
  EXPECT_LT(k.symmetry_defect(), 1e-9);
  // SPD after clamping: quadratic form positive for a few random vectors.
  Vector x(static_cast<std::size_t>(k.rows())), kx(x.size());
  for (int trial = 0; trial < 5; ++trial) {
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = std::sin(double(trial + 1) * double(i + 1));
    k.spmv(x, kx);
    EXPECT_GT(la::dot(x, kx), 0.0);
  }
}

TEST(Assembly, SubsetSumsToWhole) {
  // Σ_s B_s^T K̂_loc B_s == K (Eq. 32): assembling two element subsets in
  // global numbering and summing reproduces the full matrix.
  const Mesh mesh = structured_quad(4, 2, 4.0, 2.0);
  DofMap dofs(mesh.num_nodes(), 2);
  for (index_t n : mesh.nodes_at_x(0.0)) dofs.fix_node(n);
  dofs.finalize();
  Material mat;
  const sparse::CsrMatrix k = assemble(mesh, dofs, mat,
                                       Operator::Stiffness);

  IndexVector identity_map(static_cast<std::size_t>(dofs.num_free()));
  std::iota(identity_map.begin(), identity_map.end(), index_t{0});
  IndexVector first, second;
  for (index_t e = 0; e < mesh.num_elems(); ++e)
    (e < mesh.num_elems() / 2 ? first : second).push_back(e);
  const sparse::CsrMatrix k1 = assemble_subset(
      mesh, dofs, mat, Operator::Stiffness, first, identity_map,
      dofs.num_free());
  const sparse::CsrMatrix k2 = assemble_subset(
      mesh, dofs, mat, Operator::Stiffness, second, identity_map,
      dofs.num_free());

  Vector x(static_cast<std::size_t>(k.rows())), y(x.size()), y12(x.size()),
      t(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::cos(0.7 * double(i));
  k.spmv(x, y);
  k1.spmv(x, y12);
  k2.spmv(x, t);
  la::axpy(1.0, t, y12);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], y12[i], 1e-10);
}

// ---- One-pass assembly contract ------------------------------------------
//
// assemble and assemble_subset are build_ebe_store(...).to_csr(): the
// pattern is the connectivity's, and each entry is summed from 0.0 over
// its elements in element order (row slot, then column slot inside an
// element).  The reference spells that rule out with a std::map,
// independent of the store and of CooBuilder, and the comparison is bit
// for bit.

/// Σ_e B_eᵀ K_e B_e over `elems` in the given order, dofs mapped through
/// `map` (-1 drops a dof), each (r, c) accumulated from 0.0.
sparse::CsrMatrix element_order_reference(const Mesh& mesh,
                                          const DofMap& dofs,
                                          const Material& mat, Operator op,
                                          std::span<const index_t> elems,
                                          std::span<const index_t> map,
                                          index_t n) {
  std::map<std::pair<index_t, index_t>, real_t> sum;
  for (const index_t e : elems) {
    const la::DenseMatrix ke = element_matrix(mesh, mat, op, e);
    const IndexVector gd = element_dofs(mesh, dofs, e);
    const auto local = [&](std::size_t k) {
      return gd[k] < 0 ? index_t{-1} : map[static_cast<std::size_t>(gd[k])];
    };
    for (std::size_t r = 0; r < gd.size(); ++r) {
      if (local(r) < 0) continue;
      for (std::size_t c = 0; c < gd.size(); ++c) {
        if (local(c) < 0) continue;
        sum.try_emplace({local(r), local(c)}, 0.0).first->second +=
            ke(as_index(r), as_index(c));
      }
    }
  }
  IndexVector row_ptr(static_cast<std::size_t>(n) + 1, 0);
  IndexVector col_idx;
  Vector values;
  for (const auto& [rc, v] : sum) {  // row-major: the CSR storage order
    ++row_ptr[static_cast<std::size_t>(rc.first) + 1];
    col_idx.push_back(rc.second);
    values.push_back(v);
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r)
    row_ptr[r + 1] += row_ptr[r];
  return sparse::CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                           std::move(values));
}

void expect_same_bits(const sparse::CsrMatrix& got,
                      const sparse::CsrMatrix& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr())) << what;
  ASSERT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx())) << what;
  std::size_t differ = 0;
  for (std::size_t k = 0; k < got.values().size(); ++k)
    if (std::bit_cast<std::uint64_t>(got.values()[k]) !=
        std::bit_cast<std::uint64_t>(want.values()[k]))
      ++differ;
  EXPECT_EQ(differ, 0u) << what << ": " << differ << " of " << got.nnz()
                        << " values differ from the element-order sum";
}

struct AssemblyCase {
  std::string name;
  Mesh mesh;
  DofMap dofs;
  Material mat;
  Operator op;
};

/// Every element type with each operator it defines.  Each case clamps
/// the x = 0 edge and scales a third of the elements by 1e6 (Mass
/// ignores elem_scale); the last case is hetero2d's per-element
/// diffusion tensors on a misaligned checkerboard.
std::vector<AssemblyCase> assembly_cases() {
  struct Shape {
    std::string name;
    Mesh mesh;
    std::vector<Operator> ops;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"Quad4", structured_quad(6, 4, 6.0, 4.0),
                    {Operator::Stiffness, Operator::Mass, Operator::Poisson}});
  shapes.push_back({"Tri3", structured_tri(6, 4, 6.0, 4.0),
                    {Operator::Stiffness, Operator::Mass, Operator::Poisson}});
  shapes.push_back({"Quad8", structured_quad8(4, 3, 4.0, 3.0),
                    {Operator::Stiffness, Operator::Mass}});
  shapes.push_back({"Hex8", structured_hex(3, 2, 2, 3.0, 2.0, 2.0),
                    {Operator::Stiffness, Operator::Mass}});
  const char* op_names[] = {"Stiffness", "Mass", "Poisson"};

  std::vector<AssemblyCase> cases;
  for (const Shape& sh : shapes) {
    auto scale = std::make_shared<std::vector<real_t>>();
    for (index_t e = 0; e < sh.mesh.num_elems(); ++e)
      scale->push_back(e % 3 == 0 ? 1e6 : 1.0);
    for (const Operator op : sh.ops) {
      DofMap dofs(sh.mesh.num_nodes(),
                  op == Operator::Poisson ? 1 : sh.mesh.dim());
      for (index_t n : sh.mesh.nodes_at_x(0.0)) dofs.fix_node(n);
      dofs.finalize();
      Material mat;
      mat.elem_scale = scale;
      cases.push_back({sh.name + "/" + op_names[static_cast<int>(op)],
                       sh.mesh, std::move(dofs), mat, op});
    }
  }
  ProblemSpec spec = default_spec("hetero2d");
  spec.jump = 1e4;
  spec.anisotropy = 10.0;
  spec.angle = 0.5;
  spec.aligned = false;
  spec.checker = 3;
  FamilyProblem fp = make_problem(spec);
  cases.push_back({"hetero2d/Poisson", std::move(fp.prob.mesh),
                   std::move(fp.prob.dofs), fp.prob.material, fp.op});
  return cases;
}

TEST(Assembly, MatchesElementOrderReferenceBitwise) {
  for (const AssemblyCase& c : assembly_cases()) {
    const index_t n = c.dofs.num_free();
    IndexVector all(static_cast<std::size_t>(c.mesh.num_elems()));
    std::iota(all.begin(), all.end(), index_t{0});
    IndexVector identity(static_cast<std::size_t>(n));
    std::iota(identity.begin(), identity.end(), index_t{0});
    expect_same_bits(assemble(c.mesh, c.dofs, c.mat, c.op),
                     element_order_reference(c.mesh, c.dofs, c.mat, c.op,
                                             all, identity, n),
                     c.name);
  }
}

TEST(Assembly, SubsetMatchesReferenceUnderDroppingPermutingMap) {
  // A map that drops every fifth free dof and shuffles the rest, over
  // the elements minus every fourth: the dropped dofs act like fixed
  // ones, and the local numbering decides only where entries land.
  for (const AssemblyCase& c : assembly_cases()) {
    const index_t n = c.dofs.num_free();
    IndexVector order;
    for (index_t g = 0; g < n; ++g)
      if (g % 5 != 2) order.push_back(g);
    Rng rng(7);
    std::shuffle(order.begin(), order.end(), rng.engine());
    IndexVector map(static_cast<std::size_t>(n), -1);
    for (std::size_t l = 0; l < order.size(); ++l)
      map[static_cast<std::size_t>(order[l])] = as_index(l);
    IndexVector elems;
    for (index_t e = 0; e < c.mesh.num_elems(); ++e)
      if (e % 4 != 1) elems.push_back(e);
    const auto n_local = as_index(order.size());
    expect_same_bits(
        assemble_subset(c.mesh, c.dofs, c.mat, c.op, elems, map, n_local),
        element_order_reference(c.mesh, c.dofs, c.mat, c.op, elems, map,
                                n_local),
        c.name);
  }
}

TEST(Assembly, StiffnessAndMassShareThePattern) {
  for (const AssemblyCase& c : assembly_cases()) {
    if (c.op != Operator::Stiffness) continue;
    const sparse::CsrMatrix k = assemble(c.mesh, c.dofs, c.mat, c.op);
    const sparse::CsrMatrix m =
        assemble(c.mesh, c.dofs, c.mat, Operator::Mass);
    EXPECT_TRUE(std::ranges::equal(k.row_ptr(), m.row_ptr())) << c.name;
    EXPECT_TRUE(std::ranges::equal(k.col_idx(), m.col_idx())) << c.name;
  }
}

TEST(Assembly, LoadHelpers) {
  const Mesh mesh = structured_quad(2, 2, 2.0, 2.0);
  DofMap dofs(mesh.num_nodes(), 2);
  for (index_t n : mesh.nodes_at_x(0.0)) dofs.fix_node(n);
  dofs.finalize();
  Vector f(static_cast<std::size_t>(dofs.num_free()), 0.0);
  const IndexVector tip = mesh.nodes_at_x(2.0);
  add_edge_load(dofs, tip, 0, 30.0, f);
  double total = 0.0;
  for (real_t v : f) total += v;
  EXPECT_NEAR(total, 30.0, 1e-12);
  // Fixed dofs silently ignored.
  add_point_load(dofs, 0, 0, 5.0, f);
  double total2 = 0.0;
  for (real_t v : f) total2 += v;
  EXPECT_NEAR(total2, 30.0, 1e-12);
}

TEST(Cantilever, Table2CountsMatchPaper) {
  const auto meshes = table2_meshes();
  ASSERT_EQ(meshes.size(), 10u);
  const index_t expected_nodes[] = {16,   369,  861,  2601,  3721,
                                    5041, 6561, 8281, 10201, 20301};
  const index_t expected_eqn[] = {28,    656,   1640,  5100,  7320,
                                  9940,  12960, 16380, 20200, 40400};
  for (std::size_t i = 0; i < meshes.size(); ++i) {
    EXPECT_EQ(meshes[i].n_nodes, expected_nodes[i]) << meshes[i].name;
    EXPECT_EQ(meshes[i].n_eqn, expected_eqn[i]) << meshes[i].name;
  }
}

TEST(Cantilever, BuiltProblemMatchesTable2) {
  for (int mesh_no : {1, 2, 4}) {
    const CantileverProblem prob = make_table2_cantilever(mesh_no);
    const auto info = table2_meshes()[static_cast<std::size_t>(mesh_no - 1)];
    EXPECT_EQ(prob.mesh.num_nodes(), info.n_nodes) << info.name;
    EXPECT_EQ(prob.dofs.num_free(), info.n_eqn) << info.name;
    EXPECT_EQ(prob.stiffness.rows(), info.n_eqn) << info.name;
  }
}

TEST(Cantilever, TipDisplacesTowardLoad) {
  CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 2;
  const CantileverProblem prob = make_cantilever(spec);
  // Pulling in +x must stretch the beam: solve roughly and check the tip
  // x-displacement is positive.  Use a coarse direct check via energy:
  // f^T u > 0 for the true solution; here verify f is nonzero and K SPD
  // suffices for the solver tests; do a quick Jacobi-ish iteration:
  Vector u(prob.load.size(), 0.0);
  const Vector d = prob.stiffness.diagonal();
  Vector r = prob.load;
  for (int it = 0; it < 500; ++it) {
    for (std::size_t i = 0; i < u.size(); ++i) u[i] += 0.8 * r[i] / d[i];
    prob.stiffness.spmv(u, r);
    for (std::size_t i = 0; i < u.size(); ++i) r[i] = prob.load[i] - r[i];
  }
  const index_t tip_node = prob.mesh.nodes_at_x(
      static_cast<real_t>(spec.nx))[0];
  const index_t tip_dof = prob.dofs.dof(tip_node, 0);
  ASSERT_GE(tip_dof, 0);
  EXPECT_GT(u[static_cast<std::size_t>(tip_dof)], 0.0);
}

TEST(Cantilever, MassAssemblesWithSamePattern) {
  CantileverSpec spec;
  spec.nx = 6;
  spec.ny = 3;
  const CantileverProblem prob = make_cantilever(spec);
  const sparse::CsrMatrix m = prob.assemble_mass();
  EXPECT_EQ(m.rows(), prob.stiffness.rows());
  // Same pattern -> add_same_pattern must succeed.
  sparse::CsrMatrix keff = prob.stiffness;
  EXPECT_NO_THROW(keff.add_same_pattern(m, 4.0));
}

TEST(Ebe, ApplyMatchesAssembledMatrix) {
  for (ElemType t : {ElemType::Quad4, ElemType::Tri3, ElemType::Quad8}) {
    CantileverSpec spec;
    spec.nx = 6;
    spec.ny = 3;
    spec.elem_type = t;
    const CantileverProblem prob = make_cantilever(spec);
    const EbeOperator ebe(prob.mesh, prob.dofs, prob.material,
                          Operator::Stiffness);
    const std::size_t n = prob.load.size();
    Vector x(n), y1(n), y2(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = std::cos(0.23 * double(i));
    prob.stiffness.spmv(x, y1);
    ebe.apply(x, y2);
    const real_t scale = la::nrm_inf(y1) + 1.0;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(y2[i], y1[i], 1e-11 * scale);
  }
}

TEST(Ebe, StoresMoreThanCsrButNeedsNoAssembly) {
  CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 10;
  const CantileverProblem prob = make_cantilever(spec);
  const EbeOperator ebe(prob.mesh, prob.dofs, prob.material,
                        Operator::Stiffness);
  EXPECT_GT(ebe.stored_values(),
            static_cast<std::uint64_t>(prob.stiffness.nnz()));
  EXPECT_LT(ebe.stored_values(),
            3ull * static_cast<std::uint64_t>(prob.stiffness.nnz()));
}

TEST(Cantilever, TriElementVariant) {
  CantileverSpec spec;
  spec.nx = 6;
  spec.ny = 2;
  spec.elem_type = ElemType::Tri3;
  const CantileverProblem prob = make_cantilever(spec);
  EXPECT_EQ(prob.mesh.num_elems(), 2 * 6 * 2);
  EXPECT_LT(prob.stiffness.symmetry_defect(), 1e-9);
}

}  // namespace
}  // namespace pfem::fem
