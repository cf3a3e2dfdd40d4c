// Partitioning tests: geometric partitioners, EDD subdomain construction
// (Eq. 27–32 identities), and RDD block-row splitting (Fig. 6/7).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "exp/experiments.hpp"
#include "fem/families.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "partition/edd.hpp"
#include "partition/geom.hpp"
#include "partition/rdd.hpp"

namespace pfem::partition {
namespace {

std::vector<Point> grid_points(int nx, int ny) {
  std::vector<Point> pts;
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      pts.emplace_back(static_cast<real_t>(i), static_cast<real_t>(j));
  return pts;
}

TEST(Geom, StripsAreBalancedAndContiguous) {
  const auto pts = grid_points(8, 4);
  const IndexVector part = partition_strips(pts, 4, true);
  const IndexVector sizes = part_sizes(part, 4);
  for (index_t s : sizes) EXPECT_EQ(s, 8);
  // Items sorted by x must have non-decreasing part ids.
  for (std::size_t k = 0; k < pts.size(); ++k)
    for (std::size_t l = 0; l < pts.size(); ++l)
      if (pts[k].first < pts[l].first) {
        EXPECT_LE(part[k], part[l]);
      }
}

TEST(Geom, RcbBalanced) {
  const auto pts = grid_points(10, 6);
  for (int p : {2, 3, 4, 5, 8}) {
    const IndexVector part = partition_rcb(pts, p);
    const IndexVector sizes = part_sizes(part, p);
    const index_t lo = *std::min_element(sizes.begin(), sizes.end());
    const index_t hi = *std::max_element(sizes.begin(), sizes.end());
    EXPECT_LE(hi - lo, 2) << "p=" << p;
    index_t total = std::accumulate(sizes.begin(), sizes.end(), index_t{0});
    EXPECT_EQ(total, as_index(pts.size()));
  }
}

TEST(Geom, Rcb3BalancedOnCube) {
  std::vector<Point3> pts;
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i)
        pts.push_back({real_t(i), real_t(j), real_t(k)});
  for (int p : {2, 4, 8}) {
    const IndexVector part = partition_rcb3(pts, p);
    const IndexVector sizes = part_sizes(part, p);
    for (index_t s : sizes) EXPECT_EQ(s, 64 / p) << "p=" << p;
  }
  // 8 parts on a cube must split in all three axes: each octant's
  // points share a part, and parts differ across octants.
  const IndexVector part8 = partition_rcb3(pts, 8);
  auto at = [&](int i, int j, int k) {
    return part8[static_cast<std::size_t>((k * 4 + j) * 4 + i)];
  };
  EXPECT_NE(at(0, 0, 0), at(3, 0, 0));
  EXPECT_NE(at(0, 0, 0), at(0, 3, 0));
  EXPECT_NE(at(0, 0, 0), at(0, 0, 3));
}

TEST(Geom, SinglePartTrivial) {
  const auto pts = grid_points(3, 3);
  const IndexVector part = partition_rcb(pts, 1);
  for (index_t p : part) EXPECT_EQ(p, 0);
}

class EddPartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(EddPartitionTest, LocalMatricesSumToGlobal) {
  // Σ_s B_s^T K̂_loc^(s) B_s == K (Eq. 32): apply both to random vectors.
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const EddPartition part = exp::make_edd(prob, nparts);
  ASSERT_EQ(part.nparts(), nparts);

  const std::size_t n = static_cast<std::size_t>(part.n_global);
  Vector x(n), y_ref(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.13 * double(i) + 1);
  prob.stiffness.spmv(x, y_ref);

  // Distributed: scatter x (global fmt), local SpMV, gather local fmt.
  std::vector<Vector> y_loc(static_cast<std::size_t>(nparts));
  for (int s = 0; s < nparts; ++s) {
    const Vector xs = edd_scatter(part, s, x);
    y_loc[static_cast<std::size_t>(s)].resize(xs.size());
    part.subs[static_cast<std::size_t>(s)].k_loc.spmv(
        xs, y_loc[static_cast<std::size_t>(s)]);
  }
  const Vector y = edd_gather_local(part, y_loc);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-9);
}

TEST_P(EddPartitionTest, ElementsCoverDisjointly) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const EddPartition part = exp::make_edd(prob, nparts);
  std::set<index_t> seen;
  for (const EddSubdomain& sub : part.subs)
    for (index_t e : sub.elems) EXPECT_TRUE(seen.insert(e).second);
  EXPECT_EQ(as_index(seen.size()), prob.mesh.num_elems());
}

TEST_P(EddPartitionTest, NeighborListsAreMutualAndAligned) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const EddPartition part = exp::make_edd(prob, nparts);
  for (int s = 0; s < nparts; ++s) {
    const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
    for (const auto& nb : sub.neighbors) {
      const EddSubdomain& other = part.subs[static_cast<std::size_t>(nb.rank)];
      const auto it = std::find_if(
          other.neighbors.begin(), other.neighbors.end(),
          [&](const auto& onb) { return onb.rank == s; });
      ASSERT_NE(it, other.neighbors.end());
      ASSERT_EQ(it->shared_local_dofs.size(), nb.shared_local_dofs.size());
      // Both orderings refer to the same ascending global dofs.
      for (std::size_t k = 0; k < nb.shared_local_dofs.size(); ++k) {
        const index_t g_here =
            sub.local_to_global[static_cast<std::size_t>(
                nb.shared_local_dofs[k])];
        const index_t g_there =
            other.local_to_global[static_cast<std::size_t>(
                it->shared_local_dofs[k])];
        EXPECT_EQ(g_here, g_there);
      }
    }
  }
}

TEST_P(EddPartitionTest, MultiplicityCountsTouchingSubdomains) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const EddPartition part = exp::make_edd(prob, nparts);
  Vector count(static_cast<std::size_t>(part.n_global), 0.0);
  for (const EddSubdomain& sub : part.subs)
    for (index_t g : sub.local_to_global)
      count[static_cast<std::size_t>(g)] += 1.0;
  for (const EddSubdomain& sub : part.subs)
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
      EXPECT_DOUBLE_EQ(
          static_cast<double>(sub.multiplicity[l]),
          count[static_cast<std::size_t>(sub.local_to_global[l])]);
}

TEST_P(EddPartitionTest, ScatterGatherRoundTrip) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const EddPartition part = exp::make_edd(prob, nparts);
  const std::size_t n = static_cast<std::size_t>(part.n_global);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = 0.5 + double(i % 7);
  std::vector<Vector> copies;
  for (int s = 0; s < nparts; ++s) copies.push_back(edd_scatter(part, s, x));
  const Vector back = edd_gather_global(part, copies);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(back[i], x[i]);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, EddPartitionTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

class RddPartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(RddPartitionTest, LocalPlusExternalReproducesMatvec) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const RddPartition part = exp::make_rdd(prob, nparts);
  const std::size_t n = static_cast<std::size_t>(part.n_global);

  Vector x(n), y_ref(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::cos(0.31 * double(i));
  prob.stiffness.spmv(x, y_ref);

  std::vector<Vector> y_loc(static_cast<std::size_t>(nparts));
  for (int s = 0; s < nparts; ++s) {
    const RddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
    const Vector xs = rdd_scatter(part, s, x);
    Vector x_ext(std::max<std::size_t>(1, static_cast<std::size_t>(sub.n_ext())),
                 0.0);
    for (std::size_t k = 0; k < sub.ext_global.size(); ++k)
      x_ext[k] = x[static_cast<std::size_t>(sub.ext_global[k])];
    Vector& ys = y_loc[static_cast<std::size_t>(s)];
    ys.resize(xs.size());
    sub.a_loc.spmv(xs, ys);
    if (sub.n_ext() > 0) sub.a_ext.spmv_add(x_ext, ys);
  }
  const Vector y = rdd_gather(part, y_loc);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-10);
}

TEST_P(RddPartitionTest, RowsCoverDisjointly) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const RddPartition part = exp::make_rdd(prob, nparts);
  std::set<index_t> seen;
  for (const RddSubdomain& sub : part.subs)
    for (index_t g : sub.rows) EXPECT_TRUE(seen.insert(g).second);
  EXPECT_EQ(as_index(seen.size()), part.n_global);
}

TEST_P(RddPartitionTest, CommScheduleConsistent) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const RddPartition part = exp::make_rdd(prob, nparts);
  for (int s = 0; s < nparts; ++s) {
    const RddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
    for (const auto& nb : sub.neighbors) {
      const RddSubdomain& other =
          part.subs[static_cast<std::size_t>(nb.rank)];
      const auto it = std::find_if(
          other.neighbors.begin(), other.neighbors.end(),
          [&](const auto& onb) { return onb.rank == s; });
      if (!nb.recv_ext_positions.empty()) {
        ASSERT_NE(it, other.neighbors.end());
        // What s expects from nb.rank must be what nb.rank sends.
        ASSERT_EQ(it->send_local_rows.size(), nb.recv_ext_positions.size());
        for (std::size_t k = 0; k < nb.recv_ext_positions.size(); ++k) {
          const index_t g_recv = sub.ext_global[static_cast<std::size_t>(
              nb.recv_ext_positions[k])];
          const index_t g_send = other.rows[static_cast<std::size_t>(
              it->send_local_rows[k])];
          EXPECT_EQ(g_recv, g_send);
        }
      }
    }
  }
}

TEST_P(RddPartitionTest, InteriorBoundarySplitCounts) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const RddPartition part = exp::make_rdd(prob, nparts);
  for (const RddSubdomain& sub : part.subs) {
    EXPECT_EQ(sub.n_interior + sub.n_boundary, sub.n_local());
    if (nparts == 1) {
      EXPECT_EQ(sub.n_boundary, 0);
      EXPECT_EQ(sub.n_ext(), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, RddPartitionTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

// ---- EDD setup contract ----------------------------------------------------
//
// build_edd_partition evaluates each element once per part: the part's
// element store is kept as elem_store and summed into k_loc, and the
// dof -> parts incidence lives in flat arrays.  These tests pin the
// result against independent references: assemble_edd_local for k_loc,
// element_matrix for the store, and a std::set brute force for the maps.

struct SetupCase {
  std::string name;
  std::string family;
  index_t nx;
  index_t ny;
  int nparts;
};

void PrintTo(const SetupCase& c, std::ostream* os) { *os << c.name; }

class EddSetupTest : public ::testing::TestWithParam<SetupCase> {
 protected:
  void SetUp() override {
    const SetupCase& c = GetParam();
    fem::ProblemSpec spec = fem::default_spec(c.family);
    if (c.nx > 0) spec.nx = c.nx;
    if (c.ny > 0) spec.ny = c.ny;
    fp_.emplace(fem::make_problem(spec));
    part_ = exp::make_edd(*fp_, c.nparts);
    ASSERT_EQ(part_.nparts(), c.nparts);
  }

  std::optional<fem::FamilyProblem> fp_;
  EddPartition part_;
};

TEST_P(EddSetupTest, KLocEqualsAssembleEddLocalBitwise) {
  for (int s = 0; s < part_.nparts(); ++s) {
    const sparse::CsrMatrix& got = part_.subs[static_cast<std::size_t>(s)].k_loc;
    const sparse::CsrMatrix want = assemble_edd_local(
        fp_->prob.mesh, fp_->prob.dofs, fp_->prob.material, fp_->op, part_, s);
    ASSERT_EQ(got.rows(), want.rows()) << "part " << s;
    EXPECT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()));
    EXPECT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx()));
    EXPECT_TRUE(std::ranges::equal(
        got.values(), want.values(), [](real_t a, real_t b) {
          return std::bit_cast<std::uint64_t>(a) ==
                 std::bit_cast<std::uint64_t>(b);
        }))
        << "part " << s;
  }
}

TEST_P(EddSetupTest, ElemStoreHoldsEachElementMatrixInElemsOrder) {
  const fem::Mesh& mesh = fp_->prob.mesh;
  for (const EddSubdomain& sub : part_.subs) {
    ASSERT_NE(sub.elem_store, nullptr);
    const sparse::EbeStore& store = *sub.elem_store;
    ASSERT_EQ(store.rows(), sub.n_local());
    ASSERT_EQ(store.num_elems(), as_index(sub.elems.size()));
    IndexVector g2l(static_cast<std::size_t>(part_.n_global), -1);
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
      g2l[static_cast<std::size_t>(sub.local_to_global[l])] = as_index(l);
    const auto ed = static_cast<std::size_t>(store.edofs());
    for (std::size_t i = 0; i < sub.elems.size(); ++i) {
      const index_t e = sub.elems[i];
      IndexVector want_ids;
      for (const index_t g : fem::element_dofs(mesh, fp_->prob.dofs, e))
        want_ids.push_back(g < 0 ? index_t{-1}
                                 : g2l[static_cast<std::size_t>(g)]);
      EXPECT_TRUE(std::ranges::equal(store.elem_dofs(as_index(i)), want_ids))
          << "element " << e;
      const la::DenseMatrix ke =
          fem::element_matrix(mesh, fp_->prob.material, fp_->op, e);
      const auto got = store.values().subspan(i * ed * ed, ed * ed);
      EXPECT_TRUE(std::ranges::equal(
          got, ke.data(), [](real_t a, real_t b) {
            return std::bit_cast<std::uint64_t>(a) ==
                   std::bit_cast<std::uint64_t>(b);
          }))
          << "element " << e;
    }
  }
}

TEST_P(EddSetupTest, DofMapsMatchBruteForceSetReference) {
  const auto ng = static_cast<std::size_t>(part_.n_global);
  std::vector<std::set<int>> touching(ng);
  for (int s = 0; s < part_.nparts(); ++s)
    for (const index_t e : part_.subs[static_cast<std::size_t>(s)].elems)
      for (const index_t g :
           fem::element_dofs(fp_->prob.mesh, fp_->prob.dofs, e))
        if (g >= 0) touching[static_cast<std::size_t>(g)].insert(s);

  for (int s = 0; s < part_.nparts(); ++s) {
    const EddSubdomain& sub = part_.subs[static_cast<std::size_t>(s)];
    IndexVector l2g, mult, iface;
    for (std::size_t g = 0; g < ng; ++g)
      if (touching[g].count(s) != 0) {
        if (touching[g].size() > 1) iface.push_back(as_index(l2g.size()));
        l2g.push_back(as_index(g));
        mult.push_back(as_index(touching[g].size()));
      }
    EXPECT_EQ(sub.local_to_global, l2g) << "part " << s;
    EXPECT_EQ(sub.multiplicity, mult) << "part " << s;
    EXPECT_EQ(sub.interface_local_dofs, iface) << "part " << s;

    std::vector<std::pair<int, IndexVector>> want;
    for (int t = 0; t < part_.nparts(); ++t) {
      if (t == s) continue;
      IndexVector shared;
      for (std::size_t l = 0; l < l2g.size(); ++l)
        if (touching[static_cast<std::size_t>(l2g[l])].count(t) != 0)
          shared.push_back(as_index(l));
      if (!shared.empty()) want.emplace_back(t, std::move(shared));
    }
    ASSERT_EQ(sub.neighbors.size(), want.size()) << "part " << s;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(sub.neighbors[k].rank, want[k].first) << "part " << s;
      EXPECT_EQ(sub.neighbors[k].shared_local_dofs, want[k].second)
          << "part " << s << " neighbor " << want[k].first;
    }
  }
}

std::vector<SetupCase> setup_cases() {
  std::vector<SetupCase> cases;
  for (const int p : {1, 2, 3, 4, 8}) {
    cases.push_back({"cantilever2d_8x4_P" + std::to_string(p),
                     "cantilever2d", 8, 4, p});
    cases.push_back({"brick3d_P" + std::to_string(p), "brick3d", 0, 0, p});
  }
  // Two elements over four parts: two parts own no element at all.
  cases.push_back({"cantilever2d_2x1_P4", "cantilever2d", 2, 1, 4});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, EddSetupTest, ::testing::ValuesIn(setup_cases()),
    [](const ::testing::TestParamInfo<SetupCase>& info) {
      return info.param.name;
    });

TEST(EddSetup, TwoElementsOverFourPartsLeavesEmptyParts) {
  fem::ProblemSpec spec = fem::default_spec("cantilever2d");
  spec.nx = 2;
  spec.ny = 1;
  const fem::FamilyProblem fp = fem::make_problem(spec);
  const EddPartition part = exp::make_edd(fp, 4);
  int empty = 0;
  for (const EddSubdomain& sub : part.subs)
    if (sub.elems.empty()) {
      ++empty;
      EXPECT_EQ(sub.n_local(), 0);
      EXPECT_EQ(sub.k_loc.rows(), 0);
      EXPECT_TRUE(sub.neighbors.empty());
      ASSERT_NE(sub.elem_store, nullptr);
      EXPECT_EQ(sub.elem_store->num_elems(), 0);
    }
  EXPECT_EQ(empty, 2);
}

TEST(EddStats, InterfaceGrowsWithParts) {
  fem::CantileverSpec spec;
  spec.nx = 16;
  spec.ny = 8;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const EddPartition p2 = exp::make_edd(prob, 2);
  const EddPartition p8 = exp::make_edd(prob, 8);
  EXPECT_GT(p8.total_interface_dofs(), p2.total_interface_dofs());
  EXPECT_GE(p8.max_neighbors(), p2.max_neighbors());
  EXPECT_EQ(exp::make_edd(prob, 1).total_interface_dofs(), 0);
}

TEST(NodePartToDofPart, InheritsNodeAssignment) {
  fem::CantileverSpec spec;
  spec.nx = 4;
  spec.ny = 2;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  IndexVector node_part(static_cast<std::size_t>(prob.mesh.num_nodes()), 0);
  for (index_t n = 0; n < prob.mesh.num_nodes(); ++n)
    node_part[static_cast<std::size_t>(n)] = n % 2;
  const IndexVector dof_part =
      node_part_to_dof_part(prob.dofs, node_part);
  for (index_t n = 0; n < prob.mesh.num_nodes(); ++n)
    for (index_t c = 0; c < 2; ++c) {
      const index_t d = prob.dofs.dof(n, c);
      if (d >= 0) {
        EXPECT_EQ(dof_part[static_cast<std::size_t>(d)],
                  node_part[static_cast<std::size_t>(n)]);
      }
    }
}

}  // namespace
}  // namespace pfem::partition
