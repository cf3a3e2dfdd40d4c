// Randomized property tests: distributed kernels vs sequential
// references over random meshes/partitions/vectors, solver correctness
// over random SPD systems, and failure injection in the runtime.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "core/cg.hpp"
#include "core/edd_batch.hpp"
#include "core/edd_solver.hpp"
#include "core/rdd_solver.hpp"
#include "dense_solve.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "partition/edd.hpp"
#include "fem/structured.hpp"
#include "partition/geom.hpp"
#include "sparse/generators.hpp"
#include "sparse/ilu0.hpp"

namespace pfem {
namespace {

/// Random cantilever + random part count driven by the seed.
struct FuzzCase {
  fem::CantileverProblem prob;
  int nparts;
  Rng rng;
};

FuzzCase make_case(std::uint64_t seed) {
  Rng rng(seed);
  fem::CantileverSpec spec;
  spec.nx = rng.uniform_index(3, 14);
  spec.ny = rng.uniform_index(1, 8);
  spec.elem_type = rng.uniform(0, 1) < 0.3 ? fem::ElemType::Tri3
                                           : fem::ElemType::Quad4;
  const int max_parts =
      std::min<int>(8, spec.elem_type == fem::ElemType::Tri3
                           ? 2 * spec.nx * spec.ny
                           : spec.nx * spec.ny);
  const int nparts = static_cast<int>(rng.uniform_index(1, max_parts));
  return FuzzCase{fem::make_cantilever(spec), nparts, std::move(rng)};
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, EddMatvecAgreesWithGlobal) {
  FuzzCase c = make_case(GetParam());
  const partition::EddPartition part = exp::make_edd(c.prob, c.nparts);
  const std::size_t n = static_cast<std::size_t>(part.n_global);
  Vector x(n), y_ref(n);
  for (real_t& v : x) v = c.rng.normal();
  c.prob.stiffness.spmv(x, y_ref);
  std::vector<Vector> y_loc(part.subs.size());
  for (int s = 0; s < part.nparts(); ++s) {
    const Vector xs = partition::edd_scatter(part, s, x);
    y_loc[static_cast<std::size_t>(s)].resize(xs.size());
    part.subs[static_cast<std::size_t>(s)].k_loc.spmv(
        xs, y_loc[static_cast<std::size_t>(s)]);
  }
  const Vector y = partition::edd_gather_local(part, y_loc);
  const real_t scale = la::nrm_inf(y_ref) + 1.0;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(y[i], y_ref[i], 1e-10 * scale);
}

TEST_P(FuzzSeed, EddInnerProductIdentity) {
  // Eq. 33: <x, y> = Σ_s <x̂_loc, ŷ_glob>, with x̂_loc built by the
  // multiplicity splitting.
  FuzzCase c = make_case(GetParam());
  const partition::EddPartition part = exp::make_edd(c.prob, c.nparts);
  const std::size_t n = static_cast<std::size_t>(part.n_global);
  Vector x(n), y(n);
  for (real_t& v : x) v = c.rng.normal();
  for (real_t& v : y) v = c.rng.normal();
  const real_t ref = la::dot(x, y);

  real_t acc = 0.0;
  for (int s = 0; s < part.nparts(); ++s) {
    const auto& sub = part.subs[static_cast<std::size_t>(s)];
    const Vector y_glob = partition::edd_scatter(part, s, y);
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l) {
      const real_t x_loc =
          x[static_cast<std::size_t>(sub.local_to_global[l])] /
          static_cast<real_t>(sub.multiplicity[l]);
      acc += x_loc * y_glob[l];
    }
  }
  EXPECT_NEAR(acc, ref, 1e-9 * (std::abs(ref) + 1.0));
}

TEST_P(FuzzSeed, AllSolversAgreeOnRandomProblem) {
  FuzzCase c = make_case(GetParam());
  core::SolveOptions opts;
  opts.tol = 1e-9;
  opts.max_iters = 50000;
  core::PolySpec poly;
  poly.degree = static_cast<int>(c.rng.uniform_index(1, 10));

  const partition::EddPartition epart = exp::make_edd(c.prob, c.nparts);
  const auto edd = core::solve_edd(epart, c.prob.load, poly, opts);
  ASSERT_TRUE(edd.converged) << "seed " << GetParam();

  const partition::RddPartition rpart = exp::make_rdd(c.prob, c.nparts);
  core::RddOptions rdd_opts;
  rdd_opts.poly = poly;
  const auto rdd = core::solve_rdd(rpart, c.prob.load, rdd_opts, opts);
  ASSERT_TRUE(rdd.converged) << "seed " << GetParam();

  const auto cg = core::solve_edd_cg(epart, c.prob.load, poly, opts);
  ASSERT_TRUE(cg.converged) << "seed " << GetParam();

  const real_t scale = la::nrm_inf(edd.x) + 1e-30;
  for (std::size_t i = 0; i < edd.x.size(); ++i) {
    EXPECT_NEAR(rdd.x[i], edd.x[i], 1e-5 * scale) << "seed " << GetParam();
    EXPECT_NEAR(cg.x[i], edd.x[i], 1e-5 * scale) << "seed " << GetParam();
  }
}

TEST_P(FuzzSeed, FusedBatchMatchesPerRhsSolves) {
  // The loop-fused multi-RHS sweep shares messages and allreduces across
  // the batch, but it runs the FGMRES loop solve_edd runs, on the setup
  // solve_edd runs: each RHS's arithmetic is bit-identical to its own
  // one-shot solve — iterations, restarts, residual history and
  // solution — with and without the deflation coarse space.
  FuzzCase c = make_case(GetParam());
  const partition::EddPartition part = exp::make_edd(c.prob, c.nparts);
  core::PolySpec poly;
  poly.degree = static_cast<int>(c.rng.uniform_index(1, 8));
  core::SolveOptions opts;
  opts.tol = 1e-9;
  opts.max_iters = 50000;

  const std::size_t n = static_cast<std::size_t>(part.n_global);
  std::vector<Vector> rhs(1 + GetParam() % 3);
  rhs[0] = c.prob.load;
  for (std::size_t b = 1; b < rhs.size(); ++b) {
    rhs[b].resize(n);
    for (real_t& v : rhs[b]) v = c.rng.normal();
  }

  par::Team team(part.nparts());
  for (const bool deflate : {false, true}) {
    opts.deflation.enabled = deflate;
    const core::EddOperatorState op = core::build_edd_operator(
        team, part, poly, nullptr, nullptr, opts.kernels, opts.deflation);
    const core::BatchSolveResult batch =
        core::solve_edd_batch(team, part, op, rhs, opts);
    ASSERT_FALSE(batch.comm_failed()) << batch.comm_error;
    ASSERT_EQ(batch.items.size(), rhs.size());

    for (std::size_t b = 0; b < rhs.size(); ++b) {
      const auto single = core::solve_edd(part, rhs[b], poly, opts);
      const auto& item = batch.items[b];
      const std::string where = "seed " + std::to_string(GetParam()) +
                                " rhs " + std::to_string(b) +
                                (deflate ? " deflated" : "");
      ASSERT_EQ(item.converged, single.converged) << where;
      ASSERT_EQ(item.iterations, single.iterations) << where;
      ASSERT_EQ(item.restarts, single.restarts) << where;
      ASSERT_EQ(item.breakdown, single.breakdown) << where;
      ASSERT_EQ(item.final_relres, single.final_relres) << where;
      ASSERT_EQ(item.history, single.history) << where;
      ASSERT_EQ(batch.x[b], single.x) << where;
    }
  }
}

TEST_P(FuzzSeed, RandomSpdSystemsThroughSequentialSolvers) {
  Rng rng(GetParam() * 977 + 3);
  const index_t n = rng.uniform_index(10, 80);
  const sparse::CsrMatrix k =
      sparse::random_spd(n, rng.uniform_index(2, 6), 0.15, GetParam());
  Vector b(static_cast<std::size_t>(n));
  for (real_t& v : b) v = rng.normal();

  const Vector x_ref = dense_solve(k, b);

  // One process: solve_rdd on a one-part partition, GLS(5).
  core::RddOptions gls;
  gls.poly.degree = 5;
  core::SolveOptions opts;
  opts.tol = 1e-11;
  opts.max_iters = 20000;
  const core::DistSolve res = core::solve_rdd(
      partition::build_rdd_partition(k, IndexVector(b.size(), 0), 1), b, gls,
      opts);
  ASSERT_TRUE(res.converged);
  const Vector& u1 = res.x;

  const real_t scale = la::nrm_inf(x_ref) + 1e-30;
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(u1[i], x_ref[i], 1e-6 * scale);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(FailureInjection, RankFailureDuringSolveUnwindsCleanly) {
  // Kill one rank mid-collective repeatedly; the team must never
  // deadlock and the error must surface.
  for (int victim = 0; victim < 3; ++victim) {
    EXPECT_THROW(
        par::run_spmd(3,
                      [victim](par::Comm& comm) {
                        for (int it = 0;; ++it) {
                          if (comm.rank() == victim && it == 5)
                            throw Error("injected failure");
                          (void)comm.allreduce_sum(1.0);
                        }
                      }),
        Error);
  }
}

TEST(FailureInjection, SingularLocalMatrixSurfacesFromRank) {
  // A floating one-element "subdomain" matrix makes the distributed
  // scaling/ILU path throw inside a rank; the driver must rethrow.
  fem::Mesh mesh = fem::structured_quad(1, 1, 1.0, 1.0);
  fem::DofMap dofs(mesh.num_nodes(), 2);
  dofs.finalize();
  fem::Material mat;
  const sparse::CsrMatrix k =
      fem::assemble(mesh, dofs, mat, fem::Operator::Stiffness);
  EXPECT_THROW(par::run_spmd(2,
                             [&](par::Comm& comm) {
                               if (comm.rank() == 1) {
                                 sparse::Ilu0 ilu(k, 1e-8);
                               }
                               comm.barrier();
                             }),
               Error);
}

}  // namespace
}  // namespace pfem
