// Tests for RCM reordering, the restricted additive Schwarz RDD
// preconditioner, and Rayleigh-damped Newmark.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/rdd_solver.hpp"
#include "dense_solve.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/rcm.hpp"
#include "timeint/newmark.hpp"

namespace pfem {
namespace {

TEST(Rcm, OrderingIsPermutation) {
  const sparse::CsrMatrix a = sparse::laplace2d(9, 7);
  const IndexVector order = sparse::rcm_ordering(a);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(a.rows()));
  IndexVector sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (index_t i = 0; i < a.rows(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rcm, ReducesBandwidthOfShuffledLaplacian) {
  // Shuffle a banded matrix, then RCM must restore a narrow band.
  const sparse::CsrMatrix a = sparse::laplace2d(20, 5);
  IndexVector shuffle(static_cast<std::size_t>(a.rows()));
  std::iota(shuffle.begin(), shuffle.end(), index_t{0});
  // Deterministic shuffle: stride permutation.
  IndexVector scattered(shuffle.size());
  const index_t n = a.rows();
  for (index_t i = 0; i < n; ++i)
    scattered[static_cast<std::size_t>(i)] = (i * 37) % n;
  const sparse::CsrMatrix mixed = sparse::permute_symmetric(a, scattered);
  EXPECT_GT(sparse::bandwidth(mixed), sparse::bandwidth(a));

  const IndexVector order = sparse::rcm_ordering(mixed);
  const sparse::CsrMatrix restored = sparse::permute_symmetric(mixed, order);
  EXPECT_LE(sparse::bandwidth(restored), sparse::bandwidth(mixed) / 2);
  EXPECT_LE(sparse::bandwidth(restored), 2 * sparse::bandwidth(a));
}

TEST(Rcm, PermutedSolveMatchesOriginal) {
  const sparse::CsrMatrix a = sparse::random_spd(40, 4, 0.2, 9);
  Vector b(40);
  for (std::size_t i = 0; i < 40; ++i) b[i] = std::sin(double(i));
  const IndexVector order = sparse::rcm_ordering(a);
  const sparse::CsrMatrix p = sparse::permute_symmetric(a, order);

  Vector bp(40);
  for (index_t k = 0; k < 40; ++k)
    bp[static_cast<std::size_t>(k)] =
        b[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])];
  // One-process ILU(0)-FGMRES on each ordering: solve_rdd at P = 1.
  core::RddOptions ilu;
  ilu.precond = core::RddOptions::Precond::BlockJacobiIlu;
  core::SolveOptions opts;
  opts.tol = 1e-11;
  const IndexVector one_part(40, 0);
  const core::DistSolve rx =
      core::solve_rdd(partition::build_rdd_partition(a, one_part, 1), b, ilu,
                      opts);
  const core::DistSolve rxp =
      core::solve_rdd(partition::build_rdd_partition(p, one_part, 1), bp,
                      ilu, opts);
  ASSERT_TRUE(rx.converged);
  ASSERT_TRUE(rxp.converged);
  const Vector& x = rx.x;
  const Vector& xp = rxp.x;
  for (index_t k = 0; k < 40; ++k)
    EXPECT_NEAR(xp[static_cast<std::size_t>(k)],
                x[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])],
                1e-7);
}

TEST(Rcm, HandlesDisconnectedGraph) {
  // Block-diagonal: two disconnected Laplacians.
  sparse::CooBuilder coo(8, 8);
  for (index_t i = 0; i < 4; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) {
      coo.add(i, i - 1, -1.0);
      coo.add(i - 1, i, -1.0);
    }
  }
  for (index_t i = 4; i < 8; ++i) {
    coo.add(i, i, 2.0);
    if (i > 4) {
      coo.add(i, i - 1, -1.0);
      coo.add(i - 1, i, -1.0);
    }
  }
  const sparse::CsrMatrix a = coo.build();
  const IndexVector order = sparse::rcm_ordering(a);
  IndexVector sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (index_t i = 0; i < 8; ++i) EXPECT_EQ(sorted[i], i);
}

class SchwarzTest : public ::testing::TestWithParam<int> {};

TEST_P(SchwarzTest, MatchesSequentialSolution) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);

  const Vector x_ref = dense_solve(prob.stiffness, prob.load);

  const partition::RddPartition part = exp::make_rdd(prob, nparts);
  core::RddOptions rdd;
  rdd.precond = core::RddOptions::Precond::AdditiveSchwarz;
  core::SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const core::DistSolve res = core::solve_rdd(part, prob.load, rdd,
                                                    opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, SchwarzTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(Schwarz, BeatsBlockJacobiIterations) {
  // The overlap couples subdomains: RAS should converge in no more
  // iterations than non-overlapping block Jacobi.
  fem::CantileverSpec spec;
  spec.nx = 16;
  spec.ny = 8;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  core::SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 50000;
  core::RddOptions bj;
  bj.precond = core::RddOptions::Precond::BlockJacobiIlu;
  core::RddOptions ras;
  ras.precond = core::RddOptions::Precond::AdditiveSchwarz;
  const auto r_bj = core::solve_rdd(part, prob.load, bj, opts);
  const auto r_ras = core::solve_rdd(part, prob.load, ras, opts);
  ASSERT_TRUE(r_bj.converged && r_ras.converged);
  EXPECT_LE(r_ras.iterations, r_bj.iterations);
}

TEST(Schwarz, OneExchangePerApply) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  core::RddOptions ras;
  ras.precond = core::RddOptions::Precond::AdditiveSchwarz;
  core::SolveOptions opts;
  opts.tol = 1e-300;
  opts.max_iters = 3;
  const auto a = core::solve_rdd(part, prob.load, ras, opts);
  opts.max_iters = 4;
  const auto b = core::solve_rdd(part, prob.load, ras, opts);
  const par::PerfCounters d =
      b.rank_counters[0].delta_since(a.rank_counters[0]);
  EXPECT_EQ(d.neighbor_exchanges, 2u);  // 1 precondition + 1 mat-vec
  EXPECT_EQ(d.matvecs, 1u);
}

TEST(Damping, RayleighDampedVibrationDecays) {
  // SDOF with Rayleigh damping: the free-vibration amplitude decays.
  sparse::CooBuilder km(1, 1), mm(1, 1);
  km.add(0, 0, 50.0);
  mm.add(0, 0, 2.0);
  const sparse::CsrMatrix k = km.build();
  const sparse::CsrMatrix m = mm.build();
  timeint::NewmarkOptions opts;
  opts.dt = 0.002;
  opts.rayleigh_alpha = 0.4;  // mass-proportional damping
  const timeint::Newmark nm(k, m, opts);

  Vector u{0.3}, v{0.0}, a{-50.0 * 0.3 / 2.0};
  Vector f{0.0};
  real_t peak = 0.0;
  for (int s = 0; s < 4000; ++s) {
    const Vector rhs = nm.effective_rhs(u, v, a, f);
    Vector u_new{rhs[0] / nm.k_eff().at(0, 0)};
    nm.advance(u_new, u, v, a);
    if (s > 3000) peak = std::max(peak, std::abs(u[0]));
  }
  EXPECT_LT(peak, 0.15);  // visibly damped from the initial 0.3

  // Undamped reference keeps its amplitude.
  timeint::NewmarkOptions undamped;
  undamped.dt = 0.002;
  const timeint::Newmark nm0(k, m, undamped);
  Vector u0{0.3}, v0{0.0}, a0{-50.0 * 0.3 / 2.0};
  real_t peak0 = 0.0;
  for (int s = 0; s < 4000; ++s) {
    const Vector rhs = nm0.effective_rhs(u0, v0, a0, f);
    Vector u_new{rhs[0] / nm0.k_eff().at(0, 0)};
    nm0.advance(u_new, u0, v0, a0);
    if (s > 3000) peak0 = std::max(peak0, std::abs(u0[0]));
  }
  EXPECT_GT(peak0, 0.29);
}

TEST(Damping, EffectiveStiffnessGainsDampingTerm) {
  sparse::CooBuilder km(1, 1), mm(1, 1);
  km.add(0, 0, 10.0);
  mm.add(0, 0, 2.0);
  const sparse::CsrMatrix k = km.build();
  const sparse::CsrMatrix m = mm.build();
  timeint::NewmarkOptions opts;
  opts.dt = 0.1;
  opts.rayleigh_alpha = 0.5;
  opts.rayleigh_beta = 0.01;
  const timeint::Newmark nm(k, m, opts);
  // a0 = 400, a1 = 20; C = 0.5*2 + 0.01*10 = 1.1.
  EXPECT_NEAR(nm.k_eff().at(0, 0), 10.0 + 400.0 * 2.0 + 20.0 * 1.1, 1e-10);
}

TEST(Damping, DampedStepLoadSettlesToStaticSolution) {
  // With damping, a constant load drives u to f/k without sustained
  // oscillation — the tail must sit near the static value.
  sparse::CooBuilder km(1, 1), mm(1, 1);
  km.add(0, 0, 40.0);
  mm.add(0, 0, 1.0);
  const sparse::CsrMatrix k = km.build();
  const sparse::CsrMatrix m = mm.build();
  timeint::NewmarkOptions opts;
  opts.dt = 0.01;
  opts.rayleigh_alpha = 3.0;
  const timeint::Newmark nm(k, m, opts);
  Vector u{0.0}, v{0.0}, a{8.0};
  Vector f{8.0};
  for (int s = 0; s < 4000; ++s) {
    const Vector rhs = nm.effective_rhs(u, v, a, f);
    Vector u_new{rhs[0] / nm.k_eff().at(0, 0)};
    nm.advance(u_new, u, v, a);
  }
  EXPECT_NEAR(u[0], 8.0 / 40.0, 1e-3);
}

}  // namespace
}  // namespace pfem
