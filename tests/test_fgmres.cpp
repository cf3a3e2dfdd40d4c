// One-process FGMRES tests (Algorithm 1): solve_rdd on a one-part
// partition — norm-1 scaling, then the one FGMRES driver — checked for
// correctness against dense LU solves, restart behaviour and the
// preconditioners' effectiveness ordering.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rdd_solver.hpp"
#include "dense_solve.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "sparse/generators.hpp"

namespace pfem::core {
namespace {

/// solve_rdd at P = 1: the one-process solve.
DistSolve solve_p1(const sparse::CsrMatrix& a, std::span<const real_t> b,
                   const RddOptions& rdd, const SolveOptions& opts = {}) {
  return solve_rdd(partition::build_rdd_partition(
                       a, IndexVector(b.size(), 0), 1),
                   b, rdd, opts);
}

RddOptions poly(PolyKind kind, int degree = 7) {
  RddOptions rdd;
  rdd.poly.kind = kind;
  rdd.poly.degree = degree;
  return rdd;
}

RddOptions ilu0() {
  RddOptions rdd;
  rdd.precond = RddOptions::Precond::BlockJacobiIlu;
  return rdd;
}

real_t true_relres(const sparse::CsrMatrix& a, const Vector& x,
                   const Vector& b) {
  Vector r(b.size());
  a.spmv(x, r);
  la::axpy(-1.0, b, r);
  return la::nrm2(r) / la::nrm2(b);
}

TEST(Fgmres, SolvesSmallSpdToTolerance) {
  const sparse::CsrMatrix a = sparse::tridiag(20, 3.0, -1.0);
  Vector b(20);
  for (std::size_t i = 0; i < 20; ++i) b[i] = std::sin(double(i));
  const Vector x_ref = dense_solve(a, b);

  SolveOptions opts;
  opts.tol = 1e-10;
  const DistSolve res = solve_p1(a, b, poly(PolyKind::None), opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.final_relres, 1e-10);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(res.x[i], x_ref[i], 1e-8);
}

TEST(Fgmres, AgreesWithDenseLuOnUnsymmetricSystem) {
  // An unsymmetric operator on one process: an upwind
  // convection-diffusion matrix (strong convection), norm-1 scaled and
  // otherwise unpreconditioned, against a dense LU solve.
  const sparse::CsrMatrix a =
      sparse::convection_diffusion_2d(12, 12, 8.0, 8.0);
  ASSERT_GT(a.symmetry_defect(), 1.0);
  const Vector b(144, 1.0);
  const Vector x_ref = dense_solve(a, b);
  SolveOptions opts;
  opts.tol = 1e-9;
  opts.max_iters = 10000;
  const DistSolve res = solve_p1(a, b, poly(PolyKind::None), opts);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.final_relres, opts.tol);
  const real_t scale = la::nrm_inf(x_ref) + 1e-30;
  for (std::size_t i = 0; i < 144; ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

TEST(Fgmres, ZeroRhsConvergesImmediately) {
  const sparse::CsrMatrix a = sparse::tridiag(10, 2.0, -1.0);
  const Vector b(10, 0.0);
  const DistSolve res = solve_p1(a, b, poly(PolyKind::None));
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.trivial_rhs);
  EXPECT_EQ(res.iterations, 0);
  for (real_t v : res.x) EXPECT_EQ(v, 0.0);
}

TEST(Fgmres, RestartStillConverges) {
  const sparse::CsrMatrix a = sparse::laplace2d(10, 10);
  const Vector b(100, 1.0);
  SolveOptions opts;
  opts.restart = 5;  // force many restarts
  opts.tol = 1e-8;
  opts.max_iters = 5000;
  const DistSolve res = solve_p1(a, b, poly(PolyKind::None), opts);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.restarts, 1);
  EXPECT_LE(true_relres(a, res.x, b), 1e-7);
}

TEST(Fgmres, HistoryLengthMatchesIterations) {
  const sparse::CsrMatrix a = sparse::laplace2d(8, 8);
  const Vector b(64, 1.0);
  const DistSolve res = solve_p1(a, b, poly(PolyKind::None));
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.iterations));
  // Residual history non-increasing within a cycle (GMRES optimality).
  for (std::size_t i = 1; i < res.history.size(); ++i)
    EXPECT_LE(res.history[i], res.history[i - 1] * (1.0 + 1e-12));
}

TEST(Fgmres, Ilu0BeatsUnpreconditioned) {
  const sparse::CsrMatrix a = sparse::laplace2d(15, 15);
  const Vector b(225, 1.0);
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 3000;

  const DistSolve r_none = solve_p1(a, b, poly(PolyKind::None), opts);
  const DistSolve r_ilu = solve_p1(a, b, ilu0(), opts);
  ASSERT_TRUE(r_none.converged);
  ASSERT_TRUE(r_ilu.converged);
  EXPECT_LT(r_ilu.iterations, r_none.iterations);
}

TEST(Fgmres, PolynomialPrecondBeatsUnpreconditionedOnScaledSystem) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::RddPartition part = exp::make_rdd(prob, 1);
  SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 5000;

  const DistSolve r_none =
      solve_rdd(part, prob.load, poly(PolyKind::None), opts);
  const DistSolve r_gls = solve_rdd(part, prob.load, poly(PolyKind::Gls), opts);
  const DistSolve r_neu =
      solve_rdd(part, prob.load, poly(PolyKind::Neumann, 20), opts);

  ASSERT_TRUE(r_none.converged);
  ASSERT_TRUE(r_gls.converged);
  ASSERT_TRUE(r_neu.converged);
  EXPECT_LT(r_gls.iterations, r_none.iterations);
  EXPECT_LT(r_neu.iterations, r_none.iterations);

  // All three give the dense LU solution.
  const Vector x_ref = dense_solve(prob.stiffness, prob.load);
  const real_t scale = la::nrm_inf(x_ref);
  for (const DistSolve* r : {&r_none, &r_gls, &r_neu})
    for (std::size_t i = 0; i < x_ref.size(); ++i)
      EXPECT_NEAR(r->x[i], x_ref[i], 1e-4 * scale) << "dof " << i;
}

class FgmresRestartSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(FgmresRestartSweep, ConvergesForAnyRestartLength) {
  const sparse::CsrMatrix a = sparse::laplace2d(9, 9);
  const Vector b(81, 1.0);
  SolveOptions opts;
  opts.restart = GetParam();
  opts.tol = 1e-8;
  opts.max_iters = 5000;
  const DistSolve res = solve_p1(a, b, poly(PolyKind::None), opts);
  EXPECT_TRUE(res.converged) << "restart " << GetParam();
  EXPECT_LE(true_relres(a, res.x, b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Restarts, FgmresRestartSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

}  // namespace
}  // namespace pfem::core
