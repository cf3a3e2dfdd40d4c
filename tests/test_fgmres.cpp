// Sequential flexible GMRES tests (Algorithm 1): correctness against
// direct solves, restart behaviour, preconditioner effectiveness ordering.
#include <gtest/gtest.h>

#include <cmath>

#include "core/diag_scaling.hpp"
#include "core/fgmres.hpp"
#include "core/precond.hpp"
#include "fem/problems.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"
#include "sparse/generators.hpp"

namespace pfem::core {
namespace {

Vector dense_solve(const sparse::CsrMatrix& a, const Vector& b) {
  la::DenseMatrix ad(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) ad(i, j) = a.at(i, j);
  Vector x = b;
  la::lu_solve(ad, x);
  return x;
}

TEST(Fgmres, SolvesSmallSpdToTolerance) {
  const sparse::CsrMatrix a = sparse::tridiag(20, 3.0, -1.0);
  Vector b(20);
  for (std::size_t i = 0; i < 20; ++i) b[i] = std::sin(double(i));
  const Vector x_ref = dense_solve(a, b);

  Vector x(20, 0.0);
  IdentityPrecond none;
  SolveOptions opts;
  opts.tol = 1e-10;
  const SolveReport res = fgmres(a, b, x, none, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.final_relres, 1e-10);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(Fgmres, AgreesWithDenseLuOnUnsymmetricSystem) {
  // The only sequential FGMRES check on an unsymmetric operator: an
  // upwind convection-diffusion matrix (strong convection), Jacobi
  // preconditioned, against a dense LU solve.
  const sparse::CsrMatrix a =
      sparse::convection_diffusion_2d(12, 12, 8.0, 8.0);
  ASSERT_GT(a.symmetry_defect(), 1.0);
  const Vector b(144, 1.0);
  const Vector x_ref = dense_solve(a, b);
  SolveOptions opts;
  opts.tol = 1e-9;
  opts.max_iters = 10000;
  Vector x(144, 0.0);
  JacobiPrecond jacobi(a);
  const SolveReport res = fgmres(a, b, x, jacobi, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.final_relres, opts.tol);
  const real_t scale = la::nrm_inf(x_ref) + 1e-30;
  for (std::size_t i = 0; i < 144; ++i)
    EXPECT_NEAR(x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

TEST(Fgmres, ZeroRhsConvergesImmediately) {
  const sparse::CsrMatrix a = sparse::tridiag(10, 2.0, -1.0);
  Vector b(10, 0.0), x(10, 0.0);
  IdentityPrecond none;
  const SolveReport res = fgmres(a, b, x, none);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Fgmres, ExactInitialGuessNoIterations) {
  const sparse::CsrMatrix a = sparse::tridiag(10, 2.0, -1.0);
  Vector x_true(10, 1.0);
  Vector b(10);
  a.spmv(x_true, b);
  Vector x = x_true;
  IdentityPrecond none;
  const SolveReport res = fgmres(a, b, x, none);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Fgmres, RestartStillConverges) {
  const sparse::CsrMatrix a = sparse::laplace2d(10, 10);
  Vector b(100, 1.0), x(100, 0.0);
  IdentityPrecond none;
  SolveOptions opts;
  opts.restart = 5;  // force many restarts
  opts.tol = 1e-8;
  opts.max_iters = 5000;
  const SolveReport res = fgmres(a, b, x, none, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.restarts, 1);
  Vector r(100);
  a.spmv(x, r);
  la::axpy(-1.0, b, r);
  EXPECT_LE(la::nrm2(r) / la::nrm2(b), 1e-7);
}

TEST(Fgmres, HistoryLengthMatchesIterations) {
  const sparse::CsrMatrix a = sparse::laplace2d(8, 8);
  Vector b(64, 1.0), x(64, 0.0);
  JacobiPrecond jacobi(a);
  const SolveReport res = fgmres(a, b, x, jacobi);
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.iterations));
  // Residual history non-increasing within a cycle (GMRES optimality).
  for (std::size_t i = 1; i < res.history.size(); ++i)
    EXPECT_LE(res.history[i], res.history[i - 1] * (1.0 + 1e-12));
}

TEST(Fgmres, Ilu0BeatsUnpreconditioned) {
  const sparse::CsrMatrix a = sparse::laplace2d(15, 15);
  Vector b(225, 1.0);
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 3000;

  Vector x1(225, 0.0);
  IdentityPrecond none;
  const SolveReport r_none = fgmres(a, b, x1, none, opts);
  Vector x2(225, 0.0);
  Ilu0Precond ilu(a);
  const SolveReport r_ilu = fgmres(a, b, x2, ilu, opts);
  ASSERT_TRUE(r_none.converged);
  ASSERT_TRUE(r_ilu.converged);
  EXPECT_LT(r_ilu.iterations, r_none.iterations);
}

TEST(Fgmres, PolynomialPrecondBeatsUnpreconditionedOnScaledSystem) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const ScaledSystem s = scale_system(prob.stiffness, prob.load);
  SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 5000;

  Vector x0(s.b.size(), 0.0);
  IdentityPrecond none;
  const SolveReport r_none = fgmres(s.a, s.b, x0, none, opts);

  Vector x1(s.b.size(), 0.0);
  GlsPrecond gls(LinearOp::from_csr(s.a),
                 GlsPolynomial(default_theta_after_scaling(), 7));
  const SolveReport r_gls = fgmres(s.a, s.b, x1, gls, opts);

  Vector x2(s.b.size(), 0.0);
  NeumannPrecond neumann(LinearOp::from_csr(s.a), NeumannPolynomial(20, 1.0));
  const SolveReport r_neu = fgmres(s.a, s.b, x2, neumann, opts);

  ASSERT_TRUE(r_none.converged);
  ASSERT_TRUE(r_gls.converged);
  ASSERT_TRUE(r_neu.converged);
  EXPECT_LT(r_gls.iterations, r_none.iterations);
  EXPECT_LT(r_neu.iterations, r_none.iterations);

  // All three give the same solution.
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(x1[i], x0[i], 1e-4 * (1.0 + std::abs(x0[i])));
    EXPECT_NEAR(x2[i], x0[i], 1e-4 * (1.0 + std::abs(x0[i])));
  }
}

TEST(Fgmres, PrecondNamesAndMatvecCounts) {
  const sparse::CsrMatrix a = sparse::tridiag(5, 1.0, -0.2);
  EXPECT_EQ(IdentityPrecond{}.name(), "none");
  EXPECT_EQ(JacobiPrecond(a).name(), "Jacobi");
  EXPECT_EQ(Ilu0Precond(a).name(), "ILU(0)");
  GlsPrecond gls(LinearOp::from_csr(a), GlsPolynomial({{0.1, 1.0}}, 7));
  EXPECT_EQ(gls.name(), "GLS(7)");
  EXPECT_EQ(gls.matvecs_per_apply(), 7);
  NeumannPrecond neu(LinearOp::from_csr(a), NeumannPolynomial(20));
  EXPECT_EQ(neu.name(), "Neumann(20)");
  EXPECT_EQ(neu.matvecs_per_apply(), 20);
}

class FgmresRestartSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(FgmresRestartSweep, ConvergesForAnyRestartLength) {
  const sparse::CsrMatrix a = sparse::laplace2d(9, 9);
  Vector b(81, 1.0), x(81, 0.0);
  JacobiPrecond jacobi(a);
  SolveOptions opts;
  opts.restart = GetParam();
  opts.tol = 1e-8;
  opts.max_iters = 5000;
  const SolveReport res = fgmres(a, b, x, jacobi, opts);
  EXPECT_TRUE(res.converged) << "restart " << GetParam();
  Vector r(81);
  a.spmv(x, r);
  la::axpy(-1.0, b, r);
  EXPECT_LE(la::nrm2(r) / la::nrm2(b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Restarts, FgmresRestartSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50));

}  // namespace
}  // namespace pfem::core
