// Chebyshev polynomial preconditioner tests: min-max optimality,
// operator application, and integration with the solvers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/chebyshev.hpp"
#include "core/diag_scaling.hpp"
#include "core/gls_poly.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "sparse/generators.hpp"
#include "sparse/lanczos.hpp"

namespace pfem::core {
namespace {

TEST(Chebyshev, ResidualBoundedByMinimaxValue) {
  const ChebyshevPolynomial p({0.1, 2.5}, 7);
  const real_t bound = p.minimax_bound();
  EXPECT_GT(bound, 0.0);
  EXPECT_LT(bound, 1.0);
  real_t sup = 0.0;
  for (int k = 0; k <= 2000; ++k) {
    const real_t lambda = 0.1 + 2.4 * k / 2000.0;
    sup = std::max(sup, std::abs(p.residual(lambda)));
  }
  EXPECT_LE(sup, bound * (1.0 + 1e-10));
  // Equioscillation: the bound is attained at the interval ends.
  EXPECT_NEAR(std::abs(p.residual(0.1)), bound, 1e-12);
  EXPECT_NEAR(std::abs(p.residual(2.5)), bound, 1e-12);
}

TEST(Chebyshev, MinimaxBoundDecaysWithDegree) {
  real_t prev = 1.0;
  for (int m : {0, 2, 4, 8, 16}) {
    const real_t b = ChebyshevPolynomial({0.1, 1.0}, m).minimax_bound();
    EXPECT_LT(b, prev);
    prev = b;
  }
  EXPECT_LT(prev, 1e-3);
}

TEST(Chebyshev, Degree0IsOptimalConstant) {
  const ChebyshevPolynomial p({0.5, 1.5}, 0);
  EXPECT_NEAR(p.eval(1.0), 2.0 / (0.5 + 1.5), 1e-14);
}

TEST(Chebyshev, ApplyOnDiagonalMatrixMatchesScalarEval) {
  const Vector eigs{0.12, 0.5, 1.3, 2.4};
  const sparse::CsrMatrix a = sparse::diagonal_matrix(eigs);
  const LinearOp op = LinearOp::from_csr(a);
  const ChebyshevPolynomial p({0.1, 2.5}, 9);
  Vector v{1.0, -1.0, 2.0, 0.5}, z(4);
  p.apply(op, v, z);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(z[i], p.eval(eigs[i]) * v[i], 1e-11);
}

TEST(Chebyshev, PowerCoeffsConsistentWithEval) {
  const ChebyshevPolynomial p({0.2, 1.8}, 6);
  const Vector c = p.power_coeffs();
  ASSERT_EQ(c.size(), 7u);
  for (real_t lambda : {0.3, 1.0, 1.7}) {
    real_t horner = 0.0;
    for (int k = 6; k >= 0; --k)
      horner = horner * lambda + c[static_cast<std::size_t>(k)];
    EXPECT_NEAR(horner, p.eval(lambda), 1e-10 * (1.0 + std::abs(horner)));
  }
}

TEST(Chebyshev, RejectsInvalidInterval) {
  EXPECT_THROW(ChebyshevPolynomial({-1.0, 1.0}, 3), Error);
  EXPECT_THROW(ChebyshevPolynomial({0.0, 1.0}, 3), Error);
  EXPECT_THROW(ChebyshevPolynomial({2.0, 1.0}, 3), Error);
}

TEST(Chebyshev, ComparableToGlsOnSameInterval) {
  // Both aim at 1 − λp ≈ 0 on the same interval (∞-norm vs weighted
  // L2): their sup-residuals should be within a small factor.
  const Interval iv{0.05, 1.0};
  const ChebyshevPolynomial cheb(iv, 8);
  const GlsPolynomial gls({iv}, 8);
  real_t sup_cheb = 0.0, sup_gls = 0.0;
  for (int k = 0; k <= 1000; ++k) {
    const real_t lambda = iv.lo + (iv.hi - iv.lo) * k / 1000.0;
    sup_cheb = std::max(sup_cheb, std::abs(cheb.residual(lambda)));
    sup_gls = std::max(sup_gls, std::abs(gls.residual(lambda)));
  }
  EXPECT_LT(sup_cheb, 1.0);
  EXPECT_LT(sup_gls, 1.0);
  EXPECT_LT(sup_cheb, 5.0 * sup_gls + 0.05);
  // Chebyshev is *optimal* in the sup norm: it cannot lose to GLS there.
  EXPECT_LE(sup_cheb, sup_gls * (1.0 + 1e-9));
}

TEST(Chebyshev, PrecondSpeedsUpFgmresWithMatchedInterval) {
  // Chebyshev equioscillates over its *whole* interval, so unlike GLS it
  // needs an interval matched to the spectrum (a Lanczos estimate of the
  // norm-1 scaled operator the solver iterates on) — with one it must
  // beat the unpreconditioned solver.  One process: solve_rdd at P = 1.
  const sparse::CsrMatrix a = sparse::laplace2d(12, 12);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  const partition::RddPartition part =
      partition::build_rdd_partition(a, IndexVector(b.size(), 0), 1);
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 20000;

  RddOptions plain;
  plain.poly.kind = PolyKind::None;
  const DistSolve r_plain = solve_rdd(part, b, plain, opts);

  const sparse::Interval iv =
      sparse::estimate_spectrum(scale_system(a, b).a, 30);
  RddOptions cheb;
  cheb.poly.kind = PolyKind::Chebyshev;
  cheb.poly.degree = 10;
  cheb.poly.theta = {{iv.lo, iv.hi}};
  const DistSolve r_cheb = solve_rdd(part, b, cheb, opts);

  ASSERT_TRUE(r_plain.converged && r_cheb.converged);
  EXPECT_LT(r_cheb.iterations, r_plain.iterations / 2);
  EXPECT_EQ(cheb.poly.name(), "Cheb(10)");
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_NEAR(r_cheb.x[i], r_plain.x[i],
                1e-5 * (1.0 + std::abs(r_plain.x[i])));
}

class ChebyshevDistTest : public ::testing::TestWithParam<int> {};

TEST_P(ChebyshevDistTest, EddAndRddSolveWithChebyshev) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);

  PolySpec poly;
  poly.kind = PolyKind::Chebyshev;
  poly.degree = 7;
  poly.theta = {{1e-4, 1.0}};
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.max_iters = 50000;

  const auto epart = exp::make_edd(prob, nparts);
  const DistSolve edd_basic =
      solve_edd(epart, prob.load, poly, opts, EddVariant::Basic);
  const DistSolve edd_enh =
      solve_edd(epart, prob.load, poly, opts, EddVariant::Enhanced);
  ASSERT_TRUE(edd_basic.converged);
  ASSERT_TRUE(edd_enh.converged);

  const auto rpart = exp::make_rdd(prob, nparts);
  RddOptions rdd;
  rdd.poly = poly;
  const DistSolve rddr = solve_rdd(rpart, prob.load, rdd, opts);
  ASSERT_TRUE(rddr.converged);

  const real_t scale = la::nrm_inf(edd_enh.x);
  for (std::size_t i = 0; i < edd_enh.x.size(); ++i) {
    EXPECT_NEAR(edd_basic.x[i], edd_enh.x[i], 1e-5 * scale);
    EXPECT_NEAR(rddr.x[i], edd_enh.x[i], 1e-5 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, ChebyshevDistTest,
                         ::testing::Values(1, 3, 4));

}  // namespace
}  // namespace pfem::core
