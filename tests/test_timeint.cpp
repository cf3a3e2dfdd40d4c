// Newmark time integration tests: SDOF analytic solution, stability,
// effective-system consistency, and the dynamic drivers (sequential and
// EDD) agreeing with each other.
#include <gtest/gtest.h>

#include <cmath>

#include "dense_solve.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "sparse/coo.hpp"
#include "timeint/dynamic_driver.hpp"
#include "timeint/newmark.hpp"

namespace pfem::timeint {
namespace {

sparse::CsrMatrix scalar_matrix(real_t v) {
  sparse::CooBuilder coo(1, 1);
  coo.add(0, 0, v);
  return coo.build();
}

TEST(Newmark, EffectiveStiffnessIsKPlusA0M) {
  const sparse::CsrMatrix k = scalar_matrix(10.0);
  const sparse::CsrMatrix m = scalar_matrix(2.0);
  NewmarkOptions opts;
  opts.dt = 0.1;
  const Newmark nm(k, m, opts);
  // a0 = 1/(beta dt^2) = 1/(0.25*0.01) = 400.
  EXPECT_NEAR(nm.a0(), 400.0, 1e-12);
  EXPECT_NEAR(nm.k_eff().at(0, 0), 10.0 + 400.0 * 2.0, 1e-12);
}

TEST(Newmark, SdofFreeVibrationMatchesCosine) {
  // m ü + k u = 0, u(0)=u0, v(0)=0  =>  u(t) = u0 cos(ω t), ω = sqrt(k/m).
  const real_t mval = 2.0, kval = 50.0, u0 = 0.3;
  const real_t omega = std::sqrt(kval / mval);
  const sparse::CsrMatrix k = scalar_matrix(kval);
  const sparse::CsrMatrix m = scalar_matrix(mval);
  NewmarkOptions opts;
  opts.dt = 0.002;  // well below the period 2π/5 ≈ 1.26
  const Newmark nm(k, m, opts);

  Vector u{u0}, v{0.0}, a{-kval * u0 / mval};  // a(0) = -k u0 / m
  Vector f{0.0};
  const int steps = 500;
  for (int s = 0; s < steps; ++s) {
    const Vector rhs = nm.effective_rhs(u, v, a, f);
    Vector u_new{rhs[0] / nm.k_eff().at(0, 0)};
    nm.advance(u_new, u, v, a);
  }
  const real_t t = steps * opts.dt;
  EXPECT_NEAR(u[0], u0 * std::cos(omega * t), 2e-3 * u0);
}

TEST(Newmark, AverageAccelerationConservesEnergy) {
  // β=1/4, γ=1/2 conserves the discrete energy of free vibration.
  const sparse::CsrMatrix k = scalar_matrix(30.0);
  const sparse::CsrMatrix m = scalar_matrix(1.5);
  NewmarkOptions opts;
  opts.dt = 0.01;
  const Newmark nm(k, m, opts);
  Vector u{1.0}, v{0.0}, a{-30.0 / 1.5};
  Vector f{0.0};
  const real_t e0 = 0.5 * 30.0 * u[0] * u[0] + 0.5 * 1.5 * v[0] * v[0];
  for (int s = 0; s < 2000; ++s) {
    const Vector rhs = nm.effective_rhs(u, v, a, f);
    Vector u_new{rhs[0] / nm.k_eff().at(0, 0)};
    nm.advance(u_new, u, v, a);
  }
  const real_t e = 0.5 * 30.0 * u[0] * u[0] + 0.5 * 1.5 * v[0] * v[0];
  EXPECT_NEAR(e, e0, 1e-6 * e0);
}

TEST(Newmark, StaticLimitReachedUnderConstantLoad) {
  // With large damping-free dynamics the displacement oscillates around
  // the static solution u_s = f/k; its time average approaches u_s.
  const sparse::CsrMatrix k = scalar_matrix(40.0);
  const sparse::CsrMatrix m = scalar_matrix(1.0);
  NewmarkOptions opts;
  opts.dt = 0.005;
  const Newmark nm(k, m, opts);
  Vector u{0.0}, v{0.0}, a{8.0};  // a0 = f/m
  Vector f{8.0};
  real_t mean = 0.0;
  const int steps = 4000;
  for (int s = 0; s < steps; ++s) {
    const Vector rhs = nm.effective_rhs(u, v, a, f);
    Vector u_new{rhs[0] / nm.k_eff().at(0, 0)};
    nm.advance(u_new, u, v, a);
    mean += u[0];
  }
  mean /= steps;
  EXPECT_NEAR(mean, 8.0 / 40.0, 0.01 * 8.0 / 40.0);
}

TEST(Newmark, RejectsMismatchedPatterns) {
  const sparse::CsrMatrix k = sparse::CooBuilder(1, 1).build();  // empty
  const sparse::CsrMatrix m = scalar_matrix(1.0);
  EXPECT_THROW(Newmark(k, m, NewmarkOptions{}), Error);
}

fem::CantileverProblem dyn_problem() {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 3;
  return fem::make_cantilever(spec);
}

TEST(DynamicDriver, InitialAccelerationSolvesTheMassSystem) {
  const fem::CantileverProblem prob = dyn_problem();
  const sparse::CsrMatrix m = prob.assemble_mass();
  const Vector a0 = initial_acceleration(m, prob.load);
  const Vector ref = dense_solve(m, prob.load);
  const real_t scale = la::nrm_inf(ref);
  ASSERT_EQ(a0.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(a0[i], ref[i], 1e-8 * scale) << "dof " << i;
}

TEST(DynamicDriver, SequentialRunsAndConverges) {
  const fem::CantileverProblem prob = dyn_problem();
  const sparse::CsrMatrix m = prob.assemble_mass();
  DynamicRunOptions opts;
  opts.steps = 4;
  opts.solve.tol = 1e-8;
  const DynamicRunResult res = run_dynamic_sequential(
      prob.stiffness, m, prob.load, opts, core::RddOptions{});  // GLS(7)
  EXPECT_TRUE(res.all_converged);
  ASSERT_EQ(res.iterations_per_step.size(), 4u);
  for (index_t it : res.iterations_per_step) EXPECT_GT(it, 0);
  EXPECT_FALSE(res.first_step_history.empty());
  EXPECT_GT(la::nrm_inf(res.u_final), 0.0);
}

TEST(DynamicDriver, EddMatchesSequentialTrajectory) {
  const fem::CantileverProblem prob = dyn_problem();
  const sparse::CsrMatrix m = prob.assemble_mass();
  DynamicRunOptions opts;
  opts.steps = 3;
  opts.solve.tol = 1e-10;

  core::RddOptions ilu;
  ilu.precond = core::RddOptions::Precond::BlockJacobiIlu;
  const DynamicRunResult seq =
      run_dynamic_sequential(prob.stiffness, m, prob.load, opts, ilu);
  ASSERT_TRUE(seq.all_converged);

  const partition::EddPartition part = exp::make_edd(prob, 3);
  core::PolySpec poly;
  poly.degree = 7;
  const EddDynamicResult par = run_dynamic_edd(
      prob.mesh, prob.dofs, prob.material, part, prob.load, opts, poly);
  ASSERT_TRUE(par.all_converged);

  const real_t scale = la::nrm_inf(seq.u_final) + 1e-30;
  ASSERT_EQ(par.u_final.size(), seq.u_final.size());
  for (std::size_t i = 0; i < seq.u_final.size(); ++i)
    EXPECT_NEAR(par.u_final[i], seq.u_final[i], 1e-5 * scale) << "dof " << i;
  // Counters accumulated over all steps.
  EXPECT_GT(par.rank_counters_total[0].matvecs, 0u);
}

TEST(DynamicDriver, EffectiveSystemBetterConditionedThanStatic) {
  // The mass term shifts the spectrum away from zero: the dynamic
  // effective system should converge in no more iterations than the
  // static one (Figs. 11 vs 12 show dynamic converging faster).
  const fem::CantileverProblem prob = dyn_problem();
  const sparse::CsrMatrix m = prob.assemble_mass();

  // One-process GLS(7) solves: solve_rdd on one-part partitions.
  core::SolveOptions sopts;
  sopts.tol = 1e-6;
  const IndexVector one_part(prob.load.size(), 0);
  const core::DistSolve r_static = core::solve_rdd(
      partition::build_rdd_partition(prob.stiffness, one_part, 1), prob.load,
      {}, sopts);

  NewmarkOptions nopts;
  nopts.dt = 0.01;
  const Newmark nm(prob.stiffness, m, nopts);
  const core::DistSolve r_dyn = core::solve_rdd(
      partition::build_rdd_partition(nm.k_eff(), one_part, 1), prob.load, {},
      sopts);

  ASSERT_TRUE(r_static.converged && r_dyn.converged);
  EXPECT_LE(r_dyn.iterations, r_static.iterations);
}

}  // namespace
}  // namespace pfem::timeint
