// End-to-end smoke test: build a small cantilever, solve it with the
// EDD solver on 4 ranks, compare against a dense LU solve.
#include <gtest/gtest.h>

#include "core/edd_solver.hpp"
#include "dense_solve.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"

namespace pfem {
namespace {

TEST(Smoke, EddSolveMatchesSequential) {
  fem::CantileverSpec spec;
  spec.nx = 12;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);

  const Vector x_ref = dense_solve(prob.stiffness, prob.load);

  const partition::EddPartition part = exp::make_edd(prob, 4);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 7;
  core::SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 20000;
  const core::DistSolve res = core::solve_edd(part, prob.load, poly,
                                                    opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.x.size(), x_ref.size());
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * (1.0 + std::abs(x_ref[i])))
        << "dof " << i;
}

}  // namespace
}  // namespace pfem
