// Tests for the solver ablation option: batched Gram-Schmidt
// reductions.
#include <gtest/gtest.h>

#include "core/edd_solver.hpp"
#include "core/fgmres.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"

namespace pfem::core {
namespace {

fem::CantileverProblem test_problem() {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  return fem::make_cantilever(spec);
}

TEST(Batched, EddSameSolutionFewerReductions) {
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-8;
  const DistSolve paper = solve_edd(part, prob.load, poly, opts);
  SolveOptions opts2 = opts;
  opts2.batched_reductions = true;
  const DistSolve batched = solve_edd(part, prob.load, poly, opts2);

  ASSERT_TRUE(paper.converged && batched.converged);
  EXPECT_EQ(paper.iterations, batched.iterations);
  // Identical numerics (the batched sum folds the same rank partials in
  // the same deterministic order).
  for (std::size_t i = 0; i < paper.x.size(); ++i)
    EXPECT_DOUBLE_EQ(batched.x[i], paper.x[i]);
  EXPECT_LT(batched.rank_counters[0].global_reductions,
            paper.rank_counters[0].global_reductions);
}

TEST(Batched, PerIterationReductionCountIsConstant) {
  // With batching, every iteration does exactly 2 reductions (one fused
  // h-batch + one norm), independent of j.
  const fem::CantileverProblem prob = test_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 3;
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.batched_reductions = true;
  opts.max_iters = 5;
  const DistSolve a = solve_edd(part, prob.load, poly, opts);
  opts.max_iters = 6;
  const DistSolve b = solve_edd(part, prob.load, poly, opts);
  const par::PerfCounters d =
      b.rank_counters[0].delta_since(a.rank_counters[0]);
  EXPECT_EQ(d.global_reductions, 2u);
  EXPECT_EQ(d.neighbor_exchanges, 4u);  // unchanged: m+1
}

TEST(Batched, RddSameSolution) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-8;
  const DistSolve paper = solve_rdd(part, prob.load, rdd, opts);
  SolveOptions opts2 = opts;
  opts2.batched_reductions = true;
  const DistSolve batched = solve_rdd(part, prob.load, rdd, opts2);
  ASSERT_TRUE(paper.converged && batched.converged);
  for (std::size_t i = 0; i < paper.x.size(); ++i)
    EXPECT_DOUBLE_EQ(batched.x[i], paper.x[i]);
  EXPECT_LT(batched.rank_counters[0].global_reductions,
            paper.rank_counters[0].global_reductions);
}

}  // namespace
}  // namespace pfem::core
