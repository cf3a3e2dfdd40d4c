// EDD-PCG tests: correctness across process counts, the m+1 exchange
// count per iteration, and the one-shot runner's options (typed
// rejections, trace, progress, fault injection).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/cg.hpp"
#include "dense_solve.hpp"
#include "exp/experiments.hpp"
#include "fault/fault.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"

namespace pfem::core {
namespace {

class EddCgTest : public ::testing::TestWithParam<int> {};

TEST_P(EddCgTest, MatchesSequentialSolution) {
  const int nparts = GetParam();
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);

  const Vector x_ref = dense_solve(prob.stiffness, prob.load);

  const partition::EddPartition part = exp::make_edd(prob, nparts);
  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_edd_cg(part, prob.load, poly, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, EddCgTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(EddCg, ExchangesPerIterationAreDegreePlusOne) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 6;
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.max_iters = 3;
  const DistSolve a = solve_edd_cg(part, prob.load, poly, opts);
  opts.max_iters = 4;
  const DistSolve b = solve_edd_cg(part, prob.load, poly, opts);
  const par::PerfCounters d =
      b.rank_counters[0].delta_since(a.rank_counters[0]);
  EXPECT_EQ(d.neighbor_exchanges, 7u);  // m inside P(A), 1 for r_glob
  EXPECT_EQ(d.matvecs, 7u);
  EXPECT_EQ(d.global_reductions, 3u);   // pap, ||r||, rho
  // Whole-run flops of rank 0, localizing f (2 per local entry, as in
  // every EDD solve) included.
  EXPECT_EQ(a.rank_counters[0].flops, 32100u);
}

TEST(EddCg, ChebyshevPreconditionerWorksToo) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 3);
  PolySpec poly;
  poly.kind = PolyKind::Chebyshev;
  poly.degree = 7;
  poly.theta = {{1e-4, 1.0}};
  const DistSolve res = solve_edd_cg(part, prob.load, poly);
  EXPECT_TRUE(res.converged);
}

TEST(EddCg, AgreesWithEddFgmresIterationsBallpark) {
  // Same preconditioner, same system: CG and FGMRES(∞) minimize in
  // related norms; iteration counts should be of the same order.
  fem::CantileverSpec spec;
  spec.nx = 12;
  spec.ny = 6;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 7;
  SolveOptions opts;
  opts.tol = 1e-6;
  const DistSolve cg = solve_edd_cg(part, prob.load, poly, opts);
  const DistSolve gm = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(cg.converged && gm.converged);
  EXPECT_LT(cg.iterations, 4 * gm.iterations + 10);
  EXPECT_LT(gm.iterations, 4 * cg.iterations + 10);
}

// ---- Options through the shared one-shot runner ----------------------

fem::CantileverProblem cg_problem() {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  return fem::make_cantilever(spec);
}

TEST(EddCg, RejectsDeflationAndRecyclingTyped) {
  // A-DEF1 is not symmetric, so PCG cannot use it: deflation must fail at
  // entry, not be silently ignored.  (Recycling is no SolveOptions field:
  // only solve_edd_batch takes session state.)
  const fem::CantileverProblem prob = cg_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  SolveOptions deflated;
  deflated.deflation.enabled = true;
  EXPECT_THROW((void)solve_edd_cg(part, prob.load, poly, deflated), Error);
}

TEST(EddCg, TracedExchangesMatchCountersOnEveryRank) {
  // The Table1Oracle cross-check for CG: one "exchange" span per counted
  // neighbor exchange, setup included, on every rank.
  const fem::CantileverProblem prob = cg_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.observe.trace = true;
  opts.observe.ring_capacity = std::size_t{1} << 16;
  const DistSolve res = solve_edd_cg(part, prob.load, poly, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_NE(res.trace, nullptr);
  for (int r = 0; r < part.nparts(); ++r) {
    const obs::Tracer& lane = res.trace->rank(r);
    ASSERT_EQ(lane.dropped(), 0u);
    std::uint64_t exchanges = 0;
    for (const obs::Record& rec : lane.records())
      if (rec.kind == obs::Record::Kind::Span &&
          std::string(rec.name) == "exchange")
        ++exchanges;
    EXPECT_EQ(exchanges,
              res.rank_counters[static_cast<std::size_t>(r)]
                  .neighbor_exchanges)
        << "rank " << r;
  }
}

TEST(EddCg, ProgressFiresOncePerIteration) {
  const fem::CantileverProblem prob = cg_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-8;
  std::vector<real_t> seen;
  opts.observe.progress = [&](index_t it, real_t relres, std::size_t b) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(it, static_cast<index_t>(seen.size()) + 1);
    seen.push_back(relres);
  };
  const DistSolve res = solve_edd_cg(part, prob.load, poly, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_GT(res.iterations, 0);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(res.iterations));
  EXPECT_EQ(seen, res.history);
}

TEST(EddCg, InjectedCrashReturnsTypedCommError) {
  // A crash plan armed through opts.observe reaches CG's team and comes
  // back as a typed partial report, not as a thrown par::CommError.
  const fem::CantileverProblem prob = cg_problem();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  fault::FaultPlan plan;
  plan.nranks = part.nparts();
  plan.faults = {{fault::FaultSite{2, -1, fault::Op::Collective, 12},
                  fault::FaultAction{fault::FaultType::Crash, 0}}};
  fault::FaultInjector inj(plan);
  PolySpec poly;
  poly.degree = 5;
  SolveOptions opts;
  opts.tol = 1e-8;
  opts.observe.fault_injector = &inj;
  opts.observe.comm_timeout_seconds = 0.5;
  DistSolve res;
  ASSERT_NO_THROW(res = solve_edd_cg(part, prob.load, poly, opts));
  ASSERT_TRUE(res.comm_failed());
  EXPECT_NE(res.comm_error.find("injected crash"), std::string::npos);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.x.empty());
  EXPECT_GT(res.iterations, 0);
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.iterations));
}

}  // namespace
}  // namespace pfem::core
