// RDD-FGMRES baseline tests (Algorithm 8): correctness across process
// counts and preconditioners, its Table-1 exchange count (m+1), the entry
// contract it shares with solve_edd, bit-neutral kernel formats, and the
// unsymmetric convection-diffusion systems the paper motivates GMRES
// with.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/fgmres.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"
#include "sparse/generators.hpp"

namespace pfem::core {
namespace {

fem::CantileverProblem test_problem() {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  return fem::make_cantilever(spec);
}

Vector reference_solution(const fem::CantileverProblem& prob) {
  Vector x(prob.load.size(), 0.0);
  Ilu0Precond ilu(prob.stiffness);
  SolveOptions opts;
  opts.tol = 1e-12;
  opts.max_iters = 50000;
  const SolveReport res = fgmres(prob.stiffness, prob.load, x, ilu, opts);
  EXPECT_TRUE(res.converged);
  return x;
}

using RddCase = std::tuple<int, PolyKind>;

class RddSolverTest : public ::testing::TestWithParam<RddCase> {};

TEST_P(RddSolverTest, MatchesSequentialSolution) {
  const auto [nparts, kind] = GetParam();
  const fem::CantileverProblem prob = test_problem();
  const Vector x_ref = reference_solution(prob);

  const partition::RddPartition part = exp::make_rdd(prob, nparts);
  RddOptions rdd;
  rdd.poly.kind = kind;
  rdd.poly.degree = kind == PolyKind::Neumann ? 15 : 7;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_rdd(part, prob.load, rdd, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale) << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RddSolverTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(PolyKind::None, PolyKind::Neumann,
                                         PolyKind::Gls)),
    [](const ::testing::TestParamInfo<RddCase>& info) {
      std::string name = "P" + std::to_string(std::get<0>(info.param));
      const PolyKind kind = std::get<1>(info.param);
      name += kind == PolyKind::None
                  ? "_none"
                  : (kind == PolyKind::Neumann ? "_Neumann" : "_GLS");
      return name;
    });

TEST(RddSolver, BlockJacobiIluConverges) {
  const fem::CantileverProblem prob = test_problem();
  const Vector x_ref = reference_solution(prob);
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.precond = RddOptions::Precond::BlockJacobiIlu;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_rdd(part, prob.load, rdd, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref);
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale);
}

par::PerfCounters per_iteration_delta(const partition::RddPartition& part,
                                      const Vector& f, const RddOptions& rdd,
                                      index_t n) {
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.restart = 25;
  opts.max_iters = n;
  const DistSolve a = solve_rdd(part, f, rdd, opts);
  opts.max_iters = n + 1;
  const DistSolve b = solve_rdd(part, f, rdd, opts);
  return b.rank_counters[0].delta_since(a.rank_counters[0]);
}

class RddTable1Test : public ::testing::TestWithParam<int> {};

TEST_P(RddTable1Test, ExchangesPerIterationAreDegreePlusOne) {
  // Paper Table 1, Algorithm 8: m+1 exchange phases per Arnoldi
  // iteration (m inside the polynomial, 1 for the outer mat-vec).
  const int m = GetParam();
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.poly.degree = m;
  const par::PerfCounters d = per_iteration_delta(part, prob.load, rdd, 3);
  EXPECT_EQ(d.neighbor_exchanges, static_cast<std::uint64_t>(m) + 1);
  EXPECT_EQ(d.matvecs, static_cast<std::uint64_t>(m) + 1);
  // One reduction per h_ij + one for the norm: the 4th iteration does 5.
  EXPECT_EQ(d.global_reductions, 5u);
}

INSTANTIATE_TEST_SUITE_P(Degrees, RddTable1Test, ::testing::Values(1, 3, 7));

TEST(RddSolver, BlockJacobiIluDoesNoExchangeInPrecondition) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.precond = RddOptions::Precond::BlockJacobiIlu;
  const par::PerfCounters d = per_iteration_delta(part, prob.load, rdd, 3);
  // Only the outer mat-vec exchanges.
  EXPECT_EQ(d.neighbor_exchanges, 1u);
  EXPECT_EQ(d.matvecs, 1u);
}

TEST(RddSolver, EddAndRddAgreeOnSolution) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition rpart = exp::make_rdd(prob, 4);
  const partition::EddPartition epart = exp::make_edd(prob, 4);
  PolySpec poly;
  poly.degree = 7;
  RddOptions rdd;
  rdd.poly = poly;
  SolveOptions opts;
  opts.tol = 1e-10;
  const DistSolve r1 = solve_rdd(rpart, prob.load, rdd, opts);
  const DistSolve r2 = solve_edd(epart, prob.load, poly, opts);
  ASSERT_TRUE(r1.converged && r2.converged);
  const real_t scale = la::nrm_inf(r1.x);
  for (std::size_t i = 0; i < r1.x.size(); ++i)
    EXPECT_NEAR(r1.x[i], r2.x[i], 1e-6 * scale);
}

TEST(RddSolver, SingleRankNoMessaging) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 1);
  const DistSolve res = solve_rdd(part, prob.load);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.rank_counters[0].neighbor_msgs, 0u);
}

TEST(RddSolver, MoreRanksMoreMessagesPerExchange) {
  // §5: the RDD mat-vec involves more communicating pairs as P grows.
  const fem::CantileverProblem prob = test_problem();
  RddOptions rdd;
  rdd.poly.degree = 3;
  SolveOptions opts;
  opts.tol = 1e-300;
  opts.max_iters = 3;
  std::uint64_t msgs2 = 0, msgs8 = 0;
  {
    const auto res =
        solve_rdd(exp::make_rdd(prob, 2), prob.load, rdd, opts);
    for (const auto& c : res.rank_counters) msgs2 += c.neighbor_msgs;
  }
  {
    const auto res =
        solve_rdd(exp::make_rdd(prob, 8), prob.load, rdd, opts);
    for (const auto& c : res.rank_counters) msgs8 += c.neighbor_msgs;
  }
  EXPECT_GT(msgs8, msgs2);
}

TEST(RddSolver, RejectsDeflationAndRecyclingTyped) {
  // The coarse space is an EDD feature: asking RDD for it is a typed
  // error, not a silently ignored knob.  (Recycling is no SolveOptions
  // field: only solve_edd_batch takes session state.)
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 2);
  SolveOptions deflated;
  deflated.deflation.enabled = true;
  EXPECT_THROW((void)solve_rdd(part, prob.load, RddOptions{}, deflated),
               Error);
}

TEST(RddSolver, ValidatesPolySpecAtEntry) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 2);
  RddOptions zero_degree;
  zero_degree.poly.kind = PolyKind::Neumann;
  zero_degree.poly.degree = 0;
  EXPECT_THROW((void)solve_rdd(part, prob.load, zero_degree), Error);
  RddOptions two_intervals;
  two_intervals.poly.kind = PolyKind::Chebyshev;
  two_intervals.poly.theta = {{0.1, 0.5}, {0.6, 1.0}};
  EXPECT_THROW((void)solve_rdd(part, prob.load, two_intervals), Error);
  // The polynomial is not consulted by the ILU preconditioners.
  RddOptions ilu = zero_degree;
  ilu.precond = RddOptions::Precond::BlockJacobiIlu;
  EXPECT_TRUE(solve_rdd(part, prob.load, ilu).converged);
}

TEST(RddSolver, SetupCountersAreSubsetOfTotals) {
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions rdd;
  rdd.poly.degree = 7;
  const DistSolve res = solve_rdd(part, prob.load, rdd);
  ASSERT_EQ(res.setup_counters.size(), res.rank_counters.size());
  for (std::size_t r = 0; r < res.rank_counters.size(); ++r) {
    EXPECT_LE(res.setup_counters[r].flops, res.rank_counters[r].flops);
    EXPECT_LE(res.setup_counters[r].neighbor_exchanges,
              res.rank_counters[r].neighbor_exchanges);
    // Setup performs exactly one exchange (the external-column scaling).
    EXPECT_EQ(res.setup_counters[r].neighbor_exchanges, 1u);
    // ... and carries the rank's setup wall time.
    EXPECT_GT(res.setup_counters[r].total_seconds, 0.0);
  }
}

TEST(RddSolver, ResultsDoNotDependOnKernelFormat) {
  // SELL is bit-neutral, and Format::Ebe falls back to CSR: every
  // format must reproduce the CSR run exactly, counters included.
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  std::vector<RddOptions> precs(5);
  precs[0].poly.degree = 7;
  precs[1].poly.kind = PolyKind::Neumann;
  precs[1].poly.degree = 10;
  precs[2].poly.kind = PolyKind::Chebyshev;
  precs[2].poly.degree = 7;
  precs[2].poly.theta = {{1e-4, 1.0}};
  precs[3].precond = RddOptions::Precond::BlockJacobiIlu;
  precs[4].precond = RddOptions::Precond::AdditiveSchwarz;
  using Format = KernelOptions::Format;
  for (std::size_t k = 0; k < precs.size(); ++k) {
    SolveOptions opts;
    opts.tol = 1e-10;
    const DistSolve ref = solve_rdd(part, prob.load, precs[k], opts);
    ASSERT_TRUE(ref.converged) << "preconditioner " << k;
    for (const Format format : {Format::Csr, Format::Sell, Format::Ebe}) {
      SCOPED_TRACE("preconditioner " + std::to_string(k) + ", format " +
                   std::to_string(static_cast<int>(format)));
      opts.kernels.format = format;
      const DistSolve res = solve_rdd(part, prob.load, precs[k], opts);
      EXPECT_EQ(res.iterations, ref.iterations);
      EXPECT_EQ(res.history, ref.history);
      EXPECT_EQ(res.x, ref.x);
      ASSERT_EQ(res.rank_counters.size(), ref.rank_counters.size());
      for (std::size_t r = 0; r < ref.rank_counters.size(); ++r) {
        EXPECT_EQ(res.rank_counters[r].neighbor_exchanges,
                  ref.rank_counters[r].neighbor_exchanges);
        EXPECT_EQ(res.rank_counters[r].global_reductions,
                  ref.rank_counters[r].global_reductions);
        EXPECT_EQ(res.rank_counters[r].matvecs,
                  ref.rank_counters[r].matvecs);
      }
    }
  }
}

TEST(RddSolver, TracedExchangesMatchCountersOnEveryRank) {
  // The one-shot runner's trace: a `solve_rdd` root span per rank and one
  // "exchange" span per counted neighbor exchange, setup included, in the
  // overlapped halo exchange and inside RAS applications.
  const fem::CantileverProblem prob = test_problem();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  RddOptions ras;
  ras.precond = RddOptions::Precond::AdditiveSchwarz;
  for (const RddOptions& rdd : {RddOptions{}, ras}) {
    SolveOptions opts;
    opts.tol = 1e-8;
    opts.observe.trace = true;
    opts.observe.ring_capacity = std::size_t{1} << 16;
    const DistSolve res = solve_rdd(part, prob.load, rdd, opts);
    ASSERT_TRUE(res.converged);
    ASSERT_NE(res.trace, nullptr);
    for (int r = 0; r < part.nparts(); ++r) {
      const obs::Tracer& lane = res.trace->rank(r);
      ASSERT_EQ(lane.dropped(), 0u);
      std::uint64_t exchanges = 0, roots = 0;
      for (const obs::Record& rec : lane.records()) {
        if (rec.kind != obs::Record::Kind::Span) continue;
        exchanges += std::string(rec.name) == "exchange";
        roots += std::string(rec.name) == "solve_rdd";
      }
      EXPECT_EQ(roots, 1u) << "rank " << r;
      EXPECT_EQ(exchanges,
                res.rank_counters[static_cast<std::size_t>(r)]
                    .neighbor_exchanges)
          << "rank " << r;
    }
  }
}

// ---- Unsymmetric systems ---------------------------------------------

Vector dense_solve(const sparse::CsrMatrix& a, const Vector& b) {
  la::DenseMatrix ad(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j) ad(i, j) = a.at(i, j);
  Vector x = b;
  la::lu_solve(ad, x);
  return x;
}

TEST(ConvectionDiffusion, IsUnsymmetricMMatrix) {
  const sparse::CsrMatrix a = sparse::convection_diffusion_2d(8, 8, 4.0, 2.0);
  EXPECT_GT(a.symmetry_defect(), 1.0);  // genuinely unsymmetric
  // Row sums are >= 0 (M-matrix with Dirichlet boundary).
  for (index_t i = 0; i < a.rows(); ++i) {
    real_t s = 0.0;
    for (real_t v : a.row_vals(i)) s += v;
    EXPECT_GE(s, -1e-12);
  }
  // Zero convection recovers the symmetric Laplacian.
  const sparse::CsrMatrix l = sparse::convection_diffusion_2d(8, 8, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(l.symmetry_defect(), 0.0);
}

TEST(UnsymmetricRdd, FgmresSolvesConvectionDiffusionDistributed) {
  // The paper's headline claim: the framework handles *unsymmetric*
  // systems through GMRES.  Drive an upwind convection-diffusion matrix
  // through the RDD solver (no mesh needed) with a Neumann polynomial
  // (valid: the scaled M-matrix has rho(I - A) < 1).
  const sparse::CsrMatrix a =
      sparse::convection_diffusion_2d(12, 12, 5.0, 2.0);
  Vector b(144);
  for (std::size_t i = 0; i < 144; ++i) b[i] = std::cos(0.21 * double(i));
  const Vector x_ref = dense_solve(a, b);

  IndexVector row_part(144);
  for (std::size_t i = 0; i < 144; ++i)
    row_part[i] = static_cast<index_t>((i * 4) / 144);
  const partition::RddPartition part =
      partition::build_rdd_partition(a, row_part, 4);
  RddOptions rdd;
  rdd.poly.kind = PolyKind::Neumann;
  rdd.poly.degree = 10;
  SolveOptions opts;
  opts.tol = 1e-10;
  opts.max_iters = 50000;
  const DistSolve res = solve_rdd(part, b, rdd, opts);
  ASSERT_TRUE(res.converged);
  const real_t scale = la::nrm_inf(x_ref) + 1e-30;
  for (std::size_t i = 0; i < 144; ++i)
    EXPECT_NEAR(res.x[i], x_ref[i], 1e-6 * scale);
}

}  // namespace
}  // namespace pfem::core
