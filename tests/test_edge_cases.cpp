// Edge-case and robustness tests across modules: argument validation,
// capacity limits, degenerate inputs, and harness utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "core/cg.hpp"
#include "core/diag_scaling.hpp"
#include "core/edd_batch.hpp"
#include "core/fgmres.hpp"
#include "core/orthopoly.hpp"
#include "core/precond.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "la/dense.hpp"
#include "par/comm.hpp"
#include "par/cost_model.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace pfem {
namespace {

// ---- par runtime ----

TEST(ParEdge, AllreduceLengthMismatchFails) {
  EXPECT_THROW(par::run_spmd(2,
                             [](par::Comm& c) {
                               Vector v(c.rank() == 0 ? 3 : 4, 1.0);
                               c.allreduce_sum(v);
                             }),
               Error);
}

TEST(ParEdge, ManyInterleavedRoundsStayOrdered) {
  // 200 rounds of bidirectional traffic with alternating tags.
  par::run_spmd(2, [](par::Comm& c) {
    const int other = 1 - c.rank();
    Vector out;
    for (int round = 0; round < 200; ++round) {
      Vector payload{static_cast<real_t>(round), static_cast<real_t>(c.rank())};
      c.send(other, round % 3, payload);
      c.recv(other, round % 3, out);
      ASSERT_EQ(out.size(), 2u);
      EXPECT_DOUBLE_EQ(out[0], static_cast<real_t>(round));
      EXPECT_DOUBLE_EQ(out[1], static_cast<real_t>(other));
    }
  });
}

TEST(ParEdge, LargeMessageRoundTrip) {
  par::run_spmd(2, [](par::Comm& c) {
    if (c.rank() == 0) {
      Vector big(100000);
      for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = std::sin(double(i));
      c.send(1, 0, big);
    } else {
      Vector got;
      c.recv(0, 0, got);
      ASSERT_EQ(got.size(), 100000u);
      EXPECT_DOUBLE_EQ(got[777], std::sin(777.0));
    }
  });
}

TEST(ParEdge, SingleRankCollectivesTrivial) {
  par::run_spmd(1, [](par::Comm& c) {
    c.barrier();
    EXPECT_DOUBLE_EQ(c.allreduce_sum(3.5), 3.5);
    EXPECT_DOUBLE_EQ(c.allreduce_max(-2.0), -2.0);
  });
}

TEST(ParEdge, InvalidRankCountRejected) {
  EXPECT_THROW(par::run_spmd(0, [](par::Comm&) {}), Error);
}

TEST(CostModelEdge, BytesMatterAtFixedMessageCount) {
  par::PerfCounters light, heavy;
  light.neighbor_msgs = heavy.neighbor_msgs = 10;
  light.neighbor_bytes = 100;
  heavy.neighbor_bytes = 10000000;
  const auto m = par::MachineModel::ibm_sp2();
  EXPECT_GT(par::model_time(m, std::vector{heavy, heavy}).neighbor,
            par::model_time(m, std::vector{light, light}).neighbor);
}

// ---- orthogonal polynomials ----

TEST(OrthopolyEdge, TooFewNodesRejected) {
  const core::QuadratureRule rule = core::chebyshev_rule({{0.5, 1.5}}, 4);
  EXPECT_THROW(core::OrthoBasis(rule, 4), Error);  // needs > degree nodes
  EXPECT_NO_THROW(core::OrthoBasis(rule, 3));
}

TEST(OrthopolyEdge, RuleValidation) {
  EXPECT_THROW((void)core::chebyshev_rule({}, 8), Error);
  EXPECT_THROW((void)core::chebyshev_rule({{1.0, 0.5}}, 8), Error);
  EXPECT_THROW((void)core::chebyshev_rule({{0.5, 1.5}}, 0), Error);
}

TEST(OrthopolyEdge, AccessorsRangeChecked) {
  const core::QuadratureRule rule = core::chebyshev_rule({{0.5, 1.5}}, 32);
  const core::OrthoBasis basis(rule, 3);
  EXPECT_THROW((void)basis.alpha(3), Error);
  EXPECT_THROW((void)basis.sqrt_beta(4), Error);
  EXPECT_NO_THROW((void)basis.sqrt_beta(3));
}

// ---- solvers ----

TEST(FgmresEdge, MaxItersCapReportsNotConverged) {
  const sparse::CsrMatrix a = sparse::laplace2d(12, 12);
  Vector b(144, 1.0), x(144, 0.0);
  core::IdentityPrecond none;
  core::SolveOptions opts;
  opts.max_iters = 3;
  opts.tol = 1e-12;
  const core::SolveReport res = core::fgmres(a, b, x, none, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
  EXPECT_EQ(res.history.size(), 3u);
}

TEST(SolverEdge, ZeroRhsConvergesInZeroIterations) {
  // ‖f‖ = 0 makes the relative residual 0/0; every Krylov driver must
  // short-circuit to x = 0, converged, without touching NaNs — even from
  // a nonzero initial guess.
  const sparse::CsrMatrix a = sparse::laplace2d(8, 8);
  const Vector b(64, 0.0);
  core::IdentityPrecond none;
  core::SolveOptions opts;
  opts.tol = 1e-10;

  const auto check = [](const core::SolveReport& res, const Vector& x) {
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0);
    EXPECT_EQ(res.final_relres, 0.0);
    EXPECT_FALSE(std::isnan(res.final_relres));
    for (real_t v : x) EXPECT_EQ(v, 0.0);
  };

  Vector x(64, 3.0);  // nonzero guess must be overwritten with the solution
  check(core::fgmres(a, b, x, none, opts), x);
}

// ---- Typed failure on a degenerate operator: a zero row of the
// assembled matrix must surface as BadOperatorError from every
// distributed solver, never as an untyped check.

fem::CantileverProblem small_cantilever() {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  return fem::make_cantilever(spec);
}

/// Zero every stored entry in the row and column of `dead` (pattern
/// kept); `to_global` maps the matrix's row/column ids to global dofs.
void zero_dof(sparse::CsrMatrix& k, std::span<const index_t> to_global,
              index_t dead) {
  const auto rp = k.row_ptr();
  const auto ci = k.col_idx();
  const auto vals = k.values();
  for (index_t i = 0; i < k.rows(); ++i)
    for (index_t p = rp[i]; p < rp[i + 1]; ++p)
      if (to_global[i] == dead || to_global[ci[p]] == dead) vals[p] = 0.0;
}

/// Per-rank EDD matrices of `part` with global dof `dead` zeroed — the
/// local_matrices override the EDD solvers accept.
std::vector<sparse::CsrMatrix> zeroed_dof_override(
    const partition::EddPartition& part, index_t dead) {
  std::vector<sparse::CsrMatrix> mats;
  for (const auto& sub : part.subs) {
    mats.push_back(sub.k_loc);
    zero_dof(mats.back(), sub.local_to_global, dead);
  }
  return mats;
}

TEST(ZeroRowEdge, EddCgThrowsBadOperator) {
  const fem::CantileverProblem prob = small_cantilever();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  const auto mats = zeroed_dof_override(part, /*dead=*/5);
  EXPECT_THROW((void)core::solve_edd_cg(part, prob.load, {}, {}, &mats),
               BadOperatorError);
}

TEST(ZeroRowEdge, RddThrowsBadOperator) {
  fem::CantileverProblem prob = small_cantilever();
  IndexVector identity(static_cast<std::size_t>(prob.stiffness.rows()));
  for (std::size_t i = 0; i < identity.size(); ++i)
    identity[i] = static_cast<index_t>(i);
  zero_dof(prob.stiffness, identity, /*dead=*/5);
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  EXPECT_THROW((void)core::solve_rdd(part, prob.load), BadOperatorError);
}

// ---- An Inf stiffness entry: the norm-1 scaling 1/√‖k_i‖₁ does not
// exist, so every setup refuses it typed — never d = 0 and a NaN
// operator reported as converged.

/// Per-rank EDD matrices of `part` with one stored entry of rank 0's
/// first row set to +Inf.
std::vector<sparse::CsrMatrix> inf_entry_override(
    const partition::EddPartition& part) {
  std::vector<sparse::CsrMatrix> mats;
  for (const auto& sub : part.subs) mats.push_back(sub.k_loc);
  mats.front().values()[0] = std::numeric_limits<real_t>::infinity();
  return mats;
}

TEST(InfEntryEdge, EddThrowsBadOperator) {
  const fem::CantileverProblem prob = small_cantilever();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  const auto mats = inf_entry_override(part);
  EXPECT_THROW((void)core::solve_edd(part, prob.load, {}, {},
                                     core::EddVariant::Enhanced, &mats),
               BadOperatorError);
}

TEST(InfEntryEdge, BuildEddOperatorThrowsBadOperator) {
  const fem::CantileverProblem prob = small_cantilever();
  const partition::EddPartition part = exp::make_edd(prob, 4);
  const auto mats = inf_entry_override(part);
  par::Team team(part.nparts());
  EXPECT_THROW((void)core::build_edd_operator(team, part, {}, &mats),
               BadOperatorError);
}

TEST(InfEntryEdge, RddThrowsBadOperator) {
  fem::CantileverProblem prob = small_cantilever();
  prob.stiffness.values()[7] = std::numeric_limits<real_t>::infinity();
  const partition::RddPartition part = exp::make_rdd(prob, 4);
  EXPECT_THROW((void)core::solve_rdd(part, prob.load), BadOperatorError);
}

TEST(InfEntryEdge, SequentialScalingThrowsBadOperator) {
  sparse::CsrMatrix a = sparse::tridiag(4, 2.0, -1.0);
  a.values()[5] = std::numeric_limits<real_t>::infinity();
  EXPECT_THROW((void)core::norm1_scaling(a), BadOperatorError);
}

// ---- One input check for every solve (core::solve_input_error): a
// non-finite RHS entry or tol, restart < 1 (CG excepted: it does not
// restart) or max_iters < 1 is refused with the check's own message,
// never reported as a converged solve.

TEST(SolveInputEdge, NonFiniteRhsIsRefusedByEverySolver) {
  const fem::CantileverProblem prob = small_cantilever();
  const partition::EddPartition edd = exp::make_edd(prob, 4);
  const partition::RddPartition rdd = exp::make_rdd(prob, 4);
  core::IdentityPrecond none;
  par::Team team(edd.nparts());
  const core::EddOperatorState op =
      core::build_edd_operator(team, edd, core::PolySpec{});
  for (const real_t bad : {std::numeric_limits<real_t>::quiet_NaN(),
                           std::numeric_limits<real_t>::infinity()}) {
    Vector f = prob.load;
    f[3] = bad;
    const std::string msg = core::solve_input_error({}, f);
    ASSERT_NE(msg.find("RHS entry 3"), std::string::npos) << msg;
    const auto refused = [&](const auto& solve) {
      try {
        solve();
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), msg);
        return;
      }
      ADD_FAILURE() << "a non-finite RHS entry was accepted";
    };
    refused([&] { (void)core::solve_edd(edd, f, {}); });
    refused([&] {
      (void)core::solve_edd(edd, f, {}, {}, core::EddVariant::Basic);
    });
    refused([&] { (void)core::solve_edd_cg(edd, f, {}); });
    refused([&] { (void)core::solve_rdd(rdd, f); });
    refused([&] {
      (void)core::solve_edd_batch(team, edd, op, std::vector<Vector>{f});
    });
    Vector x(f.size(), 0.0);
    refused([&] { (void)core::fgmres(prob.stiffness, f, x, none); });
  }
}

TEST(SolveInputEdge, BadOptionsAreRefusedWithTheCheckMessage) {
  const fem::CantileverProblem prob = small_cantilever();
  const partition::EddPartition edd = exp::make_edd(prob, 2);
  const partition::RddPartition rdd = exp::make_rdd(prob, 2);
  core::SolveOptions bad[5];
  bad[0].tol = -1.0;
  bad[1].tol = std::numeric_limits<real_t>::infinity();
  bad[2].tol = std::numeric_limits<real_t>::quiet_NaN();
  bad[3].restart = 0;
  bad[4].max_iters = 0;
  for (const core::SolveOptions& o : bad) {
    const std::string msg = core::solve_input_error(o, prob.load);
    ASSERT_FALSE(msg.empty());
    const auto refused = [&](const auto& solve) {
      try {
        solve();
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), msg);
        return;
      }
      ADD_FAILURE() << "accepted: " << msg;
    };
    refused([&] { (void)core::solve_edd(edd, prob.load, {}, o); });
    refused([&] { (void)core::solve_rdd(rdd, prob.load, {}, o); });
    if (o.restart >= 1)  // CG does not restart: it skips that check
      refused([&] { (void)core::solve_edd_cg(edd, prob.load, {}, o); });
  }
  // CG runs with restart = 0.
  EXPECT_TRUE(core::solve_input_error(bad[3], prob.load, false).empty());
  EXPECT_TRUE(core::solve_edd_cg(edd, prob.load, {}, bad[3]).converged);
}

// ---- PCG ends in a typed breakdown, never an untyped check, when
// pᵀAp is not positive and finite.  A finite RHS entry of 1e300 passes
// the input check but overflows the iterates on the first iteration.

/// The 16x6 cantilever and its load with one entry raised to 1e300.
struct OverflowScene {
  fem::CantileverProblem prob;
  Vector f;
};

OverflowScene overflow_scene() {
  fem::CantileverSpec spec;
  spec.nx = 16;
  spec.ny = 6;
  OverflowScene sc{fem::make_cantilever(spec), {}};
  sc.f = sc.prob.load;
  sc.f[3] = 1e300;
  return sc;
}

TEST(PcgBreakdownEdge, EddOverflowEndsInTypedBreakdown) {
  const OverflowScene sc = overflow_scene();
  const partition::EddPartition part = exp::make_edd(sc.prob, 4);
  core::PolySpec poly;
  poly.degree = 7;
  const core::SolveOptions opts;
  core::DistSolve res;
  ASSERT_NO_THROW(res = core::solve_edd_cg(part, sc.f, poly, opts));
  EXPECT_TRUE(res.breakdown);
  EXPECT_FALSE(res.converged);
  EXPECT_FALSE(res.final_relres <= opts.tol);
  EXPECT_LT(res.iterations, opts.max_iters);
  EXPECT_TRUE(res.comm_error.empty());
}

TEST(FgmresEdge, InvalidOptionsRejected) {
  const sparse::CsrMatrix a = sparse::tridiag(4, 2.0, -1.0);
  Vector b(4, 1.0), x(4, 0.0);
  core::IdentityPrecond none;
  core::SolveOptions opts;
  opts.restart = 0;
  EXPECT_THROW((void)core::fgmres(a, b, x, none, opts), Error);
  opts.restart = 25;
  opts.tol = 0.0;
  EXPECT_THROW((void)core::fgmres(a, b, x, none, opts), Error);
}

TEST(FgmresEdge, SizeMismatchRejected) {
  const sparse::CsrMatrix a = sparse::tridiag(4, 2.0, -1.0);
  Vector b(5, 1.0), x(4, 0.0);
  core::IdentityPrecond none;
  EXPECT_THROW((void)core::fgmres(a, b, x, none), Error);
}

TEST(PrecondEdge, JacobiRejectsZeroDiagonal) {
  sparse::CooBuilder coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 0.0);
  const sparse::CsrMatrix a = coo.build();
  EXPECT_THROW(core::JacobiPrecond p(a), Error);
}

// ---- dense ----

TEST(DenseEdge, MultiplyShapeMismatchRejected) {
  la::DenseMatrix a(2, 3), b(2, 2);
  EXPECT_THROW((void)a.multiply(b), Error);
  EXPECT_THROW((void)a.max_abs_diff(b), Error);
}

TEST(DenseEdge, MatvecTransposeMatchesExplicitTranspose) {
  la::DenseMatrix a(3, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  a(2, 0) = 5;
  a(2, 1) = 6;
  Vector x{1.0, -1.0, 2.0}, y1(2), y2(2);
  a.matvec_transpose(x, y1);
  a.transposed().matvec(x, y2);
  EXPECT_DOUBLE_EQ(y1[0], y2[0]);
  EXPECT_DOUBLE_EQ(y1[1], y2[1]);
}

// ---- harness ----

TEST(TableEdge, RowWidthEnforced) {
  exp::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(TableEdge, CsvEscapesSeparatorsAndQuotes) {
  exp::Table t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "quote\"inside"});
  std::stringstream ss;
  t.print_csv(ss);
  const std::string csv = ss.str();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\",\"quote\"\"inside\"\n"),
            std::string::npos);
}

TEST(TableEdge, FormattersBehave) {
  EXPECT_EQ(exp::Table::integer(42), "42");
  EXPECT_EQ(exp::Table::num(1.5, 2), "1.50");
  EXPECT_EQ(exp::Table::sci(0.0012, 1), "1.2e-03");
}

}  // namespace
}  // namespace pfem
