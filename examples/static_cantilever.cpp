// Static cantilever study: compare preconditioners and domain
// decompositions on one problem, sequential and parallel, and show the
// modeled machine times.
//
//   $ ./static_cantilever [nx ny nparts]     (default 40 20 4)
#include <cstdlib>
#include <iostream>

#include "core/edd_solver.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "par/cost_model.hpp"

int main(int argc, char** argv) {
  using namespace pfem;
  fem::CantileverSpec spec;
  spec.nx = argc > 1 ? std::atoi(argv[1]) : 40;
  spec.ny = argc > 2 ? std::atoi(argv[2]) : 20;
  const int nparts = argc > 3 ? std::atoi(argv[3]) : 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);

  exp::banner(std::cout, "static cantilever " + std::to_string(spec.nx) +
                             "x" + std::to_string(spec.ny) + ", " +
                             std::to_string(prob.dofs.num_free()) +
                             " equations, P = " + std::to_string(nparts));

  // --- Single-process preconditioner shoot-out: solve_rdd on a
  // one-part partition (norm-1 scaling, then FGMRES).
  const partition::RddPartition one = exp::make_rdd(prob, 1);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;
  exp::Table seq({"sequential preconditioner", "iterations"});
  core::RddOptions ilu;
  ilu.precond = core::RddOptions::Precond::BlockJacobiIlu;
  seq.add_row({"ILU(0)", exp::Table::integer(
                             core::solve_rdd(one, prob.load, ilu, opts)
                                 .iterations)});
  for (int m : {3, 7, 10}) {
    core::RddOptions gls;
    gls.poly.degree = m;
    seq.add_row({gls.poly.name(),
                 exp::Table::integer(
                     core::solve_rdd(one, prob.load, gls, opts).iterations)});
  }
  seq.print(std::cout);

  // --- Parallel EDD vs RDD with GLS(7), modeled on both machines.
  core::PolySpec poly;
  poly.degree = 7;
  const partition::EddPartition epart = exp::make_edd(prob, nparts);
  const partition::RddPartition rpart = exp::make_rdd(prob, nparts);
  const core::DistSolve edd =
      core::solve_edd(epart, prob.load, poly, opts);
  core::RddOptions rdd_opts;
  rdd_opts.poly = poly;
  const core::DistSolve rdd =
      core::solve_rdd(rpart, prob.load, rdd_opts, opts);

  exp::Table par_table({"solver", "iterations", "T(SP2) s", "T(Origin) s",
                        "wall s (this host)"});
  auto add = [&](const std::string& name, const core::DistSolve& r) {
    par_table.add_row(
        {name, exp::Table::integer(r.iterations),
         exp::Table::num(
             par::model_time(par::MachineModel::ibm_sp2(), r.rank_counters)
                 .total(), 4),
         exp::Table::num(
             par::model_time(par::MachineModel::sgi_origin(), r.rank_counters)
                 .total(), 4),
         exp::Table::num(r.wall_seconds, 4)});
  };
  add("EDD-FGMRES-GLS(7)", edd);
  add("RDD-FGMRES-GLS(7)", rdd);
  par_table.print(std::cout);

  // Cross-check: both decompositions give the same displacement field.
  real_t maxdiff = 0.0;
  for (std::size_t i = 0; i < edd.x.size(); ++i)
    maxdiff = std::max(maxdiff, std::abs(edd.x[i] - rdd.x[i]));
  std::cout << "max |u_EDD - u_RDD| = " << maxdiff << "\n";
  return (edd.converged && rdd.converged) ? 0 : 1;
}
