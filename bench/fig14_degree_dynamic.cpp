// Fig. 14: convergence vs GLS polynomial degree, dynamic analysis
// (Newmark effective system), Mesh1 and Mesh2.  Same ordering as the
// static case with uniformly fewer iterations.  Single processor:
// solve_rdd on a one-part partition of K_eff (Algorithm 8 at P = 1).
#include <iostream>

#include "bench_common.hpp"
#include "core/rdd_solver.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "timeint/newmark.hpp"

namespace {

using namespace pfem;

void run_mesh(int mesh_no) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh_no);
  const sparse::CsrMatrix m = prob.assemble_mass();
  timeint::NewmarkOptions nopts;
  const timeint::Newmark nm(prob.stiffness, m, nopts);
  exp::banner(std::cout, "Fig. 14 — dynamic degree sweep, Mesh" +
                             std::to_string(mesh_no) + " (dt = " +
                             exp::Table::num(nopts.dt, 3) + ")");

  const partition::RddPartition part = partition::build_rdd_partition(
      nm.k_eff(), IndexVector(prob.load.size(), 0), 1);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;

  exp::Table table({"preconditioner", "iterations", "final relres"});
  for (int deg : {1, 3, 7, 10, 20}) {
    core::RddOptions rdd;
    rdd.poly.degree = deg;
    const core::DistSolve res = core::solve_rdd(part, prob.load, rdd, opts);
    table.add_row({rdd.poly.name(), exp::Table::integer(res.iterations),
                   exp::Table::sci(res.final_relres, 2)});
    bench::print_history(rdd.poly.name(), res.history);
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  run_mesh(1);
  run_mesh(2);
  return 0;
}
