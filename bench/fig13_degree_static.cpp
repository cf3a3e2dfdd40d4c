// Fig. 13: convergence vs GLS polynomial degree, static analysis,
// Mesh1 and Mesh2.  Paper's ordering in iteration count:
//   GLS(20) > GLS(10) > GLS(7) > GLS(3) > GLS(1)
// (but each iteration of a higher degree costs more mat-vecs — the
// time trade-off is what Table 3 explores).  Single processor:
// solve_rdd on a one-part partition (Algorithm 8 at P = 1).
#include <iostream>

#include "bench_common.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"

namespace {

using namespace pfem;

void run_mesh(int mesh_no) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh_no);
  exp::banner(std::cout, "Fig. 13 — static degree sweep, Mesh" +
                             std::to_string(mesh_no));
  const partition::RddPartition part = exp::make_rdd(prob, 1);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;

  exp::Table table({"preconditioner", "iterations", "total mat-vecs",
                    "final relres"});
  for (int m : {1, 3, 7, 10, 20}) {
    core::RddOptions rdd;
    rdd.poly.degree = m;
    const core::DistSolve res = core::solve_rdd(part, prob.load, rdd, opts);
    table.add_row({rdd.poly.name(), exp::Table::integer(res.iterations),
                   exp::Table::integer(static_cast<long long>(res.iterations) *
                                       (m + 1)),
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
