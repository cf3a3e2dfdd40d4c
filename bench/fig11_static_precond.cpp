// Fig. 11: ILU(0) vs polynomial preconditioners for the *static*
// cantilever (Mesh1 and Mesh2), single processor: solve_rdd on a
// one-part partition, the P = 1 case of Algorithm 8 (norm-1 scaling,
// then FGMRES; block-Jacobi ILU(0) at P = 1 is ILU(0) of the scaled
// matrix).  Paper's finding:
//   GLS(7)  >  ILU(0)  >  Neumann(20)     ("converges faster than")
// with all three far ahead of the unpreconditioned solver.
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
  exp::banner(std::cout, "Fig. 11 — static, Mesh" + std::to_string(mesh_no) +
                             " (" + std::to_string(prob.dofs.num_free()) +
                             " equations)");
  const partition::RddPartition part = exp::make_rdd(prob, 1);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;

  exp::Table table({"preconditioner", "iterations", "mat-vecs/apply",
                    "final relres"});
  auto run = [&](const core::RddOptions& rdd) {
    const bool ilu = rdd.precond == core::RddOptions::Precond::BlockJacobiIlu;
    const std::string name = ilu ? "ILU(0)" : rdd.poly.name();
    const int matvecs =
        ilu || rdd.poly.kind == core::PolyKind::None ? 0 : rdd.poly.degree;
    const core::DistSolve res = core::solve_rdd(part, prob.load, rdd, opts);
    table.add_row({name, exp::Table::integer(res.iterations),
                   exp::Table::integer(matvecs),
                   exp::Table::sci(res.final_relres, 2)});
    bench::print_history(name, res.history);
  };
  auto poly = [](core::PolyKind kind, int degree) {
    core::RddOptions rdd;
    rdd.poly.kind = kind;
    rdd.poly.degree = degree;
    return rdd;
  };

  run(poly(core::PolyKind::None, 0));
  core::RddOptions ilu;
  ilu.precond = core::RddOptions::Precond::BlockJacobiIlu;
  run(ilu);
  run(poly(core::PolyKind::Gls, 7));
  run(poly(core::PolyKind::Neumann, 20));
  table.print(std::cout);
}

}  // namespace

int main() {
  run_mesh(1);
  run_mesh(2);
  std::cout << "\npaper's ordering (iterations): GLS(7) < ILU(0) < "
               "Neumann(20), all << unpreconditioned\n";
  return 0;
}
