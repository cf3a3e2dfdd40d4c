// Elastodynamics example: march the cantilever under a suddenly applied
// tip load with Newmark-β, solving each implicit step with the parallel
// EDD-FGMRES-GLS solver, and print the tip displacement trace (which
// oscillates around twice the static deflection — the classical dynamic
// amplification of a step load).
//
//   $ ./dynamic_cantilever [steps nparts]    (default 20 4)
#include <cstdlib>
#include <iostream>

#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/problems.hpp"
#include "timeint/dynamic_driver.hpp"

int main(int argc, char** argv) {
  using namespace pfem;
  const index_t steps = argc > 1 ? std::atoi(argv[1]) : 20;
  const int nparts = argc > 2 ? std::atoi(argv[2]) : 4;

  fem::CantileverSpec spec;
  spec.nx = 16;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, nparts);

  exp::banner(std::cout, "dynamic cantilever, Newmark-beta + EDD-FGMRES-GLS(7), "
                         "P = " + std::to_string(nparts));

  timeint::DynamicRunOptions opts;
  opts.steps = steps;
  opts.newmark.dt = 0.5;
  opts.solve.tol = 1e-8;
  core::PolySpec poly;
  poly.degree = 7;

  // Instrumented run: re-do the march step by step so we can print the
  // tip trajectory (run_dynamic_edd returns only the final state).
  const sparse::CsrMatrix m =
      fem::assemble(prob.mesh, prob.dofs, prob.material, fem::Operator::Mass);
  const timeint::Newmark nm(prob.stiffness, m, opts.newmark);

  std::vector<sparse::CsrMatrix> k_eff;
  for (int s = 0; s < part.nparts(); ++s) {
    sparse::CsrMatrix ke = part.subs[static_cast<std::size_t>(s)].k_loc;
    ke.add_same_pattern(partition::assemble_edd_local(
                            prob.mesh, prob.dofs, prob.material,
                            fem::Operator::Mass, part, s),
                        nm.a0());
    k_eff.push_back(std::move(ke));
  }

  const IndexVector tip_nodes =
      prob.mesh.nodes_at_x(static_cast<real_t>(spec.nx));
  const index_t tip_dof =
      prob.dofs.dof(tip_nodes[tip_nodes.size() / 2], 0);

  const std::size_t n = prob.load.size();
  Vector u(n, 0.0), v(n, 0.0);
  // a0 from M a = f (zero initial displacement/velocity).
  Vector a = timeint::initial_acceleration(m, prob.load);

  exp::Table table({"step", "t", "iterations", "tip u_x"});
  index_t total_iters = 0;
  for (index_t step = 1; step <= steps; ++step) {
    const Vector rhs = nm.effective_rhs(u, v, a, prob.load);
    const core::DistSolve res =
        core::solve_edd(part, rhs, poly, opts.solve, core::EddVariant::Enhanced,
                        &k_eff);
    if (!res.converged) {
      std::cerr << "step " << step << " failed to converge\n";
      return 1;
    }
    total_iters += res.iterations;
    nm.advance(res.x, u, v, a);
    table.add_row({exp::Table::integer(step),
                   exp::Table::num(step * opts.newmark.dt, 2),
                   exp::Table::integer(res.iterations),
                   exp::Table::num(u[static_cast<std::size_t>(tip_dof)], 5)});
  }
  table.print(std::cout);
  std::cout << "total solver iterations over " << steps << " steps: "
            << total_iters << "\n";
  return 0;
}
