// Ablation: assembled CSR vs element-by-element (EBE) operator —
// storage, flops per apply and wall time of the mat-vec, and a full
// GLS(7)-preconditioned FGMRES solve through the element sweep.
#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/edd_solver.hpp"
#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/ebe.hpp"
#include "fem/problems.hpp"

int main(int argc, char** argv) {
  using namespace pfem;
  const bool full = bench::full_run(argc, argv);
  fem::CantileverSpec spec;
  spec.nx = full ? 80 : 40;
  spec.ny = spec.nx;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const fem::EbeOperator ebe(prob.mesh, prob.dofs, prob.material,
                             fem::Operator::Stiffness);

  exp::banner(std::cout, "Ablation — assembled CSR vs element-by-element "
                         "operator (" + std::to_string(prob.dofs.num_free()) +
                         " equations)");

  // Mat-vec agreement + wall time.
  const std::size_t n = prob.load.size();
  Vector x(n), y1(n), y2(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.37 * double(i));
  prob.stiffness.spmv(x, y1);
  ebe.apply(x, y2);
  real_t diff = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    diff = std::max(diff, std::abs(y1[i] - y2[i]));

  auto time_applies = [&](auto&& fn) {
    const int reps = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0).count() / reps;
  };
  const double t_csr = time_applies([&] { prob.stiffness.spmv(x, y1); });
  const double t_ebe = time_applies([&] { ebe.apply(x, y2); });

  exp::Table table({"operator", "stored values", "flops/apply",
                    "apply time (us)"});
  table.add_row({"assembled CSR",
                 exp::Table::integer(prob.stiffness.nnz()),
                 exp::Table::integer(static_cast<long long>(
                     prob.stiffness.spmv_flops())),
                 exp::Table::num(t_csr * 1e6, 1)});
  table.add_row({"element-by-element",
                 exp::Table::integer(static_cast<long long>(
                     ebe.stored_values())),
                 exp::Table::integer(static_cast<long long>(
                     ebe.apply_flops())),
                 exp::Table::num(t_ebe * 1e6, 1)});
  table.print(std::cout);
  std::cout << "max |y_csr - y_ebe| = " << exp::Table::sci(diff, 2) << "\n";

  // End-to-end: FGMRES+GLS(7) through the element sweep — solve_edd at
  // P = 1 with the matrix-free Format::Ebe rank kernel, which applies
  // the same element store (no assembled matrix in the iteration).
  const partition::EddPartition part = exp::make_edd(prob, 1);
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;
  opts.kernels.format = core::KernelOptions::Format::Ebe;
  const core::DistSolve res = core::solve_edd(part, prob.load, {}, opts);
  std::cout << "matrix-free FGMRES-GLS(7): "
            << (res.converged ? "converged" : "FAILED") << " in "
            << res.iterations << " iterations\n";
  std::cout << "\nexpected: EBE stores ~1.6x the values and costs ~1.6x the "
               "flops per apply, but needs no assembly at all\n(the paper's "
               "no-assembly theme taken to its limit).\n";
  return res.converged ? 0 : 1;
}
