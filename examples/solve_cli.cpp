// pfem solve CLI — drive the whole solver stack from the command line on
// a MatrixMarket system or a pfem-mesh file.
//
//   $ ./solve_cli --matrix system.mtx [options]
//   $ ./solve_cli --mesh beam.mesh --clamp-x 0 --pull-x 10 --load 100 [opts]
//   $ ./solve_cli --demo [options]                  (built-in cantilever)
//
// Options:
//   --dd edd|rdd            domain decomposition (default edd; rdd for
//                           --matrix input, which has no mesh)
//   --solver fgmres|cg      Krylov method (default fgmres; cg needs edd)
//   --precond gls|neumann|cheb|none|ilu|schwarz   (default gls; ilu and
//                           schwarz are RDD preconditioners)
//   --degree N              polynomial degree (default 7)
//   --parts P               subdomains/ranks (default 4)
//   --tol T                 relative residual target (default 1e-6)
//   --restart M             FGMRES restart (default 25)
//   --adaptive-theta        pick Θ by a 30-step Lanczos estimate
//   --machine sp2|origin|modern   report modeled time (default origin)
#include <cstdlib>
#include <optional>
#include <cstring>
#include <iostream>
#include <string>

#include "core/cg.hpp"
#include "core/diag_scaling.hpp"
#include "core/edd_solver.hpp"
#include "core/rdd_solver.hpp"
#include "exp/experiments.hpp"
#include "exp/table.hpp"
#include "fem/mesh_io.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "par/cost_model.hpp"
#include "sparse/io.hpp"
#include "sparse/lanczos.hpp"

namespace {

using namespace pfem;

struct Args {
  std::string matrix, mesh;
  bool demo = false;
  std::string dd = "edd";
  std::string solver = "fgmres";
  std::string precond = "gls";
  int degree = 7;
  int parts = 4;
  double tol = 1e-6;
  int restart = 25;
  bool adaptive_theta = false;
  std::string machine = "origin";
  double clamp_x = 0.0, pull_x = -1.0, load = 100.0;
};

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--matrix") a.matrix = need(i);
    else if (flag == "--mesh") a.mesh = need(i);
    else if (flag == "--demo") a.demo = true;
    else if (flag == "--dd") a.dd = need(i);
    else if (flag == "--solver") a.solver = need(i);
    else if (flag == "--precond") a.precond = need(i);
    else if (flag == "--degree") a.degree = std::atoi(need(i));
    else if (flag == "--parts") a.parts = std::atoi(need(i));
    else if (flag == "--tol") a.tol = std::atof(need(i));
    else if (flag == "--restart") a.restart = std::atoi(need(i));
    else if (flag == "--adaptive-theta") a.adaptive_theta = true;
    else if (flag == "--machine") a.machine = need(i);
    else if (flag == "--clamp-x") a.clamp_x = std::atof(need(i));
    else if (flag == "--pull-x") a.pull_x = std::atof(need(i));
    else if (flag == "--load") a.load = std::atof(need(i));
    else {
      std::cerr << "unknown flag " << flag << " (see the header comment)\n";
      std::exit(2);
    }
  }
  const auto reject = [](const std::string& why) {
    std::cerr << why << "\n";
    std::exit(2);
  };
  if (a.solver != "fgmres" && a.solver != "cg")
    reject("unknown --solver " + a.solver + " (fgmres or cg)");
  if (a.dd != "edd" && a.dd != "rdd")
    reject("unknown --dd " + a.dd + " (edd or rdd)");
  const bool rdd_precond = a.precond == "ilu" || a.precond == "schwarz";
  if (!rdd_precond && a.precond != "gls" && a.precond != "neumann" &&
      a.precond != "cheb" && a.precond != "none")
    reject("unknown --precond " + a.precond +
           " (gls, neumann, cheb, none, ilu or schwarz)");
  if (a.matrix.empty() && a.mesh.empty() && !a.demo)
    reject("need --matrix, --mesh or --demo");
  // --matrix input has no mesh, so it always runs the RDD path.
  const bool rdd = a.dd == "rdd" || !a.matrix.empty();
  if (rdd && a.solver == "cg")
    reject("--solver cg runs on EDD only (RDD runs FGMRES); use a --mesh "
           "or --demo input with --dd edd");
  if (!rdd && rdd_precond)
    reject("--precond " + a.precond +
           " is an RDD preconditioner; use --dd rdd");
  return a;
}

par::MachineModel machine_for(const std::string& name) {
  if (name == "sp2") return par::MachineModel::ibm_sp2();
  if (name == "modern") return par::MachineModel::modern_node();
  return par::MachineModel::sgi_origin();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  core::SolveOptions opts;
  opts.tol = args.tol;
  opts.restart = args.restart;
  opts.max_iters = 200000;

  core::PolySpec poly;
  poly.degree = args.degree;
  if (args.precond == "neumann") poly.kind = core::PolyKind::Neumann;
  else if (args.precond == "cheb") poly.kind = core::PolyKind::Chebyshev;
  else if (args.precond == "none") poly.kind = core::PolyKind::None;
  else poly.kind = core::PolyKind::Gls;  // gls, or unused by ilu/schwarz

  // ---- Build the problem.
  sparse::CsrMatrix k;
  Vector f;
  std::optional<fem::CantileverProblem> prob;  // FE input path

  if (!args.matrix.empty()) {
    k = sparse::read_matrix_market(args.matrix);
    if (k.rows() != k.cols()) {
      std::cerr << "need a square system\n";
      return 1;
    }
    f.assign(static_cast<std::size_t>(k.rows()), 1.0);
    std::cout << "matrix " << args.matrix << ": " << k.rows() << " x "
              << k.cols() << ", " << k.nnz() << " nnz\n";
  } else if (!args.mesh.empty()) {
    fem::Mesh mesh = fem::read_mesh(args.mesh);
    fem::DofMap dofs(mesh.num_nodes(), mesh.dim());
    for (index_t n : mesh.nodes_at_x(args.clamp_x)) dofs.fix_node(n);
    dofs.finalize();
    if (dofs.num_free() == dofs.num_total()) {
      std::cerr << "no nodes at --clamp-x " << args.clamp_x
                << "; the system would be singular\n";
      return 1;
    }
    fem::Material mat;
    sparse::CsrMatrix kk =
        fem::assemble(mesh, dofs, mat, fem::Operator::Stiffness);
    Vector ff(static_cast<std::size_t>(dofs.num_free()), 0.0);
    const real_t pull =
        args.pull_x >= 0.0 ? args.pull_x : mesh.bounding_box()[1];
    fem::add_edge_load(dofs, mesh.nodes_at_x(pull), 0, args.load, ff);
    prob.emplace(fem::CantileverProblem{std::move(mesh), std::move(dofs),
                                        mat, std::move(kk), std::move(ff),
                                        0, 0, 0});
    k = prob->stiffness;
    f = prob->load;
    std::cout << "mesh " << args.mesh << ": "
              << prob->mesh.num_elems() << " elements, "
              << prob->dofs.num_free() << " equations\n";
  } else {
    fem::CantileverSpec spec;
    spec.nx = 40;
    spec.ny = 20;
    prob.emplace(fem::make_cantilever(spec));
    k = prob->stiffness;
    f = prob->load;
    std::cout << "demo cantilever 40x20: " << prob->dofs.num_free()
              << " equations\n";
  }

  if (args.adaptive_theta && poly.kind != core::PolyKind::None) {
    const core::ScaledSystem s = core::scale_system(k, f);
    const sparse::Interval iv = sparse::estimate_spectrum(s.a, 30);
    poly.theta = {{iv.lo, iv.hi}};
    std::cout << "adaptive Theta = [" << iv.lo << ", " << iv.hi << "]\n";
  }

  // ---- Solve.
  core::DistSolve res;
  std::string solver_name;
  if (args.dd == "edd" && prob.has_value()) {
    const partition::EddPartition part = exp::make_edd(*prob, args.parts);
    if (args.solver == "cg") {
      res = core::solve_edd_cg(part, f, poly, opts);
      solver_name = "EDD-PCG-" + poly.name();
    } else {
      res = core::solve_edd(part, f, poly, opts);
      solver_name = "EDD-FGMRES-" + poly.name();
    }
  } else {
    if (args.dd == "edd")
      std::cout << "(no mesh input: falling back to the RDD row "
                   "decomposition)\n";
    IndexVector row_part(static_cast<std::size_t>(k.rows()));
    for (std::size_t i = 0; i < row_part.size(); ++i)
      row_part[i] = static_cast<index_t>(
          (i * static_cast<std::size_t>(args.parts)) / row_part.size());
    partition::RddPartition part =
        partition::build_rdd_partition(k, row_part, args.parts);
    core::RddOptions rdd;
    rdd.poly = poly;
    if (args.precond == "ilu")
      rdd.precond = core::RddOptions::Precond::BlockJacobiIlu;
    else if (args.precond == "schwarz")
      rdd.precond = core::RddOptions::Precond::AdditiveSchwarz;
    res = core::solve_rdd(part, f, rdd, opts);
    solver_name = "RDD-FGMRES-" +
                  (args.precond == "ilu"
                       ? std::string("blockILU")
                       : (args.precond == "schwarz" ? std::string("RAS")
                                                    : poly.name()));
  }

  // ---- Report.
  const par::MachineModel machine = machine_for(args.machine);
  std::cout << solver_name << " on P = " << args.parts << ": "
            << (res.converged ? "converged" : "FAILED") << " in "
            << res.iterations << " iterations (relres "
            << exp::Table::sci(res.final_relres, 2) << ")\n";
  std::cout << "wall " << exp::Table::num(res.wall_seconds, 4)
            << " s on this host; modeled "
            << exp::Table::num(par::model_time(machine, res.rank_counters)
                                   .total(), 4)
            << " s on " << machine.name << "\n";
  std::cout << "||u||_inf = " << la::nrm_inf(res.x) << "\n";
  return res.converged ? 0 : 1;
}
