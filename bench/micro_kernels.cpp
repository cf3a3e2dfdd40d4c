// google-benchmark micro-benchmarks of the solver's time-consuming
// kernels (§3.1.2): SpMV, polynomial application, ILU(0) solve, the
// nearest-neighbor exchange, and the allreduce.
//
// --kernels-json=PATH additionally runs the CSR-vs-SELL-vs-fused kernel
// sweep over the Table 2 mesh family and writes one JSON record per
// mesh (timings, GFLOP/s, speedups) before the google benchmarks.
//
// --ebe-json=PATH runs the matrix-free sweep instead: the Format::Ebe
// rank kernel (per-element dense matrices, gather-multiply-scatter)
// against scaled scalar CSR and SELL-C-σ on the same meshes, with a
// bytes-per-dof column for all three storage formats.  EBE is not
// bit-identical to the assembled formats (the element sweep
// reassociates row sums), so this sweep measures time and footprint,
// not the bit-identity the --kernels-json contenders share.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/edd_solver.hpp"
#include "core/gls_poly.hpp"
#include "core/kernels.hpp"
#include "core/neumann.hpp"
#include "exp/experiments.hpp"
#include "fem/ebe.hpp"
#include "fem/problems.hpp"
#include "la/vector_ops.hpp"
#include "par/comm.hpp"
#include "sparse/generators.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/sell.hpp"

namespace {

using namespace pfem;

const fem::CantileverProblem& cantilever() {
  static const fem::CantileverProblem prob = [] {
    fem::CantileverSpec spec;
    spec.nx = 50;
    spec.ny = 50;
    return fem::make_cantilever(spec);
  }();
  return prob;
}

void BM_Spmv(benchmark::State& state) {
  const sparse::CsrMatrix& a = cantilever().stiffness;
  Vector x(static_cast<std::size_t>(a.cols()), 1.0);
  Vector y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv);

void BM_GlsApply(benchmark::State& state) {
  const sparse::CsrMatrix& a = cantilever().stiffness;
  const core::LinearOp op = core::LinearOp::from_csr(a);
  const core::GlsPolynomial poly(core::default_theta_after_scaling(),
                                 static_cast<int>(state.range(0)));
  Vector v(static_cast<std::size_t>(a.rows()), 1.0);
  Vector z(v.size());
  for (auto _ : state) {
    poly.apply(op, v, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_GlsApply)->Arg(3)->Arg(7)->Arg(10);

void BM_NeumannApply(benchmark::State& state) {
  const sparse::CsrMatrix& a = cantilever().stiffness;
  const core::LinearOp op = core::LinearOp::from_csr(a);
  const core::NeumannPolynomial poly(static_cast<int>(state.range(0)), 1.0);
  Vector v(static_cast<std::size_t>(a.rows()), 1.0);
  Vector z(v.size());
  for (auto _ : state) {
    poly.apply(op, v, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_NeumannApply)->Arg(10)->Arg(20);

void BM_Ilu0Factor(benchmark::State& state) {
  const sparse::CsrMatrix& a = cantilever().stiffness;
  for (auto _ : state) {
    sparse::Ilu0 ilu(a);
    benchmark::DoNotOptimize(&ilu);
  }
}
BENCHMARK(BM_Ilu0Factor);

void BM_Ilu0Solve(benchmark::State& state) {
  const sparse::CsrMatrix& a = cantilever().stiffness;
  const sparse::Ilu0 ilu(a);
  Vector v(static_cast<std::size_t>(a.rows()), 1.0);
  Vector z(v.size());
  for (auto _ : state) {
    ilu.solve(v, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_Ilu0Solve);

void BM_GlsConstruction(benchmark::State& state) {
  for (auto _ : state) {
    core::GlsPolynomial poly(core::default_theta_after_scaling(),
                             static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(&poly);
  }
}
BENCHMARK(BM_GlsConstruction)->Arg(7)->Arg(10);

void BM_Allreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    par::run_spmd(p, [](par::Comm& c) {
      for (int k = 0; k < 32; ++k)
        benchmark::DoNotOptimize(c.allreduce_sum(1.0));
    });
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Allreduce)->Arg(2)->Arg(4)->Arg(8);

void BM_EddSolveGls7(benchmark::State& state) {
  const fem::CantileverProblem& prob = cantilever();
  const partition::EddPartition part =
      exp::make_edd(prob, static_cast<int>(state.range(0)));
  core::PolySpec poly;
  poly.degree = 7;
  core::SolveOptions opts;
  opts.tol = 1e-6;
  opts.max_iters = 60000;
  for (auto _ : state) {
    const auto res = core::solve_edd(part, prob.load, poly, opts);
    benchmark::DoNotOptimize(res.iterations);
  }
}
BENCHMARK(BM_EddSolveGls7)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SpmvSell(benchmark::State& state) {
  const sparse::CsrMatrix& a = cantilever().stiffness;
  const sparse::SellMatrix s = sparse::SellMatrix::from_csr(a);
  Vector x(static_cast<std::size_t>(a.cols()), 1.0);
  Vector y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    s.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvSell);

void BM_GlsApplyFusedSell(benchmark::State& state) {
  const sparse::CsrMatrix& a = cantilever().stiffness;
  Vector d = a.row_norms1();
  for (auto& di : d) di = 1.0 / std::sqrt(di);
  const core::RankKernel kern(a, std::move(d), {}, core::KernelOptions{});
  const core::LinearOp op(
      a.rows(), [&kern](std::span<const real_t> x, std::span<real_t> y) {
        kern.apply(x, y);
      });
  const core::GlsPolynomial poly(core::default_theta_after_scaling(),
                                 static_cast<int>(state.range(0)));
  Vector v(static_cast<std::size_t>(a.rows()), 1.0);
  Vector z(v.size());
  for (auto _ : state) {
    poly.apply(op, v, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_GlsApplyFusedSell)->Arg(3)->Arg(7)->Arg(10);

// ---------------------------------------------------------------------
// CSR-vs-SELL-vs-fused sweep (--kernels-json=PATH).
//
// Per Table 2 mesh: raw SpMV and the GLS-7 polynomial apply, each
// through (a) the eagerly scaled scalar-CSR kernel the solvers used
// before the kernel layer, (b) SELL-C-σ on the same scaled entries, and
// (c) RankKernel's SELL apply ("fused": built from the unscaled entries
// with D K D folded in).  All three are bit-identical
// (tests/test_kernels.cpp), so this measures speed alone.  The
// acceptance bar is fused GLS-7 >= 1.5x scalar CSR.

/// One contender in an interleaved timing comparison.  Rounds of the
/// competing kernels alternate (A B C A B C ...) so frequency drift or
/// a noisy co-tenant biases against no particular contender; the
/// per-call time is the best round.
struct TimedKernel {
  std::function<void()> fn;
  int reps = 1;
  double best = 0.0;
};

void time_kernels(std::span<TimedKernel> ks) {
  using clock = std::chrono::steady_clock;
  auto once = [](TimedKernel& k) {
    const auto t0 = clock::now();
    for (int r = 0; r < k.reps; ++r) k.fn();
    return std::chrono::duration<double>(clock::now() - t0).count() / k.reps;
  };
  for (auto& k : ks) {
    k.fn();  // warm caches and page in the operand arrays
    double t = once(k);
    while (t * k.reps < 10e-3 && k.reps < (1 << 20)) {
      k.reps *= 2;
      t = once(k);
    }
    k.best = t;
  }
  for (int round = 0; round < 5; ++round) {
    for (auto& k : ks) k.best = std::min(k.best, once(k));
  }
}

struct KernelSweepRow {
  std::string mesh;
  index_t n = 0;
  index_t nnz = 0;
  double spmv_csr = 0, spmv_sell = 0, spmv_fused = 0;
  double poly_csr = 0, poly_fused = 0;
};

KernelSweepRow sweep_mesh(int mesh_number, int degree) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh_number);
  const sparse::CsrMatrix& k = prob.stiffness;

  Vector d = k.row_norms1();
  for (auto& di : d) di = 1.0 / std::sqrt(di);
  sparse::CsrMatrix scaled = k;
  scaled.scale_symmetric(d);

  const sparse::SellMatrix sell = sparse::SellMatrix::from_csr(scaled);
  const core::RankKernel fused(k, Vector(d), {}, core::KernelOptions{});

  KernelSweepRow row;
  row.mesh = fem::table2_meshes()[static_cast<std::size_t>(mesh_number - 1)]
                 .name;
  row.n = k.rows();
  row.nnz = k.nnz();

  Vector x(static_cast<std::size_t>(k.cols()), 1.0);
  Vector y(static_cast<std::size_t>(k.rows()));
  TimedKernel spmv[3];
  spmv[0].fn = [&] { scaled.spmv(x, y); };
  spmv[1].fn = [&] { sell.spmv(x, y); };
  spmv[2].fn = [&] { fused.apply(x, y); };
  time_kernels(spmv);
  row.spmv_csr = spmv[0].best;
  row.spmv_sell = spmv[1].best;
  row.spmv_fused = spmv[2].best;

  const core::GlsPolynomial poly(core::default_theta_after_scaling(), degree);
  const core::LinearOp op_csr = core::LinearOp::from_csr(scaled);
  const core::LinearOp op_fused(
      k.rows(), [&fused](std::span<const real_t> in, std::span<real_t> out) {
        fused.apply(in, out);
      });
  Vector z(x.size());
  TimedKernel pk[2];
  pk[0].fn = [&] { poly.apply(op_csr, x, z); };
  pk[1].fn = [&] { poly.apply(op_fused, x, z); };
  time_kernels(pk);
  row.poly_csr = pk[0].best;
  row.poly_fused = pk[1].best;
  return row;
}

int run_kernel_sweep(const std::string& json_path, int max_mesh) {
  const int degree = 7;
  const auto meshes = fem::table2_meshes();
  const int nmesh =
      std::min<int>(max_mesh, static_cast<int>(meshes.size()));

  std::vector<KernelSweepRow> rows;
  std::printf("kernel sweep: scaled CSR vs SELL-C-s vs fused (GLS-%d)\n",
              degree);
  std::printf("%-8s %9s %10s  %10s %10s %10s  %8s | %10s %10s  %8s\n", "mesh",
              "n", "nnz", "spmv_csr", "spmv_sell", "spmv_fused", "speedup",
              "poly_csr", "poly_fused", "speedup");
  for (int m = 1; m <= nmesh; ++m) {
    rows.push_back(sweep_mesh(m, degree));
    const auto& r = rows.back();
    std::printf(
        "%-8s %9lld %10lld  %9.2fus %9.2fus %9.2fus  %7.2fx | %9.2fus "
        "%9.2fus  %7.2fx\n",
        r.mesh.c_str(), static_cast<long long>(r.n),
        static_cast<long long>(r.nnz), r.spmv_csr * 1e6, r.spmv_sell * 1e6,
        r.spmv_fused * 1e6, r.spmv_csr / r.spmv_fused, r.poly_csr * 1e6,
        r.poly_fused * 1e6, r.poly_csr / r.poly_fused);
    std::fflush(stdout);
  }

  double geo_spmv = 0.0, geo_poly = 0.0;
  for (const auto& r : rows) {
    geo_spmv += std::log(r.spmv_csr / r.spmv_fused);
    geo_poly += std::log(r.poly_csr / r.poly_fused);
  }
  geo_spmv = std::exp(geo_spmv / static_cast<double>(rows.size()));
  geo_poly = std::exp(geo_poly / static_cast<double>(rows.size()));
  std::printf("geomean speedup: spmv %.2fx, GLS-%d apply %.2fx\n", geo_spmv,
              degree, geo_poly);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"micro_kernels\",\n  \"sweep\": "
         "\"csr_vs_sell_vs_fused\",\n  \"poly_degree\": "
      << degree << ",\n  \"geomean_speedup\": {\"spmv_fused\": " << geo_spmv
      << ", \"poly_fused\": " << geo_poly << "},\n  \"meshes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const double gf = 2.0 * static_cast<double>(r.nnz) * 1e-9;
    out << "    {\"mesh\": \"" << r.mesh << "\", \"n\": " << r.n
        << ", \"nnz\": " << r.nnz
        << ",\n     \"spmv_seconds\": {\"csr\": " << r.spmv_csr
        << ", \"sell\": " << r.spmv_sell << ", \"fused\": " << r.spmv_fused
        << "},\n     \"spmv_gflops\": {\"csr\": " << gf / r.spmv_csr
        << ", \"sell\": " << gf / r.spmv_sell
        << ", \"fused\": " << gf / r.spmv_fused
        << "},\n     \"poly_seconds\": {\"csr\": " << r.poly_csr
        << ", \"fused\": " << r.poly_fused
        << "},\n     \"speedup\": {\"spmv_sell\": " << r.spmv_csr / r.spmv_sell
        << ", \"spmv_fused\": " << r.spmv_csr / r.spmv_fused
        << ", \"poly_fused\": " << r.poly_csr / r.poly_fused << "}}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("kernel sweep written to %s\n", json_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Matrix-free EBE sweep (--ebe-json=PATH).
//
// Same Table 2 mesh family, but the contender is the Format::Ebe rank
// kernel: per-element dense matrices with the norm-1 scaling folded at
// build time, applied by gather-multiply-scatter.  Alongside the
// timings the sweep reports a bytes-per-dof column — the resident
// operator footprint each format streams per SpMV:
//   csr   nnz*(8 value + 4 col) + (n+1)*4 row-pointer bytes
//   sell  SellMatrix::apply_bytes(): padded values*8 + stored column
//         indices*4 (one per 2x2 block in node-block chunks) + chunk
//         offsets and the slot->row map
//   ebe   stored dense entries*8 + element dof ids*4
// EBE trades duplicated interface entries (dense element blocks) for a
// perfectly regular layout and zero assembly; the column quantifies
// that trade per mesh.

struct EbeSweepRow {
  std::string mesh;
  index_t n = 0;
  index_t nnz = 0;
  index_t elems = 0;
  double spmv_csr = 0, spmv_sell = 0, spmv_ebe = 0;
  double poly_csr = 0, poly_ebe = 0;
  double bpd_csr = 0, bpd_sell = 0, bpd_ebe = 0;
};

EbeSweepRow sweep_mesh_ebe(int mesh_number, int degree) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(mesh_number);
  const sparse::CsrMatrix& k = prob.stiffness;

  Vector d = k.row_norms1();
  for (auto& di : d) di = 1.0 / std::sqrt(di);
  sparse::CsrMatrix scaled = k;
  scaled.scale_symmetric(d);
  const sparse::SellMatrix sell = sparse::SellMatrix::from_csr(scaled);

  const sparse::EbeStore elems = fem::build_ebe_store(
      prob.mesh, prob.dofs, prob.material, fem::Operator::Stiffness);
  core::KernelOptions eo;
  eo.format = core::KernelOptions::Format::Ebe;
  const core::RankKernel ebe(k, Vector(d), {}, eo, &elems);

  EbeSweepRow row;
  row.mesh = fem::table2_meshes()[static_cast<std::size_t>(mesh_number - 1)]
                 .name;
  row.n = k.rows();
  row.nnz = k.nnz();
  row.elems = elems.num_elems();

  const double n = static_cast<double>(k.rows());
  row.bpd_csr = (static_cast<double>(k.nnz()) * (8.0 + 4.0) +
                 static_cast<double>(k.rows() + 1) * 4.0) /
                n;
  row.bpd_sell = static_cast<double>(sell.apply_bytes()) / n;
  row.bpd_ebe = (static_cast<double>(elems.stored_values()) * 8.0 +
                 static_cast<double>(elems.dof_ids().size()) * 4.0) /
                n;

  Vector x(static_cast<std::size_t>(k.cols()), 1.0);
  Vector y(static_cast<std::size_t>(k.rows()));
  TimedKernel spmv[3];
  spmv[0].fn = [&] { scaled.spmv(x, y); };
  spmv[1].fn = [&] { sell.spmv(x, y); };
  spmv[2].fn = [&] { ebe.apply(x, y); };
  time_kernels(spmv);
  row.spmv_csr = spmv[0].best;
  row.spmv_sell = spmv[1].best;
  row.spmv_ebe = spmv[2].best;

  const core::GlsPolynomial poly(core::default_theta_after_scaling(), degree);
  const core::LinearOp op_csr = core::LinearOp::from_csr(scaled);
  const core::LinearOp op_ebe(
      k.rows(), [&ebe](std::span<const real_t> in, std::span<real_t> out) {
        ebe.apply(in, out);
      });
  Vector z(x.size());
  TimedKernel pk[2];
  pk[0].fn = [&] { poly.apply(op_csr, x, z); };
  pk[1].fn = [&] { poly.apply(op_ebe, x, z); };
  time_kernels(pk);
  row.poly_csr = pk[0].best;
  row.poly_ebe = pk[1].best;
  return row;
}

int run_ebe_sweep(const std::string& json_path, int max_mesh) {
  const int degree = 7;
  const auto meshes = fem::table2_meshes();
  const int nmesh = std::min<int>(max_mesh, static_cast<int>(meshes.size()));

  std::vector<EbeSweepRow> rows;
  std::printf("EBE sweep: matrix-free vs scaled CSR vs SELL (GLS-%d)\n",
              degree);
  std::printf("%-8s %9s %8s  %10s %10s %10s  %8s | %8s %8s %8s\n", "mesh",
              "n", "elems", "spmv_csr", "spmv_sell", "spmv_ebe", "ebe_vs_csr",
              "B/dof csr", "sell", "ebe");
  for (int m = 1; m <= nmesh; ++m) {
    rows.push_back(sweep_mesh_ebe(m, degree));
    const auto& r = rows.back();
    std::printf(
        "%-8s %9lld %8lld  %9.2fus %9.2fus %9.2fus  %7.2fx | %8.1f %8.1f "
        "%8.1f\n",
        r.mesh.c_str(), static_cast<long long>(r.n),
        static_cast<long long>(r.elems), r.spmv_csr * 1e6, r.spmv_sell * 1e6,
        r.spmv_ebe * 1e6, r.spmv_csr / r.spmv_ebe, r.bpd_csr, r.bpd_sell,
        r.bpd_ebe);
    std::fflush(stdout);
  }

  double geo_spmv = 0.0, geo_poly = 0.0;
  for (const auto& r : rows) {
    geo_spmv += std::log(r.spmv_csr / r.spmv_ebe);
    geo_poly += std::log(r.poly_csr / r.poly_ebe);
  }
  geo_spmv = std::exp(geo_spmv / static_cast<double>(rows.size()));
  geo_poly = std::exp(geo_poly / static_cast<double>(rows.size()));
  std::printf("geomean speed vs scaled CSR: spmv %.2fx, GLS-%d apply %.2fx\n",
              geo_spmv, degree, geo_poly);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"micro_kernels\",\n  \"sweep\": "
         "\"ebe_vs_csr_vs_sell\",\n  \"poly_degree\": "
      << degree << ",\n  \"geomean_speed_vs_csr\": {\"spmv_ebe\": " << geo_spmv
      << ", \"poly_ebe\": " << geo_poly << "},\n  \"meshes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const double gf = 2.0 * static_cast<double>(r.nnz) * 1e-9;
    out << "    {\"mesh\": \"" << r.mesh << "\", \"n\": " << r.n
        << ", \"nnz\": " << r.nnz << ", \"elems\": " << r.elems
        << ",\n     \"spmv_seconds\": {\"csr\": " << r.spmv_csr
        << ", \"sell\": " << r.spmv_sell << ", \"ebe\": " << r.spmv_ebe
        << "},\n     \"spmv_gflops\": {\"csr\": " << gf / r.spmv_csr
        << ", \"sell\": " << gf / r.spmv_sell
        << ", \"ebe\": " << gf / r.spmv_ebe
        << "},\n     \"poly_seconds\": {\"csr\": " << r.poly_csr
        << ", \"ebe\": " << r.poly_ebe
        << "},\n     \"bytes_per_dof\": {\"csr\": " << r.bpd_csr
        << ", \"sell\": " << r.bpd_sell << ", \"ebe\": " << r.bpd_ebe
        << "},\n     \"speed_vs_csr\": {\"spmv_ebe\": "
        << r.spmv_csr / r.spmv_ebe
        << ", \"poly_ebe\": " << r.poly_csr / r.poly_ebe << "}}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("EBE sweep written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string ebe_json_path;
  int max_mesh = 8;  // Mesh9/10 assemble slowly; opt in via --kernels-meshes
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a.rfind("--kernels-json=", 0) == 0) {
      json_path = std::string(a.substr(15));
    } else if (a.rfind("--ebe-json=", 0) == 0) {
      ebe_json_path = std::string(a.substr(11));
    } else if (a.rfind("--kernels-meshes=", 0) == 0) {
      max_mesh = std::atoi(a.substr(17).data());
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    if (const int rc = run_kernel_sweep(json_path, max_mesh); rc != 0) {
      return rc;
    }
  }
  if (!ebe_json_path.empty()) {
    if (const int rc = run_ebe_sweep(ebe_json_path, max_mesh); rc != 0) {
      return rc;
    }
  }
  int rc = static_cast<int>(rest.size());
  benchmark::Initialize(&rc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
