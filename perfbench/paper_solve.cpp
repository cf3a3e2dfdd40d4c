// paper_solve: sequential one-shot core::solve_edd on Table-2 Mesh10
// (200x100 Q4 cantilever, 40,400 equations), P=4, GLS(7), Enhanced,
// default kernels, no deflation, tol 1e-6, restart 25, one client.
#include <iostream>
#include <optional>

#include "common/timer.hpp"
#include "core/edd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "probes.hpp"

namespace bench {
namespace {

using namespace pfem;

constexpr int kRanks = 4;

class PaperSolve final : public Workload {
 public:
  explicit PaperSolve(const Args& a) : a_(a) {}

  void setup(bool traced) override {
    traced_ = traced;
    const WallTimer t;
    prob_.emplace(fem::make_table2_cantilever(10));
    assemble_s_ = t.seconds();
    const WallTimer tp;
    part_ = std::make_shared<const partition::EddPartition>(
        exp::make_edd(*prob_, kRanks));
    partition_s_ = tp.seconds();
    // Warm-up: one solve of the unscaled load.
    Phase warm;
    solve_one(prob_->load, warm, /*record=*/false);
    warm_ok_ = warm.verified == 1;
  }

  Phase run(double seconds) override {
    Phase p;
    SeededStream rng(a_.seed);
    const WallTimer clock;
    while (clock.seconds() < seconds)
      solve_one(pow2_scaled(prob_->load, rng), p, /*record=*/true);
    p.elapsed_s = clock.seconds();
    if (!warm_ok_) ++p.attempted;  // a failed warm-up counts as a miss
    return p;
  }

  double rss_mb() override { return vm_hwm_mb(); }

  void collect_traced(LayerData& d) override {
    d.spans = spans_;
    d.solve_span = "solve_edd";
    d.counters = counters_;
    d.iters_mean = iters_sum_ / std::max<double>(1.0, traced_solves_);
    d.coarse_solves_per_iter =
        static_cast<double>(counters_.coarse_solves) /
        (kRanks * std::max(1.0, iters_sum_));
  }

  void teardown() override {}

  void probe_layers(LayerData& d) override {
    d.assemble_s = assemble_s_;
    d.partition_s = partition_s_;
    core::DeflationOptions coarse;
    coarse.enabled = true;
    coarse.dof_coords = fem::free_dof_coords(prob_->mesh, prob_->dofs);
    coarse.coord_dim = 2;
    const core::EddOperatorState op =
        build_probe(*part_, std::nullopt, coarse, d);
    kernel_probe(*part_, op, d);
    poly_probe(op, d);
    count_probe(*part_, prob_->load, d);
    model_probe(*prob_, d);
    inprocess_wire_probe(part_, prob_->stiffness, prob_->load, 4, a_, d,
                         /*fill_svc=*/true);
  }

 private:
  void solve_one(const Vector& f, Phase& p, bool record) {
    core::SolveOptions opts;
    opts.tol = kTol;
    opts.restart = 25;
    opts.observe.trace = traced_;
    opts.observe.ring_capacity = std::size_t{1} << 17;
    const WallTimer w;
    const core::DistSolve res = core::solve_edd(*part_, f, gls7(), opts);
    const double ms = 1e3 * w.seconds();
    ++p.attempted;
    p.latency_ms.push_back(ms);
    if (res.converged &&
        relres(prob_->stiffness, res.x, f) <= kResidualBound)
      ++p.verified;
    if (!record || !traced_) return;
    if (res.trace) spans_.add(*res.trace);
    counters_ += sum(res.rank_counters);
    ++traced_solves_;
    iters_sum_ += static_cast<double>(res.iterations);
  }

  Args a_;
  bool traced_ = false;
  bool warm_ok_ = false;
  std::optional<fem::CantileverProblem> prob_;
  std::shared_ptr<const partition::EddPartition> part_;
  double assemble_s_ = 0.0, partition_s_ = 0.0;
  SpanTotals spans_;
  par::PerfCounters counters_;
  std::uint64_t traced_solves_ = 0;
  double iters_sum_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_solve(const Args& a) {
  return std::make_unique<PaperSolve>(a);
}

}  // namespace bench
