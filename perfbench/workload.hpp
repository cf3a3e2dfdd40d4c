// The workload interface and the per-layer record every workload fills.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace bench {

/// One timed phase: every attempted request, its latency, and how many
/// came back completed, converged and within kResidualBound.
struct Phase {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  double elapsed_s = 0.0;
};

/// Service-layer view of a run (in-process or behind the wire).
struct SvcView {
  std::vector<double> queue_ms, solve_ms;
  std::uint64_t submitted = 0, rejected = 0, retries = 0;
  std::uint64_t batches = 0, rhs_solved = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t session_rhs = 0, warm_rhs = 0;
};

/// Wire-layer view: client latency minus the shard-reported queue and
/// solve time, and the router's placement counts.
struct NetView {
  std::vector<double> hop_ms;
  double codec_gbs = 0.0;
  double bytes_per_req = 0.0;
  std::uint64_t forwarded = 0, affinity = 0, spilled = 0;
};

/// Everything the traced run reports, one field per per-layer metric
/// family.  Shares come from the span totals; counts from PerfCounters.
struct LayerData {
  double triad_gbs = 0.0;
  double assemble_s = 0.0, partition_s = 0.0;
  double build_operator_ms = 0.0, build_coarse_ms = 0.0;
  double csr_gbs = 0.0, sell_gbs = 0.0, ebe_gbs = 0.0;
  double poly_apply_ms = 0.0;
  SpanTotals spans;            ///< rank lanes of the traced phase
  std::string solve_span;      ///< root span of one solve in `spans`
  double iters_mean = 0.0;
  double exchanges_per_iter = 0.0, exchanges_per_iter_basic = 0.0;
  double bytes_per_iter = 0.0;
  pfem::par::PerfCounters counters;  ///< summed over the traced solves
  double speedup_p4 = 0.0, model_err_p4 = 0.0;
  double coarse_solves_per_iter = 0.0;
  SvcView svc;
  double build_share = 0.0;
  NetView net;
  double overhead_frac = 0.0;
  std::uint64_t probe_failed = 0;  ///< probe solves that failed verification
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Assemble, partition, start the team/service/shards, register,
  /// warm up.  `traced` turns the span trace on for the next phase.
  virtual void setup(bool traced) = 0;
  /// Closed-loop traffic for `seconds`.
  virtual Phase run(double seconds) = 0;
  /// Peak RSS of every process of the workload, read before teardown.
  virtual double rss_mb() = 0;
  /// Fill the per-layer data a traced phase produced (before teardown).
  virtual void collect_traced(LayerData& d) = 0;
  virtual void teardown() = 0;
  /// Direct calls into each layer's public functions on the workload's
  /// own inputs (after teardown).
  virtual void probe_layers(LayerData& d) = 0;
  /// False when a part of the workload died (a shard exited non-zero).
  [[nodiscard]] virtual bool healthy() const { return true; }
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_solve(const Args& a);
[[nodiscard]] std::unique_ptr<Workload> make_svc_churn(const Args& a);
[[nodiscard]] std::unique_ptr<Workload> make_wire_hot(const Args& a);

}  // namespace bench
