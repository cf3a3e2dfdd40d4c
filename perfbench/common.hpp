// Shared plumbing of the EDD-FGMRES benchmark: arguments, seeded
// inputs, latency statistics, result verification, span summaries and
// the report that prints every metric by name and unit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/types.hpp"
#include "obs/trace.hpp"
#include "par/counters.hpp"
#include "sparse/csr.hpp"

namespace bench {

using pfem::index_t;
using pfem::real_t;
using pfem::Vector;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rundir = ".";  ///< socket files live here (relative path)
};

/// Solver tolerance of every workload, and the bound every returned
/// solution must meet on the PHYSICAL relative residual
/// ||f - K x|| / ||f|| against the globally assembled K.  FGMRES
/// converges on the norm-1 SCALED system, so the physical residual may
/// exceed tol by up to the condition number of the scaling diagonal;
/// the factor covers the 1e4 coefficient jump of svc_churn with margin.
inline constexpr double kTol = 1e-6;
inline constexpr double kResidualBound = 1e3 * kTol;

/// splitmix64: the one seeded stream every input is drawn from.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed) : s_(mix64(seed)) {}
  std::uint64_t next() { return s_ = mix64(s_); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                               hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// base scaled by 2^k, k in [-4, 4] drawn from the stream: a seeded load
/// level whose solve is bit-for-bit the same FGMRES run (scaling by a
/// power of two is exact), so every solve costs the same iterations.
[[nodiscard]] Vector pow2_scaled(const Vector& base, SeededStream& rng);

/// Physical relative residual ||f - (K + delta diag(K)) x|| / ||f||.
/// `diag` may be empty when delta is 0.
[[nodiscard]] double relres(const pfem::sparse::CsrMatrix& k,
                            std::span<const real_t> x,
                            std::span<const real_t> f,
                            std::span<const real_t> diag = {},
                            double delta = 0.0);

[[nodiscard]] Vector diagonal(const pfem::sparse::CsrMatrix& k);

[[nodiscard]] double median(std::vector<double> v);

/// Median plus the tail: the highest percentile of the ladder p75, p90,
/// p99 that keeps at least ten samples beyond it (p50 when none does).
/// A fixed ladder keeps the percentile the same from run to run where a
/// sample-count-dependent one would wander; it stops at p99 because
/// rarer percentiles of a few-second closed loop measure scheduler
/// hiccups of the host more than the program.
struct LatencyStats {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
[[nodiscard]] LatencyStats latency_stats(std::vector<double> v);

/// Peak resident set (VmHWM) in MiB of `pid` (0 = this process).
[[nodiscard]] double vm_hwm_mb(pid_t pid = 0);

/// Per-span-name totals over the rank lanes of one or more traces:
/// inclusive time, and self time (duration minus the time the span's
/// direct children cover, from obs::span_stats).
class SpanTotals {
 public:
  struct Entry {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  void add(const pfem::obs::Trace& trace);
  void add(const std::string& name, const Entry& e);
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] double self(const std::string& name) const;
  /// Sum of all self times: the rank time the recorded spans cover.
  [[nodiscard]] double covered() const;
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return m_;
  }
  std::uint64_t dropped = 0;

 private:
  std::map<std::string, Entry> m_;
};

/// Collects metrics, prints one human-readable line per metric, and the
/// final one-line JSON result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void note(const std::string& text);
  /// Prints the final JSON line.
  void finish(bool correct, std::uint64_t attempted, std::uint64_t failed);

 private:
  struct M {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<M> metrics_;
};

/// Sum of per-rank counters.
[[nodiscard]] pfem::par::PerfCounters sum(
    std::span<const pfem::par::PerfCounters> ranks);

}  // namespace bench
