// Service-level observability: monotonic counters and a bounded latency
// histogram with nearest-rank percentiles.  Everything here is
// mutex-protected and cheap enough to sample from a live service.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>

namespace pfem::svc {

/// One snapshot of the service counters (all monotonic).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< requests that reached submit()
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_other = 0;  ///< unknown key / bad request / shutdown
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;    ///< dispatches served by a built operator
  std::uint64_t cache_misses = 0;  ///< dispatches that had to build
  std::uint64_t batches = 0;       ///< scheduler dispatches (fused solves)
  std::uint64_t rhs_solved = 0;    ///< total RHS across completed requests
  std::uint64_t comm_failures = 0; ///< attempts lost to typed comm faults
  std::uint64_t retries = 0;       ///< re-dispatches onto a fresh team
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  /// Sessions whose warm state was dropped — by the session table's own
  /// LRU, or because the operator cache evicted the built operator they
  /// were pinned to.  The session handle survives; the next solve under
  /// it simply runs cold.
  std::uint64_t sessions_evicted = 0;
  /// RHS lanes dispatched with warm session state (x_prev and/or
  /// recycled directions) — the numerator of the warm-hit rate.
  std::uint64_t warm_rhs = 0;
  double solve_seconds = 0.0;      ///< wall time inside solve_edd_batch
};

struct LatencySnapshot {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Records per-request end-to-end latencies (submit -> outcome) in a
/// fixed log-bucketed histogram: a long-running service records forever
/// in constant memory, and snapshot() costs the same at any age.
///
/// kBucketsPerDecade buckets per decade from kMinSeconds (1 us) to
/// kMaxSeconds (1e4 s), each at most 3% wide (edge ratio 10^(1/78) =
/// 1.02996), plus an underflow and an overflow bucket.  count, mean and
/// max are exact.  p50/p90/p99 are the upper edge of the bucket holding
/// the nearest-rank sample, clamped to max: never below the exact
/// nearest-rank value, and above it by less than one bucket width.
class LatencyRecorder {
 public:
  static constexpr double kMinSeconds = 1e-6;
  static constexpr int kDecades = 10;
  static constexpr double kMaxSeconds = 1e4;  // kMinSeconds * 10^kDecades
  static constexpr int kBucketsPerDecade = 78;
  /// Log buckets plus underflow (first) and overflow (last).
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kDecades * kBucketsPerDecade) + 2;

  void record(double seconds) {
    const std::size_t b = bucket_of(seconds);
    std::scoped_lock lock(m_);
    ++counts_[b];
    if (count_ == 0 || seconds > max_) max_ = seconds;
    ++count_;
    sum_ += seconds;
  }

  [[nodiscard]] LatencySnapshot snapshot() const {
    std::array<std::uint64_t, kBuckets> counts;
    LatencySnapshot out;
    double sum = 0.0;
    {
      std::scoped_lock lock(m_);
      counts = counts_;
      out.count = count_;
      out.max = max_;
      sum = sum_;
    }
    if (out.count == 0) return out;
    out.mean = sum / static_cast<double>(out.count);
    auto rank = [&](double p) {
      // Nearest rank k: the bucket holding the k-th smallest sample.
      const auto k = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::ceil(p * static_cast<double>(out.count))));
      std::uint64_t seen = 0;
      std::size_t b = 0;
      for (; b + 1 < kBuckets; ++b) {
        seen += counts[b];
        if (seen >= k) break;
      }
      return b + 1 < kBuckets ? std::min(edges()[b], out.max) : out.max;
    };
    out.p50 = rank(0.50);
    out.p90 = rank(0.90);
    out.p99 = rank(0.99);
    return out;
  }

 private:
  /// edges()[i] = kMinSeconds * 10^(i / kBucketsPerDecade); bucket 0 is
  /// [0, edges[0]), bucket b >= 1 is [edges[b-1], edges[b]), the last
  /// bucket is [edges.back(), inf).  So edges()[b] is bucket b's upper
  /// edge for every bucket but the overflow one.
  static const std::array<double, kBuckets - 1>& edges() {
    static const std::array<double, kBuckets - 1> table = [] {
      std::array<double, kBuckets - 1> e{};
      for (std::size_t i = 0; i < e.size(); ++i)
        e[i] = kMinSeconds *
               std::pow(10.0, static_cast<double>(i) / kBucketsPerDecade);
      e.back() = kMaxSeconds;
      return e;
    }();
    return table;
  }

  static std::size_t bucket_of(double seconds) {
    const auto& e = edges();
    return static_cast<std::size_t>(
        std::upper_bound(e.begin(), e.end(), seconds) - e.begin());
  }

  mutable std::mutex m_;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pfem::svc
