// Span-based tracing for the SPMD runtime and the solvers (pfem::obs).
//
// The paper's argument is a communication-count story (Table 1: m+3 vs
// m+1 neighbor exchanges per Arnoldi step).  PerfCounters give the
// aggregate totals; this layer records *where inside a solve* the time
// and the exchanges go, cheaply enough to leave on in production:
//
//   - `Trace` owns one `Tracer` lane per rank plus one auxiliary lane
//     for non-rank threads (the solve service's scheduler).  Each lane
//     is a fixed-capacity ring of POD records written by exactly one
//     thread — no locks, no allocation after arming, overwrite-oldest
//     when full (flight-recorder semantics, with a dropped count).
//   - `Span` is the RAII scope.  The OBS_SPAN macro expands to one
//     predicted-false null check when tracing is off; a live span costs
//     two clock reads and one ring store.
//   - Counter records annotate a lane with named values (relres per
//     iteration, queue depth) on the same timeline.
//
// Timebase: steady_clock nanoseconds since the Trace's epoch.  That is
// the same clock as svc::Clock, so service code can stamp retroactive
// spans (e.g. "queued" from a request's submit time) into a lane.
//
// Thread-safety contract: a lane is single-writer.  Rank lanes are
// written only by their rank's thread during a job; readers (records(),
// the exporters) must run after the job completed — Team::run's join
// handshake provides the required happens-before edge.  The aux lane is
// written only by the service scheduler thread and read after shutdown.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pfem::fault {
class FaultInjector;  // chaos hook carried by ObserveOptions, not owned
}

namespace pfem::obs {

/// Span/counter category — coarse buckets for self-time attribution.
/// Keep in sync with cat_name().
enum class Cat : std::uint8_t {
  Setup,     ///< operator build: scaling, polynomial construction
  Solve,     ///< whole-solve and per-iteration scopes
  Matvec,    ///< local sparse matrix-vector products
  Exchange,  ///< neighbor boundary exchange (the Table-1 currency)
  Reduce,    ///< allreduce / barrier collectives
  Precond,   ///< polynomial preconditioner application
  Ortho,     ///< Gram-Schmidt orthogonalization
  Svc,       ///< service lifecycle (queued/coalesced/solve/done)
  Fault,     ///< injected faults, channel timeouts, service retries
};

[[nodiscard]] const char* cat_name(Cat c) noexcept;

/// One ring entry.  `name` must be a string literal (or otherwise
/// outlive the Trace): lanes store the pointer, never the bytes.
struct Record {
  enum class Kind : std::uint8_t { Span, Counter };

  const char* name = nullptr;
  std::uint64_t t0_ns = 0;  ///< start (Span) or stamp time (Counter)
  std::uint64_t t1_ns = 0;  ///< end; == t0_ns for counters
  double value = 0.0;       ///< counter value; unused for spans
  std::uint32_t id = 0;     ///< small correlate (RHS index, request id)
  std::uint16_t depth = 0;  ///< span nesting depth at open time
  Cat cat = Cat::Solve;
  Kind kind = Kind::Span;
};

/// Single-writer span/counter ring for one lane (rank or aux).
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Arm the lane: allocate `capacity` records once and start accepting
  /// writes.  `epoch` is the shared trace start time.
  void arm(std::chrono::steady_clock::time_point epoch, std::size_t capacity);

  [[nodiscard]] bool enabled() const noexcept { return armed_; }

  /// Nanoseconds since the trace epoch (call only on armed lanes).
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return to_ns(std::chrono::steady_clock::now());
  }

  /// Convert an absolute steady_clock stamp to trace time — lets the
  /// service turn a request's submit time into a retroactive span.
  [[nodiscard]] std::uint64_t to_ns(
      std::chrono::steady_clock::time_point t) const noexcept {
    return t <= epoch_
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t - epoch_)
                         .count());
  }

  // -- writer side (single thread) ----------------------------------------

  /// Open a span scope: returns the depth the matching emit should carry.
  [[nodiscard]] std::uint16_t open() noexcept { return depth_++; }

  /// Close a span scope and push its record.
  void close(const char* name, Cat cat, std::uint64_t t0, std::uint16_t depth,
             std::uint32_t id = 0) noexcept {
    --depth_;
    push(Record{name, t0, now_ns(), 0.0, id, depth, cat, Record::Kind::Span});
  }

  /// Push a fully-formed span without touching the depth counter — for
  /// retroactive records (service "queued" phases) and tests.
  void span_at(const char* name, Cat cat, std::uint64_t t0, std::uint64_t t1,
               std::uint32_t id = 0, std::uint16_t depth = 0) noexcept {
    push(Record{name, t0, t1, 0.0, id, depth, cat, Record::Kind::Span});
  }

  /// Stamp a named value on the timeline (per-iteration relres, queue
  /// depth, ...).
  void counter(const char* name, Cat cat, double value,
               std::uint32_t id = 0) noexcept {
    const std::uint64_t t = now_ns();
    push(Record{name, t, t, value, id, 0, cat, Record::Kind::Counter});
  }

  // -- reader side (after the writer quiesced) ----------------------------

  /// Records in chronological (write) order.  Oldest entries are gone
  /// when total() > capacity().
  [[nodiscard]] std::vector<Record> records() const;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

 private:
  void push(const Record& r) noexcept {
    ring_[static_cast<std::size_t>(total_ % ring_.size())] = r;
    ++total_;
  }

  bool armed_ = false;
  std::uint16_t depth_ = 0;
  std::uint64_t total_ = 0;
  std::vector<Record> ring_;
  std::chrono::steady_clock::time_point epoch_{};
};

/// RAII span scope.  Pass the lane's Tracer (or nullptr — disabled mode
/// costs exactly one branch).
class Span {
 public:
  Span(Tracer* tracer, const char* name, Cat cat,
       std::uint32_t id = 0) noexcept {
    if (tracer != nullptr && tracer->enabled()) [[unlikely]] {
      tracer_ = tracer;
      name_ = name;
      cat_ = cat;
      id_ = id;
      depth_ = tracer->open();
      t0_ = tracer->now_ns();
    }
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(name_, cat_, t0_, depth_, id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::uint32_t id_ = 0;
  std::uint16_t depth_ = 0;
  Cat cat_ = Cat::Solve;
};

#define PFEM_OBS_CONCAT2(a, b) a##b
#define PFEM_OBS_CONCAT(a, b) PFEM_OBS_CONCAT2(a, b)

/// `OBS_SPAN(tracer, "arnoldi", Cat::Solve)` — RAII scope on `tracer`
/// (may be null).  An optional fourth argument is the record id.
#define OBS_SPAN(tracer, name, ...)                          \
  ::pfem::obs::Span PFEM_OBS_CONCAT(obs_span_, __LINE__) {   \
    (tracer), (name), __VA_ARGS__                            \
  }

/// A whole run's trace: one lane per rank plus one aux lane ("svc") for
/// non-rank threads.  Construct, hand lanes to the writers, read after
/// they quiesced.
class Trace {
 public:
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

  explicit Trace(int nranks, std::size_t ring_capacity = 0);

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] std::size_t ring_capacity() const noexcept { return cap_; }
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

  [[nodiscard]] Tracer& rank(int r) {
    PFEM_CHECK(r >= 0 && r < nranks_);
    return lanes_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const Tracer& rank(int r) const {
    PFEM_CHECK(r >= 0 && r < nranks_);
    return lanes_[static_cast<std::size_t>(r)];
  }

  /// The extra lane for non-rank threads (service scheduler).
  [[nodiscard]] Tracer& aux() { return lanes_.back(); }
  [[nodiscard]] const Tracer& aux() const { return lanes_.back(); }

  [[nodiscard]] std::uint64_t dropped_total() const noexcept;

 private:
  int nranks_;
  std::size_t cap_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Tracer> lanes_;  ///< [0, nranks) ranks, back() aux
};

/// Observability knobs shared by SolveOptions and svc requests — one
/// struct instead of per-tool flag plumbing.
struct ObserveOptions {
  bool trace = false;               ///< record spans for this solve
  std::size_t ring_capacity = 0;    ///< records per lane; 0 = default
  /// Called after every solver iteration with (iteration, relative
  /// residual, RHS index).  Invoked from rank 0's solver thread — keep
  /// it cheap and thread-safe.
  std::function<void(index_t, real_t, std::size_t)> progress;
  /// Chaos hooks for solvers that own their team internally (solve_edd,
  /// solve_edd_cg, solve_rdd): a seeded fault plan armed on the solve's
  /// team (not owned; its plan must match the partition's rank count), and a
  /// channel-wait deadline (0 disables) that turns a dead peer into a
  /// typed comm failure instead of a hang.  Pointer-only here — obs
  /// stays independent of the fault library.
  fault::FaultInjector* fault_injector = nullptr;
  double comm_timeout_seconds = 0.0;
};

}  // namespace pfem::obs
