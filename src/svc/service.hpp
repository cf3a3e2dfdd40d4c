// pfem::svc::Service — a persistent solve service over a warm rank team.
//
// One solve_edd() call pays for a thread team, the distributed norm-1
// scaling, and the polynomial build before it does any FGMRES work.  A
// workload that streams solves against a handful of slowly-changing
// operators (time stepping, design loops, many clients sharing one
// model) should pay those once.  The service owns:
//
//   - a par::Team of P ranks whose threads stay parked between jobs;
//   - an OperatorCache keyed by client-chosen strings (recipe ->
//     built scaled matrices + polynomial, LRU-bounded, explicitly
//     invalidated by update_operator);
//   - a bounded two-priority JobQueue with admission control;
//   - a scheduler thread that pops a job, coalesces every queued
//     request for the same operator (compatible SolveOptions) into ONE
//     fused multi-RHS solve_edd_batch call, and resolves each request's
//     future with a typed Outcome;
//   - a per-batch deadline watchdog that cancels the team through the
//     cooperative par::Comm abort path when the earliest member
//     deadline expires mid-solve;
//   - a SessionTable of solve sessions (open_session/close_session):
//     per-session warm-start solutions and recycled Krylov directions
//     deposited by each completed solve and fed to the next one, with
//     LRU-bounded state tied to the operator cache's evictions.
//
// Backpressure and deadlines are load *shedding*, not errors: the
// client always gets a typed Rejected outcome, never a hang.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "par/comm.hpp"
#include "svc/job_queue.hpp"
#include "svc/operator_cache.hpp"
#include "svc/request.hpp"
#include "svc/session.hpp"
#include "svc/stats.hpp"

namespace pfem::svc {

/// Bounded retry with exponential backoff for typed communication
/// failures (an injected crash, a stalled rank hitting the comm
/// timeout).  Attempt n sleeps fault::backoff_seconds(base, max, n,
/// seed) — doubling, capped, with deterministic jitter from the
/// request seed, so a failing request replays the same schedule.
/// Each retry re-dispatches onto a *fresh* team; the operator cache is
/// team-independent, so built state survives the swap.
struct RetryPolicy {
  int max_attempts = 1;  ///< total tries; 1 disables retry
  double base_backoff_seconds = 0.005;
  double max_backoff_seconds = 0.25;
};

struct ServiceConfig {
  int nranks = 4;                  ///< team size == partition parts
  std::size_t queue_capacity = 64; ///< admission bound (backpressure)
  std::size_t cache_capacity = 8;  ///< built operators kept (LRU)
  std::size_t max_batch_rhs = 16;  ///< fused-RHS cap per dispatch
  /// observe.trace turns on the service-lifetime span trace (rank lanes
  /// plus a scheduler "svc" lane with queued/coalesced/dispatch spans);
  /// observe.ring_capacity sizes each lane's flight-recorder ring.  The
  /// per-request progress callback lives on each request instead.
  obs::ObserveOptions observe;
  RetryPolicy retry;
  /// Channel-wait deadline installed on the team (and on every retry
  /// replacement); 0 disables.  With a timeout armed, a dead or stalled
  /// peer surfaces as a typed comm failure instead of a hang.
  double comm_timeout_seconds = 0.0;
  /// Optional chaos hook: a seeded fault plan installed on the team
  /// (must be generated for `nranks` ranks).  Not owned — it must
  /// outlive the service.  Faults are one-shot, so retries march past
  /// the fault that killed the previous attempt.
  fault::FaultInjector* fault_injector = nullptr;
};

class Service {
 public:
  using JobId = std::uint64_t;

  struct Submitted {
    JobId id = 0;
    std::future<Outcome> outcome;
  };

  explicit Service(const ServiceConfig& cfg);
  ~Service();  ///< shutdown(/*drain=*/false)

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Register (or replace) an operator recipe under `key`.  Replacing
  /// invalidates any cached built state.  Partition parts must equal
  /// the configured team size.  Every build uses the default kernel
  /// format (Sell).  `deflation`, when set, gives this key a two-level
  /// coarse space, factorized once per build and cached (and
  /// LRU-evicted) with the scaling and kernels; per-request
  /// SolveOptions.deflation is ignored, as the correction is operator
  /// state.  Operators from different problem families (scalar
  /// diffusion vs 2-D/3-D elasticity) need different coarse-space
  /// layouts, validated here against the partition's dof count (throws
  /// pfem::BadOperatorError on mismatch).  A key registered without
  /// deflation has none.
  void register_operator(
      const std::string& key,
      std::shared_ptr<const partition::EddPartition> part,
      const core::PolySpec& poly,
      std::shared_ptr<const std::vector<sparse::CsrMatrix>> local_matrices =
          nullptr,
      std::optional<core::DeflationOptions> deflation = std::nullopt);

  /// Swap the per-rank matrices of a registered operator (same layout);
  /// the next solve rebuilds scaling + preconditioner.  Open sessions on
  /// the key deliberately KEEP their warm state: recycled directions are
  /// re-projected through the new operator at solve time, so they stay
  /// safe and typically still useful across a drifting operator.
  void update_operator(
      const std::string& key,
      std::shared_ptr<const std::vector<sparse::CsrMatrix>> local_matrices);

  /// Open a solve session pinned to a registered operator.  Returns
  /// kNoSession when the key is unknown.  Requests carrying the handle
  /// warm-start from the session's previous solution, project its
  /// recycled directions, and deposit their own state on completion.
  [[nodiscard]] SessionId open_session(const std::string& operator_key);

  /// Release a session handle and its state.  False if unknown (or
  /// already closed).  In-flight requests on the session still complete;
  /// their deposit simply lands nowhere.
  bool close_session(SessionId id);

  /// Admission-controlled submit.  The returned future always resolves
  /// (Completed/Rejected/Cancelled/Failed); requests refused at
  /// admission come back with the future already resolved.
  [[nodiscard]] Submitted submit(SolveRequest req);

  /// Cancel a request: a queued job resolves Cancelled immediately; a
  /// running job's batch is cancelled through the team's abort path.
  /// Returns false when the id is unknown or already finished.
  bool cancel(JobId id);

  /// Stop accepting work; with drain=true finish everything queued,
  /// otherwise resolve queued jobs as Cancelled.  Idempotent; joins the
  /// scheduler.  The destructor calls shutdown(false).
  void shutdown(bool drain = true);

  /// Test/introspection hook: pause dispatching (queued work + at most
  /// one popped job wait), so a burst of submissions demonstrably
  /// coalesces into one batch on resume.
  void set_paused(bool paused);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] LatencySnapshot latency() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] int nranks() const noexcept { return cfg_.nranks; }

  /// The service-lifetime span trace (null unless cfg.observe.trace).
  /// Lanes are written while work is in flight; export only when the
  /// service is quiesced — after shutdown(), or while paused with no
  /// batch running.
  [[nodiscard]] const obs::Trace* trace() const noexcept {
    return trace_.get();
  }

 private:
  struct PendingJob {
    JobId id = 0;
    SolveRequest req;
    std::promise<Outcome> promise;
    Clock::time_point submit_time;
  };

  void scheduler_loop();
  void dispatch_batch(std::vector<PendingJob> batch);
  void resolve(PendingJob& job, Outcome outcome);
  [[nodiscard]] Submitted reject_now(PendingJob job, RejectReason reason,
                                     std::string detail);
  /// Build a team with the configured comm timeout and fault injector
  /// armed — used at construction and for retry replacements.
  [[nodiscard]] std::unique_ptr<par::Team> make_team() const;

  ServiceConfig cfg_;
  /// unique_ptr so a retry can swap in a fresh team after a typed comm
  /// failure (the old one may hold a tripped abort flag or a dead rank).
  /// Replaced only by the scheduler thread, under m_ (cancel() pokes
  /// team_->cancel() under the same lock).
  std::unique_ptr<par::Team> team_;
  OperatorCache cache_;
  /// Session-state store; wired to cache_'s eviction callback so losing
  /// a built operator also drops the warm state pinned to it.
  SessionTable sessions_;
  /// Per-operator-key dispatch sequence (scheduler thread only): the
  /// content-derived fallback for SolveRequest::seed == 0, so replayed
  /// request streams see identical backoff jitter run-to-run.
  std::unordered_map<std::string, std::uint64_t> dispatch_seq_;
  JobQueue<PendingJob> queue_;
  /// Service-lifetime trace: rank lanes written by the team during a
  /// dispatch, aux lane written only by the scheduler thread.
  std::unique_ptr<obs::Trace> trace_;

  mutable std::mutex m_;
  std::condition_variable pause_cv_;
  bool paused_ = false;
  bool accepting_ = true;
  std::atomic<JobId> next_id_{1};
  /// Ids of the batch currently inside team_.run, and which of them got
  /// an explicit cancel() while running.  Guarded by m_; the scheduler
  /// clears both before resolving outcomes, so a client cancel() either
  /// lands on the live batch or returns false — never on a later one.
  std::vector<JobId> running_;
  std::vector<JobId> running_cancelled_;

  ServiceStats stats_;  ///< guarded by m_
  LatencyRecorder latency_;

  std::thread scheduler_;
};

}  // namespace pfem::svc
