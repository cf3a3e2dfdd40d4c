// Request/response types of the solve service (pfem::svc).
//
// A SolveRequest names a *registered operator* by key, carries a batch
// of right-hand sides, and optionally a deadline and a priority.  The
// service answers with exactly one Outcome per request:
//
//   Completed — the batch solved (per-RHS convergence in result.items);
//   Rejected  — typed load shedding: the request never ran (queue full,
//               deadline missed, unknown key, bad request, shutdown);
//   Cancelled — the request was cancelled by the client or unwound as
//               part of a cancelled batch;
//   Failed    — the solve itself threw (e.g. a singular operator).
//
// Rejections are part of the contract, not errors: under overload the
// service sheds load *explicitly* so clients can back off or retry
// elsewhere, instead of queueing without bound.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/edd_batch.hpp"
#include "core/fgmres.hpp"

namespace pfem::svc {

using Clock = std::chrono::steady_clock;

enum class Priority { Normal = 0, High = 1 };

/// Handle of a solve session (see svc/session.hpp).  Sessions are
/// service-assigned, dense from 1; 0 is the reserved "no session" value
/// (also the wire encoding of a session-less SolveRequest).
using SessionId = std::uint64_t;
inline constexpr SessionId kNoSession = 0;

struct SolveRequest {
  std::string operator_key;  ///< must be registered with the service
  std::vector<Vector> rhs;   ///< one or more full global RHS vectors
  /// Convergence parameters must match for requests to share a fused
  /// batch; opts.observe is per-request and never blocks coalescing —
  /// observe.progress fires per iteration with *this request's* RHS
  /// index, and observe.trace requests a per-call trace only when the
  /// service has no service-lifetime trace of its own.  Recycling is
  /// not an option: `session` below is the recycling API.
  core::SolveOptions opts;
  Priority priority = Priority::Normal;
  /// Absolute deadline.  Checked at admission AND at dispatch, and
  /// enforced mid-solve by the service's watchdog (the batch is
  /// cancelled when its earliest member deadline expires).
  std::optional<Clock::time_point> deadline;
  /// Deterministic-jitter source for this request's retry backoff: the
  /// same seed always replays the same backoff schedule.  0 (default)
  /// derives the seed from *request content* — mix64 over the operator
  /// key hash, the session id and the per-key dispatch sequence — so a
  /// replayed stream (e.g. `pfem_loadgen --replay`) sees identical
  /// backoff schedules run-to-run.  (It used to fall back to the
  /// service-assigned job id, which differs across replays.)
  std::uint64_t seed = 0;
  /// Session handle from Service::open_session, or kNoSession.  A
  /// session request warm-starts from the session's previous solution,
  /// projects its recycled directions, and deposits this solve's state
  /// back on completion.  The session must be pinned to the SAME
  /// operator_key (else Rejected{BadRequest}); an unknown id is
  /// Rejected{UnknownSession}.  At most one request per session joins a
  /// fused batch, so deposits keep a well-defined order.
  SessionId session = kNoSession;
};

/// Defined in common/status.hpp (one home for cross-layer status enums,
/// with wire-stable values); re-exported here so service call sites
/// keep the subsystem-local spelling.
using RejectReason = status::RejectReason;

[[nodiscard]] constexpr const char* reject_reason_name(
    RejectReason r) noexcept {
  return status::name(r);
}

struct Rejected {
  RejectReason reason;
  std::string detail;
};

struct Completed {
  core::BatchSolveResult result;
  bool cache_hit = false;      ///< operator state came from the cache
  double queue_seconds = 0.0;  ///< admission -> dispatch
  double solve_seconds = 0.0;  ///< dispatch -> done (shared by the batch)
};

struct Cancelled {
  std::string detail;
};

/// Defined in common/status.hpp; re-exported like RejectReason.
using FailReason = status::FailReason;

[[nodiscard]] constexpr const char* fail_reason_name(FailReason r) noexcept {
  return status::name(r);
}

struct Failed {
  std::string error;
  /// Typed reason: BadOperator for a degenerate/misconfigured operator
  /// caught at build (request-scoped — the recipe stays registered, the
  /// cache is not polluted, the shard keeps serving), CommFailure for a
  /// communication fault that survived the retry policy, SolveError
  /// otherwise.
  FailReason reason = FailReason::SolveError;
  /// True when the failure was a typed communication fault (channel
  /// timeout / crashed team) that survived the retry policy — the
  /// request was never silently lost.  Mirrors
  /// reason == FailReason::CommFailure (kept for wire/JSON callers).
  bool comm = false;
  /// On a comm failure, the per-RHS partial reports of the last attempt
  /// (residual histories up to the failure); empty otherwise.
  std::vector<core::SolveReport> partial;
};

using Outcome = std::variant<Completed, Rejected, Cancelled, Failed>;

[[nodiscard]] inline bool ok(const Outcome& o) noexcept {
  return std::holds_alternative<Completed>(o);
}

}  // namespace pfem::svc
