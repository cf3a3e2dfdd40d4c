// Message-passing runtime (the MPI substitute).
//
// The paper runs C+MPI on an IBM SP2 and an SGI Origin.  Neither machine
// (nor MPI) is available here, so this module provides the same
// programming model on one box: `run_spmd(P, fn)` launches P ranks as
// threads, each receiving a `Comm` handle with blocking point-to-point
// send/recv (matched on source+tag), barrier, and deterministic
// allreduce.  All solver code in src/core is written SPMD against this
// API exactly as it would be against MPI_Send/MPI_Recv/MPI_Allreduce.
// `Team` is the persistent form: ranks are spawned once and parked
// between jobs, which is what lets a solve service keep a warm team
// instead of paying P thread spawns per solve.
//
// Transport: one persistent single-producer/single-consumer channel per
// ordered rank pair, with a fixed ring of preallocated payload slots.
// Steady state a message costs two memcpys (sender -> slot -> receiver)
// and zero heap allocations.  Every blocked channel and collective wait
// runs net::detail::wait_until (net/wait.hpp): about a microsecond of
// spinning, yields until the wait is 50 µs old, then a park on a
// condition variable with a predicate (no timed polling), so a rank
// whose partner was descheduled hands its core over within microseconds.
//
// Determinism: allreduce combines contributions along a fixed binary
// tournament tree (pair order determined by rank indices alone, never by
// arrival), the root's result is broadcast, so every rank observes
// bit-identical results and all ranks take identical convergence
// branches — the property MPI programs get from MPI_Allreduce's single
// rooted combine.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "par/counters.hpp"

namespace pfem::par {

namespace detail {
class TeamState;
class TeamRuntime;
}

/// Typed channel failure (timeout or injected crash) — defined in
/// fault/fault.hpp so solvers can catch it without runtime internals;
/// aliased here because the runtime is what throws it.
using fault::CommError;

/// Per-rank communicator handle.  Valid only inside run_spmd's callback.
class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Blocking tagged send of a real vector to `dest`.
  void send(int dest, int tag, std::span<const real_t> data);

  /// Blocking receive matching (src, tag); resizes `out`.
  void recv(int src, int tag, Vector& out);

  /// Blocking receive matching (src, tag) into a preposted buffer whose
  /// size must equal the message length exactly — the zero-allocation
  /// path the exchange kernels use.
  void recv(int src, int tag, std::span<real_t> out);

  /// Split neighbor exchange, first half: post this rank's contribution
  /// toward `peer` (one call per peer).  Delegates to send(), so wire
  /// ordering, PerfCounters traffic accounting, the Op::Send fault site
  /// and the "send" span are exactly those of a monolithic exchange.
  /// Between start and finish the caller may compute anything that does
  /// not read the in-flight entries — the transport keeps at most one
  /// outstanding message per ordered rank pair here, far below the
  /// channel ring capacity, so the posted sends can never block on a
  /// peer that is still computing its interior rows.
  void exchange_start(int peer, int tag, std::span<const real_t> data);

  /// Split neighbor exchange, second half: complete the receive from
  /// `peer` into a preposted buffer (one call per peer, any peer order —
  /// determinism comes from the caller folding in fixed rank order).
  /// Delegates to recv(): same Op::Recv fault site, same "recv" span,
  /// same traffic counters.
  void exchange_finish(int peer, int tag, std::span<real_t> out);

  /// Synchronize all ranks.
  void barrier();

  /// Deterministic global sum of one scalar (every rank gets the same
  /// bit pattern).
  [[nodiscard]] real_t allreduce_sum(real_t x);

  /// Deterministic element-wise global sum.
  void allreduce_sum(std::span<real_t> inout);

  /// Deterministic global max.
  [[nodiscard]] real_t allreduce_max(real_t x);

  /// Lowest rank hosted by THIS process.  For in-process teams this is
  /// 0 on every rank (the classic "rank 0 does it" guard); on a
  /// multi-process transport each process has its own leader, which is
  /// what shared-state writes must key on — every process needs its own
  /// copy of results that ranks compute redundantly from allreduced
  /// scalars.
  [[nodiscard]] int local_leader() const noexcept;

  /// Is rank `r` hosted by this process (sharing this address space)?
  [[nodiscard]] bool is_local(int r) const noexcept;

  /// This rank's performance counters (mutable — kernels add to them).
  [[nodiscard]] PerfCounters& counters() noexcept { return *counters_; }

  /// This rank's trace lane, or nullptr when the job runs untraced.
  /// Kernels pass it straight to OBS_SPAN (null-safe).
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_; }

 private:
  friend class detail::TeamRuntime;
  Comm(int rank, detail::TeamState* team, PerfCounters* counters,
       obs::Tracer* tracer, fault::FaultInjector* injector);

  /// Consult the armed injector at the current (op, peer) site and
  /// advance the site counter.  Applies Delay/Stall (interruptible
  /// sleep) and Crash (throws CommError) in place; returns the action
  /// for the op-specific wire faults (Drop/Duplicate) or nullptr.
  const fault::FaultAction* consume_fault(fault::Op op, int peer);

  /// Stamp the "fault_timeout" span when a channel wait surfaced a
  /// timeout CommError (the counter is bumped where the wait timed out).
  void note_comm_error(const CommError& e, int peer);

  int rank_;
  detail::TeamState* team_;
  PerfCounters* counters_;
  obs::Tracer* tracer_;
  std::uint64_t coll_seq_ = 0;  ///< this rank's collective-op count

  // Fault-injection site counters (allocated only when a plan is armed;
  // a fault-free job pays one null check per op).
  fault::FaultInjector* injector_ = nullptr;
  std::vector<std::uint64_t> send_seq_;   ///< per-peer send count
  std::vector<std::uint64_t> recv_seq_;   ///< per-peer recv count
  std::uint64_t coll_fault_seq_ = 0;      ///< collective count (incl. barrier)
};

/// Thrown out of Team::run when the job was torn down by Team::cancel()
/// rather than by a rank's own failure.
class Cancelled : public Error {
 public:
  Cancelled() : Error("SPMD job cancelled") {}
};

/// How a Team reaches its ranks.  The default (null transport) is the
/// in-process wire: all ranks are threads of this process talking
/// through the PR-1 channel rings.  A non-null transport may instead
/// place rank blocks in other processes (socket frames); THIS Team
/// then spawns threads only for the ranks its process hosts, and
/// every cooperating process constructs its own Team over its own end
/// of the same transport and calls run() with the same job.
/// Collectives stay deterministic and bit-identical across
/// transports: the runtime folds contributions in the same fixed
/// tournament-tree order whether the stage crosses a cache line or a
/// socket.
struct TeamConfig {
  /// Global team size.  0 means "take it from the transport"; when both
  /// are given they must agree.
  int nranks = 0;
  std::shared_ptr<net::Transport> transport;  ///< null = in-process
};

/// A persistent SPMD rank team.  Threads are spawned once at construction
/// and parked between jobs, so a warm solve pays a condvar wakeup instead
/// of P thread spawns/joins; channel payload rings, reduction cells and
/// counters are likewise allocated once and recycled across jobs.
///
/// run() dispatches one SPMD job to all ranks and blocks until every rank
/// returns; jobs are serialized (one in flight).  cancel() requests
/// cooperative teardown of the in-flight job: blocked ranks unwind
/// through the abort path immediately, running ranks at their next
/// communication call, and run() then throws Cancelled.  A rank's own
/// exception still wins over the secondary unwinds and is rethrown as-is.
class Team {
 public:
  explicit Team(int nranks);
  explicit Team(TeamConfig cfg);
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Global team size (across every process of the transport).
  [[nodiscard]] int size() const noexcept;

  /// Ranks hosted by THIS process (== size() for in-process teams).
  [[nodiscard]] int local_size() const noexcept;

  /// Run `fn` as one SPMD job on the parked ranks; returns the per-rank
  /// counters of this job (reset at job start).  With a non-null
  /// `trace` (whose nranks must equal the team size), each rank's Comm
  /// carries that rank's trace lane and the runtime's send/recv/
  /// allreduce/barrier record spans into it; the lanes are safe to read
  /// once run() returned.
  std::vector<PerfCounters> run(const std::function<void(Comm&)>& fn,
                                obs::Trace* trace = nullptr);

  /// Request cooperative cancellation of the in-flight job (safe from any
  /// thread).  No-op when idle; the flag is cleared when the next job
  /// starts.
  void cancel();

  /// Has cancel() been called since the current/last job started?
  [[nodiscard]] bool cancel_requested() const noexcept;

  /// Arm deterministic fault injection for subsequent jobs (nullptr
  /// disarms).  The injector's plan must match the team size and must
  /// outlive every job that uses it; only callable between jobs.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Bound every blocking channel/collective wait: a wait exceeding
  /// `seconds` throws a typed CommError instead of hanging on a dead or
  /// silent peer.  0 disables (the default).  Takes effect immediately,
  /// including for the in-flight job's future waits.
  void set_comm_timeout(double seconds) noexcept;

 private:
  std::unique_ptr<detail::TeamRuntime> rt_;
};

/// Launch `nranks` SPMD ranks running `fn`, one thread each; returns the
/// per-rank counters.  Any exception thrown by a rank is rethrown here
/// after all threads join.  Equivalent to a single-job Team — callers
/// with many solves should hold a Team and amortize the spawn.
/// `injector`/`comm_timeout_seconds` are the ObserveOptions chaos
/// hooks, armed on the one-shot team before the job runs.
std::vector<PerfCounters> run_spmd(int nranks,
                                   const std::function<void(Comm&)>& fn,
                                   obs::Trace* trace = nullptr,
                                   fault::FaultInjector* injector = nullptr,
                                   double comm_timeout_seconds = 0.0);

}  // namespace pfem::par
