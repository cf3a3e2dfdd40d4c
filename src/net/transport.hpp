// pfem::net — the process-transport seam under the SPMD runtime.
//
// par::Team speaks to its wire through this interface: blocking tagged
// point-to-point push/take per ordered rank pair with FIFO order, wire
// sequence numbers (dedup of injected duplicates, typed loss detection
// of injected drops), a team-wide abort flag that unwinds blocked
// ranks, and an optional wait deadline that turns a dead peer into a
// typed fault::CommError instead of a hang.
//
// Two implementations, one receive path (RingCore::take, ring.hpp):
//
//   in-process (inproc.cpp)        — the PR-1 SPSC channel rings, the
//                                    zero-cost default for rank teams
//                                    that are threads in one process;
//   sockets (socket_transport.cpp) — length-prefixed frames over
//                                    stream sockets (Unix or TCP), one
//                                    connection per process pair, for
//                                    ranks split across address spaces
//                                    (co-located processes included),
//                                    delivered into a RingCore inbox.
//
// Fault injection stays ABOVE this seam: par::Comm consumes the seeded
// plan and translates Drop into mark_dropped() and Duplicate into a
// wire_dup push, so every transport inherits the chaos suite's
// semantics (gap => CommError::lost, dup absorbed) without any
// transport-specific hooks.  Likewise spans/counters: the runtime
// stamps them, transports only report wait time through WaitStats.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"

namespace pfem::net {

/// Thrown out of blocked transport (and runtime) waits when the team is
/// torn down because another rank failed or the job was cancelled, so
/// the whole team unwinds instead of deadlocking.  par's TeamRuntime
/// swallows these and rethrows the originating error.
class Aborted : public Error {
 public:
  Aborted() : Error("SPMD team aborted because another rank failed") {}
};

/// Per-call accounting hooks: transports add blocked-wait time and
/// deadline expiries to the caller's counters through these (null-safe),
/// keeping pfem::par the only layer that knows PerfCounters.
struct WaitStats {
  double* wait_seconds = nullptr;
  std::uint64_t* timeouts = nullptr;

  void add_wait(double s) const {
    if (wait_seconds != nullptr) *wait_seconds += s;
  }
  void add_timeout() const {
    if (timeouts != nullptr) ++*timeouts;
  }
};

/// Receiver callback of take().  `owned` is the ring's payload buffer,
/// relinquished to the sink (which may swap it out — the single-copy
/// receive); its first data.size() entries are the message.  Both are
/// valid only for the duration of the call.
class MsgSink {
 public:
  virtual void deliver(Vector& owned, std::span<const real_t> data) = 0;

 protected:
  ~MsgSink() = default;
};

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Global team size (across every process on this transport).
  [[nodiscard]] virtual int nranks() const noexcept = 0;
  /// First rank hosted by THIS process (contiguous block).
  [[nodiscard]] virtual int rank_base() const noexcept = 0;
  /// Number of ranks hosted by this process.
  [[nodiscard]] virtual int local_ranks() const noexcept = 0;
  /// True when rank pairs may live in different address spaces — the
  /// runtime then routes barriers/allreduces over tagged p2p messages
  /// (reserved negative tags) instead of its in-process reduction cells.
  [[nodiscard]] virtual bool multi_process() const noexcept = 0;

  /// Blocking FIFO push of (src -> dst, tag).  `wire_dup` re-sends the
  /// previous message's wire sequence number (an injected duplicated
  /// delivery) instead of issuing a fresh one.  Blocks when the pair's
  /// ring/window is full; throws CommError::timeout past the armed
  /// deadline, Aborted on team teardown.  src must be hosted locally.
  virtual void push(int src, int dst, int tag, std::span<const real_t> data,
                    bool wire_dup, const WaitStats& ws) = 0;

  /// Consume (src -> dst)'s next wire sequence number without sending —
  /// an injected Drop.  The receiver sees the gap and fails typed.
  virtual void mark_dropped(int src, int dst) = 0;

  /// Blocking receive of the oldest (src -> dst) message with tag
  /// `tag`; non-matching older messages are stashed (FIFO per tag is
  /// preserved).  Absorbs wire duplicates; throws CommError::lost on a
  /// sequence gap, CommError::timeout past the deadline, Aborted on
  /// teardown.  dst must be hosted locally.
  virtual void take(int dst, int src, int tag, MsgSink& sink,
                    const WaitStats& ws) = 0;

  /// Deadline for blocking waits in THIS process; 0 disables.
  virtual void set_timeout(double seconds) noexcept = 0;

  /// Tear down: every blocked or future transport call in every
  /// attached process unwinds with Aborted.  The socket transport
  /// propagates the flag to its peers with an Abort frame.
  virtual void abort() noexcept = 0;
  [[nodiscard]] virtual bool is_aborted() const noexcept = 0;

  /// Restore quiescence between Team jobs.  The in-process transport
  /// fully recycles rings and sequence numbers (the warm-team path);
  /// multi-process transports keep their wire sequence numbers running
  /// (both ends must agree and cannot rendezvous here) — clean
  /// back-to-back jobs are fine, but a transport whose job aborted
  /// should be discarded, not reused.
  virtual void reset_for_job() = 0;
};

/// The default: the in-process per-pair SPSC channel rings.
std::shared_ptr<Transport> make_inproc_transport(int nranks);

}  // namespace pfem::net
