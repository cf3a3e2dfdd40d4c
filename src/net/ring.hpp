// The in-process channel-ring core: one persistent single-producer /
// single-consumer ring of preallocated payload slots per ordered rank
// pair, with wire sequence numbers and out-of-order tag stashing.
//
// This is the PR-1 runtime's transport, extracted so it serves two
// masters: the in-process Transport uses it end to end (sender fills a
// slot, receiver drains it), and the socket transport uses it as its
// receive-side inbox (the reader thread is the producer, delivering
// frames under their wire sequence numbers).  Keeping one RingCore
// means the gap-detection / dedup / stash semantics the chaos suite
// pins down are literally the same code on every wire.  Blocked pushes
// and takes go through net::detail::wait_until (wait.hpp) with a
// condition-variable park.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "net/transport.hpp"
#include "net/wait.hpp"

namespace pfem::net {

/// One preallocated message slot of an SPSC ring.  `full` is the
/// synchronization point: the sender owns the slot while false, the
/// receiver while true.  Payload capacity grows on first use and is
/// then reused forever — no steady-state allocation.
struct RingSlot {
  std::atomic<bool> full{false};
  int tag = 0;
  std::size_t size = 0;
  /// Wire sequence number (1-based, per channel).  A duplicated
  /// delivery reuses its original's number, which is how the receiver
  /// recognizes and absorbs it — at-least-once off the wire,
  /// exactly-once delivered.
  std::uint64_t seq = 0;
  Vector payload;
};

/// Persistent SPSC channel for one ordered rank pair.  head is touched
/// only by the producer, tail and stash only by the consumer;
/// cross-thread visibility runs through RingSlot::full.
///
/// The stash holds messages the receiver popped while scanning for a
/// different tag (a seldom-used MPI-style out-of-order match); FIFO
/// order per tag is preserved because stashed messages are always older
/// than anything still in the ring.
struct RingChannel {
  // Deep enough that the solver's 1-2 messages per neighbor per
  // iteration never block, shallow enough that the ring's payload
  // buffers are revisited while still cache-resident.
  static constexpr std::size_t kSlots = 8;

  struct Stashed {
    int tag;
    Vector payload;
  };

  std::array<RingSlot, kSlots> slots;
  std::size_t head = 0;  ///< producer-owned: next slot to fill
  std::size_t tail = 0;  ///< consumer-owned: next slot to drain
  std::vector<Stashed> stash;  ///< consumer-owned out-of-order buffer
  std::uint64_t send_seq = 0;  ///< sender-owned: last wire seq issued
  std::uint64_t last_drained_seq = 0;  ///< consumer-owned: dedup watermark

  // Parking lot of detail::CondvarPark: the waiting counters gate the
  // notify calls so the uncontended fast path never touches the mutex.
  std::mutex m;
  std::condition_variable data_cv;   ///< consumer waits for a full slot
  std::condition_variable space_cv;  ///< producer waits for a free slot
  std::atomic<int> recv_waiting{0};
  std::atomic<int> send_waiting{0};
};

/// The P x P channel matrix plus the abort/timeout plumbing its waits
/// consult.  All methods keep the SPSC discipline: for a given (src,
/// dst) pair, push_seq is called by one thread and take by one thread.
class RingCore {
 public:
  explicit RingCore(int nranks)
      : size_(nranks),
        channels_(static_cast<std::size_t>(nranks) *
                  static_cast<std::size_t>(nranks)) {}

  [[nodiscard]] int size() const noexcept { return size_; }

  [[nodiscard]] RingChannel& channel(int src, int dst) {
    return channels_[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(size_) +
                     static_cast<std::size_t>(dst)];
  }

  /// Producer-side wire sequence bookkeeping (sender-owned counters;
  /// the socket transport uses these for its OUTBOUND numbering even
  /// though the frames travel over a socket, so an injected Drop
  /// consumes a number exactly like the in-process wire).
  [[nodiscard]] std::uint64_t next_seq(int src, int dst) {
    return ++channel(src, dst).send_seq;
  }
  [[nodiscard]] std::uint64_t last_seq(int src, int dst) {
    return channel(src, dst).send_seq;
  }
  void mark_dropped(int src, int dst) { ++channel(src, dst).send_seq; }

  /// Blocking push of a message that already carries its wire sequence
  /// number.  `op`/`err_rank`/`err_peer` shape the typed timeout error
  /// (Op::Send for a true sender, Op::Recv when the producer is a
  /// socket reader delivering into the inbox — the *receiver* is who
  /// is stuck in that case).
  void push_seq(int src, int dst, int tag, std::span<const real_t> data,
                std::uint64_t seq, const WaitStats& ws, fault::Op op,
                int err_rank, int err_peer) {
    RingChannel& ch = channel(src, dst);
    RingSlot& slot = ch.slots[ch.head % RingChannel::kSlots];
    // Ring full: wait for the consumer to free this slot.
    if (slot.full.load(std::memory_order_seq_cst)) {
      const std::optional<double> waited = detail::wait_until(
          [&] {
            return !slot.full.load(std::memory_order_seq_cst) || is_aborted();
          },
          park(ch, ch.space_cv, ch.send_waiting));
      if (!waited) {
        ws.add_timeout();
        throw fault::CommError::timeout(err_rank, err_peer, op,
                                        timeout_seconds());
      }
      ws.add_wait(*waited);
    }
    check_abort();
    slot.tag = tag;
    slot.size = data.size();
    slot.seq = seq;
    if (slot.payload.size() < data.size()) slot.payload.resize(data.size());
    std::copy(data.begin(), data.end(), slot.payload.begin());
    slot.full.store(true, std::memory_order_seq_cst);
    ++ch.head;
    detail::notify_parked(ch.m, ch.data_cv, ch.recv_waiting);
  }

  /// Pop the oldest (src -> dst) message with a matching tag and hand
  /// it to the sink (relinquishing the payload buffer, so the sink may
  /// swap it out — the single-copy receive).  Non-matching older
  /// messages move to the stash so the ring stays a compact FIFO.
  void take(int dst, int src, int tag, MsgSink& sink, const WaitStats& ws) {
    // No abort check while data is available: a peer process that
    // finishes its half of the job and closes its connection trips the
    // EOF abort AFTER its final frames were delivered, and those frames
    // must still reach the ranks waiting on them (otherwise clean
    // completion races teardown).  Only an unsatisfiable wait — empty
    // channel and the abort flag up — unwinds with Aborted.
    RingChannel& ch = channel(src, dst);
    for (auto it = ch.stash.begin(); it != ch.stash.end(); ++it) {
      if (it->tag == tag) {
        sink.deliver(it->payload,
                     std::span<const real_t>(it->payload.data(),
                                             it->payload.size()));
        ch.stash.erase(it);
        return;
      }
    }
    for (;;) {
      RingSlot& slot = ch.slots[ch.tail % RingChannel::kSlots];
      if (!slot.full.load(std::memory_order_seq_cst)) {
        check_abort();
        const std::optional<double> waited = detail::wait_until(
            [&] {
              return slot.full.load(std::memory_order_seq_cst) || is_aborted();
            },
            park(ch, ch.data_cv, ch.recv_waiting));
        if (!waited) {
          ws.add_timeout();
          throw fault::CommError::timeout(dst, src, fault::Op::Recv,
                                          timeout_seconds());
        }
        ws.add_wait(*waited);
        // The wake may be the abort, not data — consume if the slot
        // filled, unwind otherwise.
        if (!slot.full.load(std::memory_order_seq_cst)) check_abort();
      }
      // Wire-level duplicate (seq at or below the watermark): the
      // channel absorbs it — at-least-once delivery dedups to
      // exactly-once before any solver code sees the payload.
      if (slot.seq <= ch.last_drained_seq) {
        release_slot(ch, slot);
        continue;
      }
      // A gap above the watermark means a message was dropped on the
      // wire (an injected Drop consumed its seq without delivering).
      // Surface it typed right here: consuming the next message in the
      // lost one's place would silently shift the stream and corrupt
      // the solve.  (A drop with no later traffic is caught by the
      // channel timeout instead.)
      if (slot.seq > ch.last_drained_seq + 1)
        throw fault::CommError::lost(dst, src, ch.last_drained_seq + 1,
                                     slot.seq);
      ch.last_drained_seq = slot.seq;
      if (slot.tag == tag) {
        sink.deliver(slot.payload,
                     std::span<const real_t>(slot.payload.data(), slot.size));
        release_slot(ch, slot);
        return;
      }
      // Tag mismatch: move the message aside.  The slot keeps an empty
      // Vector; the producer regrows it on the next use of this ring
      // position.
      ch.stash.push_back(RingChannel::Stashed{slot.tag, Vector()});
      ch.stash.back().payload.swap(slot.payload);
      ch.stash.back().payload.resize(slot.size);
      release_slot(ch, slot);
    }
  }

  // ---- Abort / timeout ---------------------------------------------------

  void set_timeout(double seconds) noexcept {
    timeout_ns_.store(
        seconds > 0.0 ? static_cast<std::int64_t>(seconds * 1e9) : 0,
        std::memory_order_seq_cst);
  }

  [[nodiscard]] double timeout_seconds() const noexcept {
    return static_cast<double>(timeout_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  void abort() noexcept {
    aborted_.store(true, std::memory_order_seq_cst);
    for (RingChannel& ch : channels_) {
      std::lock_guard<std::mutex> lk(ch.m);
      ch.data_cv.notify_all();
      ch.space_cv.notify_all();
    }
  }

  [[nodiscard]] bool is_aborted() const noexcept {
    return aborted_.load(std::memory_order_seq_cst);
  }

  void check_abort() const {
    if (is_aborted()) throw Aborted{};
  }

  /// Restore quiescence (only safe while no thread is inside a
  /// push/take — the Team dispatcher owns that window between jobs).
  void reset() {
    aborted_.store(false, std::memory_order_seq_cst);
    for (RingChannel& ch : channels_) {
      for (RingSlot& slot : ch.slots) {
        slot.full.store(false, std::memory_order_relaxed);
        slot.tag = 0;
        slot.size = 0;
      }
      ch.head = 0;
      ch.tail = 0;
      ch.stash.clear();
      ch.send_seq = 0;
      ch.last_drained_seq = 0;
    }
  }

 private:
  void release_slot(RingChannel& ch, RingSlot& slot) {
    slot.full.store(false, std::memory_order_seq_cst);
    ++ch.tail;
    detail::notify_parked(ch.m, ch.space_cv, ch.send_waiting);
  }

  /// The park step of this core's waits (an abort wakes it through the
  /// waiter's predicate and is never reported as a timeout).
  [[nodiscard]] detail::CondvarPark park(RingChannel& ch,
                                         std::condition_variable& cv,
                                         std::atomic<int>& waiting) const {
    return {ch.m, cv, waiting, timeout_ns_.load(std::memory_order_relaxed)};
  }

  int size_;
  std::vector<RingChannel> channels_;
  std::atomic<bool> aborted_{false};
  std::atomic<std::int64_t> timeout_ns_{0};  ///< 0 = waits never time out
};

}  // namespace pfem::net
