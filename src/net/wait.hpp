// The one blocking wait of the transports and of the par runtime's
// collective cells: spin, then yield, then park on a condition
// variable (CondvarPark: channel rings, reduction cells, barrier).
//
// Both busy phases are bounded by the steady clock.  A 1 µs spin
// catches a partner running on another core; yielding until the wait
// is 50 µs old hands the core to any thread queued on it and still
// catches a loopback-socket round trip; past that the waiter parks, so
// its core can go idle and take a descheduled partner.  An adaptive
// per-thread spin budget (1–50 µs) measured no better than this fixed
// bound on any benchmark workload or probe.  Waits touch no solver
// arithmetic, so no result or counter depends on them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>

namespace pfem::net::detail {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// How long a wait spins on `pause` before it starts yielding.
inline constexpr std::chrono::nanoseconds kSpinTime{1'000};
/// How old a wait may get, spin included, before it parks.
inline constexpr std::chrono::nanoseconds kYieldUntil{50'000};

/// The condition-variable park step.  Registering in `waiting` before
/// the final predicate check (inside cv.wait) pairs with
/// notify_parked's seq_cst read, so a publisher either sees the waiter
/// or the waiter sees the publish — no lost wakeup, and no mutex on
/// the publisher's fast path.  timeout_ns <= 0 waits without deadline.
struct CondvarPark {
  std::mutex& m;
  std::condition_variable& cv;
  std::atomic<int>& waiting;
  std::int64_t timeout_ns;

  template <typename Done>
  bool operator()(Done& done) const {
    std::unique_lock<std::mutex> lk(m);
    waiting.fetch_add(1, std::memory_order_seq_cst);
    bool ok = true;
    if (timeout_ns <= 0)
      cv.wait(lk, done);
    else
      ok = cv.wait_for(lk, std::chrono::nanoseconds(timeout_ns), done);
    waiting.fetch_sub(1, std::memory_order_relaxed);
    return ok;
  }
};

/// Block until done() holds.  `park(done)` is called only once the
/// spin and yield phases have failed; it blocks until done() holds and
/// returns false if its armed deadline expired first.  Returns the
/// seconds waited, or nullopt on a deadline expiry.  done() must also
/// cover the caller's abort flag, so a teardown wakes every phase.
template <typename Done>
[[nodiscard]] std::optional<double> wait_until(Done done,
                                               const CondvarPark& park) {
  const auto t0 = SteadyClock::now();
  bool caught = done();
  while (!caught && SteadyClock::now() - t0 < kSpinTime) {
    cpu_relax();
    caught = done();
  }
  while (!caught && SteadyClock::now() - t0 < kYieldUntil) {
    std::this_thread::yield();
    caught = done();
  }
  if (!caught && !park(done)) return std::nullopt;
  return seconds_since(t0);
}

/// Publisher side of CondvarPark: call after the seq_cst publish of
/// the waited-for condition.
inline void notify_parked(std::mutex& m, std::condition_variable& cv,
                          std::atomic<int>& waiting) {
  if (waiting.load(std::memory_order_seq_cst) != 0) {
    // Empty critical section: a waiter that registered but has not
    // finished its predicate re-check under the lock is flushed out.
    // notify_all runs after unlock so the woken thread never bounces
    // off a mutex still held here.
    { std::lock_guard<std::mutex> lk(m); }
    cv.notify_all();
  }
}

}  // namespace pfem::net::detail
