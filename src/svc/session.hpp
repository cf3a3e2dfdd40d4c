// Solve sessions: the service-side state store behind warm starts and
// Krylov recycling (the ISSUE-8 api_redesign).
//
// A session is a client handle pinned to one registered operator.  Every
// completed solve submitted under the session deposits its solution and
// the harvested restart-cycle directions here; the next solve under the
// same session reads them back as core::RecycleIn — warm start x0 plus a
// bounded recycled subspace that fgmres projects out of the initial
// residual (on top of the A-DEF1 coarse correction, which is operator
// state, not session state).
//
// Lifecycle and eviction:
//
//   open ──▶ cold (no state) ──deposit──▶ warm ──deposit──▶ warm …
//                 ▲                         │
//                 └──────── evict ──────────┘        close ──▶ gone
//
// The *handle* lives until close_session(); the *state* (x_prev + the
// direction ring) is LRU-bounded by kSessionCapacity and also dropped
// whenever the operator cache evicts the built operator the session is
// pinned to (evict_for_operator — memory pressure stays coherent across
// the two caches).  An evicted session silently degrades to a cold
// solve; it is never an error.  Operator *updates* (drifting matrices,
// e.g. `pfem_loadgen --replay`) deliberately keep the state: recycled
// directions are re-projected through the NEW operator at solve time, so
// they stay mathematically safe and typically still useful — that is the
// whole point of recycling across a slowly-changing operator.
//
// Thread safety: every method takes the table mutex; the table never
// calls out while holding it (lock order with OperatorCache is always
// cache -> table, via the eviction callback).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/edd_batch.hpp"
#include "svc/request.hpp"

namespace pfem::svc {

/// One session's recycle payload: per-RHS-lane state of the previous
/// completed solve (a request with B right-hand sides deposits B lanes;
/// the next request's lane r warm-starts from lane r).
struct SessionSnapshot {
  std::string operator_key;
  std::vector<core::RecycleIn> lanes;
  std::uint64_t seq = 0;  ///< completed deposits under this session
};

/// How many sessions may hold *state* at once (LRU); handles themselves
/// live until closed, and an evicted session just runs cold.
inline constexpr std::size_t kSessionCapacity = 32;

class SessionTable {
 public:
  [[nodiscard]] SessionId open(std::string operator_key) {
    std::scoped_lock lock(m_);
    const SessionId id = next_id_++;
    Entry& e = entries_[id];
    e.operator_key = std::move(operator_key);
    return id;
  }

  /// Release the handle and its state.  False if the id was unknown.
  bool close(SessionId id) {
    std::scoped_lock lock(m_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    lru_erase(id);
    entries_.erase(it);
    return true;
  }

  [[nodiscard]] std::optional<std::string> operator_key_of(
      SessionId id) const {
    std::scoped_lock lock(m_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return std::nullopt;
    return it->second.operator_key;
  }

  /// Copy of the session's current recycle state (empty lanes when cold
  /// or evicted), or nullopt for an unknown id.  Touches the LRU.
  [[nodiscard]] std::optional<SessionSnapshot> snapshot(SessionId id) {
    std::scoped_lock lock(m_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return std::nullopt;
    if (!it->second.lanes.empty()) lru_touch(id);
    SessionSnapshot out;
    out.operator_key = it->second.operator_key;
    out.lanes = it->second.lanes;
    out.seq = it->second.seq;
    return out;
  }

  /// Store a completed solve: per-lane solution (the next warm start)
  /// and freshly harvested directions appended to each lane's ring,
  /// oldest dropped beyond core::kMaxRecycleDirections.  `harvested` may be empty
  /// (recycling produced no new directions) or sized like `x`.
  /// Returns the number of sessions whose state was LRU-evicted to make
  /// room (for the service's counters).
  std::size_t deposit(SessionId id, const std::vector<Vector>& x,
                      const std::vector<std::vector<Vector>>& harvested) {
    std::scoped_lock lock(m_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return 0;  // closed while the solve ran
    Entry& e = it->second;
    if (e.lanes.size() != x.size())
      e.lanes.assign(x.size(), core::RecycleIn{});
    for (std::size_t r = 0; r < x.size(); ++r) {
      core::RecycleIn& lane = e.lanes[r];
      lane.x0 = x[r];
      if (r < harvested.size())
        for (const Vector& dir : harvested[r]) lane.directions.push_back(dir);
      while (lane.directions.size() > core::kMaxRecycleDirections)
        lane.directions.erase(lane.directions.begin());
    }
    ++e.seq;
    lru_touch(id);
    std::size_t evicted = 0;
    while (lru_.size() > kSessionCapacity) {
      auto victim = entries_.find(lru_.back());
      if (victim != entries_.end()) {
        victim->second.lanes.clear();
        ++evicted;
      }
      lru_.pop_back();
    }
    return evicted;
  }

  /// Drop the state of every session pinned to `key` (handles stay).
  /// Called by the service when the operator cache evicts the built
  /// operator.  Returns how many sessions lost state.
  std::size_t evict_for_operator(const std::string& key) {
    std::scoped_lock lock(m_);
    std::size_t evicted = 0;
    for (auto& [id, e] : entries_)
      if (e.operator_key == key && !e.lanes.empty()) {
        e.lanes.clear();
        lru_erase(id);
        ++evicted;
      }
    return evicted;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(m_);
    return entries_.size();
  }

  /// Sessions currently holding warm state (the LRU population).
  [[nodiscard]] std::size_t warm_count() const {
    std::scoped_lock lock(m_);
    return lru_.size();
  }

 private:
  struct Entry {
    std::string operator_key;
    std::vector<core::RecycleIn> lanes;  ///< empty = cold / evicted
    std::uint64_t seq = 0;
  };

  void lru_touch(SessionId id) {
    lru_erase(id);
    lru_.push_front(id);
  }
  void lru_erase(SessionId id) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it)
      if (*it == id) {
        lru_.erase(it);
        return;
      }
  }

  mutable std::mutex m_;
  std::unordered_map<SessionId, Entry> entries_;
  std::list<SessionId> lru_;  ///< ids with state, most recent first
  SessionId next_id_ = 1;     ///< 0 is kNoSession
};

}  // namespace pfem::svc
