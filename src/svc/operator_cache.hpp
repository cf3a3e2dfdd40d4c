// Keyed operator registry + LRU cache of built EddOperatorState.
//
// The registry maps a client-chosen key to the *recipe* for an operator
// (partition, polynomial spec, optional per-rank matrix override); the
// cache holds the *built* state — the norm-1-scaled matrices and the
// polynomial recursion data that build_edd_operator produces on the
// team.  Registration and update invalidate the built state explicitly;
// get_or_build() rebuilds at most once per (key, version).  Built
// states are handed out as shared_ptr-to-const so an update or eviction
// never pulls memory out from under an in-flight solve.
#pragma once

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/edd_batch.hpp"

namespace pfem::svc {

class OperatorCache {
 public:
  /// @param capacity max number of *built* states kept (LRU-evicted);
  ///        registry entries (recipes) are not bounded.
  explicit OperatorCache(std::size_t capacity) : capacity_(capacity) {
    PFEM_CHECK_MSG(capacity_ >= 1, "operator cache needs capacity >= 1");
  }

  /// `deflation`, when set, is THIS key's coarse space (operators from
  /// different problem families need different layouts: components,
  /// coord_dim, coefficient tables); the factorized coarse operator
  /// lives inside the built state, so a cache hit reuses it along with
  /// the scaling and kernels.  nullopt builds without deflation.
  void register_operator(
      const std::string& key,
      std::shared_ptr<const partition::EddPartition> part,
      const core::PolySpec& poly,
      std::shared_ptr<const std::vector<sparse::CsrMatrix>> local_matrices =
          nullptr,
      std::optional<core::DeflationOptions> deflation = std::nullopt) {
    PFEM_CHECK_MSG(part != nullptr, "register_operator: null partition");
    core::validate_poly_spec(poly);
    std::scoped_lock lock(m_);
    Entry& e = entries_[key];
    e.part = std::move(part);
    e.poly = poly;
    e.local_matrices = std::move(local_matrices);
    e.deflation = std::move(deflation);
    e.state = nullptr;  // recipe changed: built state is stale
    ++e.version;
    lru_erase(key);
  }

  /// Swap in new per-rank matrices (same partition/dof layout), e.g. the
  /// next time step's effective stiffness.  Invalidate the built state.
  void update_operator(
      const std::string& key,
      std::shared_ptr<const std::vector<sparse::CsrMatrix>> local_matrices) {
    std::scoped_lock lock(m_);
    auto it = entries_.find(key);
    PFEM_CHECK_MSG(it != entries_.end(),
                   "update_operator: unknown key '" << key << "'");
    it->second.local_matrices = std::move(local_matrices);
    it->second.state = nullptr;
    ++it->second.version;
    lru_erase(key);
  }

  [[nodiscard]] bool contains(const std::string& key) const {
    std::scoped_lock lock(m_);
    return entries_.count(key) > 0;
  }

  [[nodiscard]] std::shared_ptr<const partition::EddPartition> partition_of(
      const std::string& key) const {
    std::scoped_lock lock(m_);
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second.part;
  }

  /// Built state for `key`, building it on `team` if missing or stale.
  /// second == true means the state was served from cache (a warm hit).
  /// The build runs outside the lock: the scheduler thread is the only
  /// builder, so concurrent readers just see a miss until it lands.
  /// `trace` (optional, lanes == team size) records the build's spans.
  [[nodiscard]] std::pair<std::shared_ptr<const core::EddOperatorState>, bool>
  get_or_build(const std::string& key, par::Team& team,
               obs::Trace* trace = nullptr) {
    std::shared_ptr<const partition::EddPartition> part;
    core::PolySpec poly;
    std::shared_ptr<const std::vector<sparse::CsrMatrix>> mats;
    core::DeflationOptions deflation;
    std::uint64_t version = 0;
    {
      std::scoped_lock lock(m_);
      auto it = entries_.find(key);
      PFEM_CHECK_MSG(it != entries_.end(),
                     "get_or_build: unknown key '" << key << "'");
      if (it->second.state != nullptr) {
        lru_touch(key);
        return {it->second.state, true};
      }
      part = it->second.part;
      poly = it->second.poly;
      mats = it->second.local_matrices;
      deflation = it->second.deflation.value_or(core::DeflationOptions{});
      version = it->second.version;
    }
    auto built = std::make_shared<const core::EddOperatorState>(
        core::build_edd_operator(team, *part, poly, mats ? mats.get() : nullptr,
                                 trace, {}, deflation));
    std::scoped_lock lock(m_);
    auto it = entries_.find(key);
    // Store only if the recipe did not change while building.
    if (it != entries_.end() && it->second.version == version &&
        it->second.state == nullptr) {
      it->second.state = built;
      lru_touch(key);
      while (built_count_locked() > capacity_) evict_lru();
    }
    return {built, false};
  }

  /// Observer of LRU evictions: called with the evicted key whenever
  /// capacity pressure drops a built state (NOT on register/update/
  /// invalidate — a recipe change keeps dependent warm state useful,
  /// eviction means the memory is gone).  Invoked while holding the
  /// cache mutex, so the callback must not call back into the cache;
  /// the service points this at SessionTable::evict_for_operator (lock
  /// order is always cache -> session table).
  void set_evict_callback(std::function<void(const std::string&)> cb) {
    std::scoped_lock lock(m_);
    on_evict_ = std::move(cb);
  }

  /// Drop the built state (recipe stays registered).
  void invalidate(const std::string& key) {
    std::scoped_lock lock(m_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    it->second.state = nullptr;
    ++it->second.version;
    lru_erase(key);
  }

  [[nodiscard]] std::size_t built_count() const {
    std::scoped_lock lock(m_);
    return built_count_locked();
  }

 private:
  struct Entry {
    std::shared_ptr<const partition::EddPartition> part;
    core::PolySpec poly;
    std::shared_ptr<const std::vector<sparse::CsrMatrix>> local_matrices;
    /// Per-key coarse space; nullopt = no deflation.
    std::optional<core::DeflationOptions> deflation;
    std::shared_ptr<const core::EddOperatorState> state;  // null = not built
    std::uint64_t version = 0;
  };

  [[nodiscard]] std::size_t built_count_locked() const { return lru_.size(); }

  void lru_touch(const std::string& key) {
    lru_erase(key);
    lru_.push_front(key);
  }
  void lru_erase(const std::string& key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it)
      if (*it == key) {
        lru_.erase(it);
        return;
      }
  }
  void evict_lru() {
    const std::string key = lru_.back();
    auto it = entries_.find(key);
    if (it != entries_.end()) it->second.state = nullptr;
    lru_.pop_back();
    if (on_evict_) on_evict_(key);
  }

  std::size_t capacity_;
  mutable std::mutex m_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< keys with built state, most recent first
  std::function<void(const std::string&)> on_evict_;
};

}  // namespace pfem::svc
