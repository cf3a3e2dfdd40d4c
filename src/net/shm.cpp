// Shared-memory transport implementation.
//
// The region holds the cross-process state only: an abort word and, per
// ordered rank pair, a ring of 8 fixed-capacity payload slots whose
// `full` word is the synchronization point (std::atomic_ref, seq_cst —
// the same handshake the in-process ring uses, minus the condition
// variables, which cannot live in anonymous shared memory).  Everything
// single-sided stays process-local: the sender's head/send_seq, the
// receiver's tail/watermark/stash.  Blocked ranks wait through the one
// net::detail::wait_until (wait.hpp), whose park step here polls with
// short sleeps; an armed timeout turns a dead peer into a typed
// CommError exactly like the other transports.
//
// The dedup-watermark / gap-detection / stash logic deliberately
// mirrors RingCore::take line for line (see ring.hpp) — the slot
// storage differs, the chaos semantics must not.
#include "net/shm.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>

#include "net/wait.hpp"

namespace pfem::net {

namespace {

constexpr std::size_t kSlots = 8;
constexpr std::size_t kSlotHeaderBytes = 32;  // full, tag, seq, count (u64s)
constexpr std::size_t kRegionHeaderBytes = 64;
constexpr std::uint64_t kShmMagic = 0x31544e4d45465000ull;

[[nodiscard]] constexpr std::size_t slot_bytes(std::size_t slot_doubles) {
  return kSlotHeaderBytes + sizeof(real_t) * slot_doubles;
}

[[nodiscard]] constexpr std::size_t channel_bytes(std::size_t slot_doubles) {
  return kSlots * slot_bytes(slot_doubles);
}

[[nodiscard]] constexpr std::size_t region_bytes(int nranks,
                                                 std::size_t slot_doubles) {
  return kRegionHeaderBytes + static_cast<std::size_t>(nranks) *
                                  static_cast<std::size_t>(nranks) *
                                  channel_bytes(slot_doubles);
}

struct SlotRef {
  unsigned char* p;

  [[nodiscard]] std::atomic_ref<std::uint64_t> full() const noexcept {
    return std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(p));
  }
  [[nodiscard]] std::int64_t& tag() const noexcept {
    return *reinterpret_cast<std::int64_t*>(p + 8);
  }
  [[nodiscard]] std::uint64_t& seq() const noexcept {
    return *reinterpret_cast<std::uint64_t*>(p + 16);
  }
  [[nodiscard]] std::uint64_t& count() const noexcept {
    return *reinterpret_cast<std::uint64_t*>(p + 24);
  }
  [[nodiscard]] real_t* payload() const noexcept {
    return reinterpret_cast<real_t*>(p + kSlotHeaderBytes);
  }
};

class ShmTransport final : public Transport {
 public:
  ShmTransport(std::shared_ptr<ShmRegion> region, ShmTransportConfig cfg)
      : region_(std::move(region)),
        nprocs_(static_cast<int>(cfg.ranks_per_proc.size())),
        my_proc_(cfg.my_proc) {
    PFEM_CHECK(region_ != nullptr);
    PFEM_CHECK(nprocs_ >= 1);
    PFEM_CHECK(my_proc_ >= 0 && my_proc_ < nprocs_);
    int n = 0;
    for (int p = 0; p < nprocs_; ++p) {
      PFEM_CHECK(cfg.ranks_per_proc[static_cast<std::size_t>(p)] >= 1);
      if (p == my_proc_) rank_base_ = n;
      n += cfg.ranks_per_proc[static_cast<std::size_t>(p)];
    }
    nlocal_ = cfg.ranks_per_proc[static_cast<std::size_t>(my_proc_)];
    PFEM_CHECK_MSG(n == region_->nranks(),
                   "shm transport: ranks_per_proc sums to "
                       << n << " but the region was created for "
                       << region_->nranks() << " ranks");
    local_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                  LocalChan{});
  }

  [[nodiscard]] const char* name() const noexcept override { return "shm"; }
  [[nodiscard]] int nranks() const noexcept override {
    return region_->nranks();
  }
  [[nodiscard]] int rank_base() const noexcept override { return rank_base_; }
  [[nodiscard]] int local_ranks() const noexcept override { return nlocal_; }
  [[nodiscard]] bool multi_process() const noexcept override {
    return nprocs_ > 1;
  }

  void push(int src, int dst, int tag, std::span<const real_t> data,
            bool wire_dup, const WaitStats& ws) override {
    check_abort();
    PFEM_CHECK_MSG(
        data.size() <= region_->slot_doubles(),
        "shm transport: message of " << data.size()
            << " doubles exceeds the slot capacity of "
            << region_->slot_doubles()
            << " (raise slot_doubles when creating the region)");
    LocalChan& lc = local_chan(src, dst);
    const std::uint64_t seq = wire_dup ? lc.send_seq : ++lc.send_seq;
    const SlotRef slot = slot_at(src, dst, lc.head % kSlots);
    // Ring full: poll for the receiver to free this slot.
    if (slot.full().load(std::memory_order_seq_cst) != 0) {
      if (!poll_wait(
              [&] {
                return slot.full().load(std::memory_order_seq_cst) == 0;
              },
              ws)) {
        ws.add_timeout();
        throw fault::CommError::timeout(src, dst, fault::Op::Send,
                                        timeout_seconds());
      }
    }
    check_abort();
    slot.tag() = tag;
    slot.seq() = seq;
    slot.count() = data.size();
    std::memcpy(slot.payload(), data.data(), data.size() * sizeof(real_t));
    slot.full().store(1, std::memory_order_seq_cst);
    ++lc.head;
  }

  void mark_dropped(int src, int dst) override {
    ++local_chan(src, dst).send_seq;
  }

  void take(int dst, int src, int tag, MsgSink& sink,
            const WaitStats& ws) override {
    check_abort();
    LocalChan& lc = local_chan(src, dst);
    for (auto it = lc.stash.begin(); it != lc.stash.end(); ++it) {
      if (it->tag == tag) {
        sink.deliver(&it->payload,
                     std::span<const real_t>(it->payload.data(),
                                             it->payload.size()));
        lc.stash.erase(it);
        return;
      }
    }
    for (;;) {
      const SlotRef slot = slot_at(src, dst, lc.tail % kSlots);
      if (slot.full().load(std::memory_order_seq_cst) == 0) {
        if (!poll_wait(
                [&] {
                  return slot.full().load(std::memory_order_seq_cst) != 0;
                },
                ws)) {
          ws.add_timeout();
          throw fault::CommError::timeout(dst, src, fault::Op::Recv,
                                          timeout_seconds());
        }
      }
      check_abort();
      const std::uint64_t seq = slot.seq();
      // Wire-level duplicate: absorb below the watermark (see
      // RingCore::take for the full rationale).
      if (seq <= lc.watermark) {
        release(slot, lc);
        continue;
      }
      // Gap above the watermark: a dropped message — fail typed.
      if (seq > lc.watermark + 1)
        throw fault::CommError::lost(dst, src, lc.watermark + 1, seq);
      lc.watermark = seq;
      const int mtag = static_cast<int>(slot.tag());
      const std::size_t n = slot.count();
      if (mtag == tag) {
        sink.deliver(nullptr, std::span<const real_t>(slot.payload(), n));
        release(slot, lc);
        return;
      }
      // Tag mismatch: copy out of the shared slot into the local stash.
      lc.stash.push_back(Stashed{mtag, Vector(slot.payload(),
                                              slot.payload() + n)});
      release(slot, lc);
    }
  }

  void set_timeout(double seconds) noexcept override {
    timeout_ns_.store(
        seconds > 0.0 ? static_cast<std::int64_t>(seconds * 1e9) : 0,
        std::memory_order_seq_cst);
  }

  void abort() noexcept override {
    abort_word().store(1, std::memory_order_seq_cst);
  }

  [[nodiscard]] bool is_aborted() const noexcept override {
    return abort_word().load(std::memory_order_seq_cst) != 0;
  }

  /// Single-process loopback recycles fully (warm-team path); across
  /// processes there is no rendezvous here, so wire state keeps running
  /// — see Transport::reset_for_job.
  void reset_for_job() override {
    if (nprocs_ != 1) return;
    abort_word().store(0, std::memory_order_seq_cst);
    const int n = region_->nranks();
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d) {
        for (std::size_t k = 0; k < kSlots; ++k)
          slot_at(s, d, k).full().store(0, std::memory_order_relaxed);
        LocalChan& lc = local_chan(s, d);
        lc.head = 0;
        lc.tail = 0;
        lc.send_seq = 0;
        lc.watermark = 0;
        lc.stash.clear();
      }
  }

 private:
  struct Stashed {
    int tag;
    Vector payload;
  };

  /// Single-sided ring state (never shared across processes).
  struct LocalChan {
    std::size_t head = 0;           ///< sender-owned
    std::size_t tail = 0;           ///< receiver-owned
    std::uint64_t send_seq = 0;     ///< sender-owned
    std::uint64_t watermark = 0;    ///< receiver-owned dedup watermark
    std::vector<Stashed> stash;     ///< receiver-owned
  };

  [[nodiscard]] std::atomic_ref<std::uint64_t> abort_word() const noexcept {
    // Offset 24 of the region header (after magic, nranks, slot_doubles).
    return std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(region_->base() + 24));
  }

  [[nodiscard]] LocalChan& local_chan(int src, int dst) {
    return local_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(region_->nranks()) +
                  static_cast<std::size_t>(dst)];
  }

  [[nodiscard]] SlotRef slot_at(int src, int dst, std::size_t k) const {
    const std::size_t sd = region_->slot_doubles();
    unsigned char* ch =
        region_->base() + kRegionHeaderBytes +
        (static_cast<std::size_t>(src) *
             static_cast<std::size_t>(region_->nranks()) +
         static_cast<std::size_t>(dst)) *
            channel_bytes(sd);
    return SlotRef{ch + k * slot_bytes(sd)};
  }

  [[nodiscard]] double timeout_seconds() const noexcept {
    return static_cast<double>(timeout_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  void check_abort() const {
    if (is_aborted()) throw Aborted{};
  }

  /// detail::wait_until with a sleep-poll park step (no cross-process
  /// condvars).  Returns false on an armed-timeout expiry; throws
  /// Aborted on teardown.  Wait time is charged to ws.
  template <typename Pred>
  [[nodiscard]] bool poll_wait(Pred pred, const WaitStats& ws) const {
    const std::int64_t tns = timeout_ns_.load(std::memory_order_relaxed);
    const std::optional<double> waited = detail::wait_until(
        [&] { return pred() || is_aborted(); },
        [tns](auto& done) {
          const auto deadline =
              tns > 0
                  ? detail::SteadyClock::now() + std::chrono::nanoseconds(tns)
                  : detail::SteadyClock::time_point::max();
          while (!done()) {
            if (detail::SteadyClock::now() >= deadline) return false;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          return true;
        });
    if (!waited) return false;
    ws.add_wait(*waited);
    check_abort();
    return true;
  }

  void release(const SlotRef& slot, LocalChan& lc) {
    slot.full().store(0, std::memory_order_seq_cst);
    ++lc.tail;
  }

  std::shared_ptr<ShmRegion> region_;
  int nprocs_;
  int my_proc_;
  int rank_base_ = 0;
  int nlocal_ = 0;
  std::vector<LocalChan> local_;
  std::atomic<std::int64_t> timeout_ns_{0};
};

}  // namespace

std::shared_ptr<ShmRegion> ShmRegion::create(int nranks,
                                             std::size_t slot_doubles) {
  PFEM_CHECK(nranks >= 1);
  PFEM_CHECK(slot_doubles >= 1);
  const std::size_t bytes = region_bytes(nranks, slot_doubles);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  PFEM_CHECK_MSG(p != MAP_FAILED,
                 "mmap of " << bytes << " shared bytes failed");
  auto* base = static_cast<unsigned char*>(p);
  std::memset(base, 0, bytes);
  std::memcpy(base, &kShmMagic, sizeof kShmMagic);
  const std::uint64_t n64 = static_cast<std::uint64_t>(nranks);
  const std::uint64_t sd64 = slot_doubles;
  std::memcpy(base + 8, &n64, sizeof n64);
  std::memcpy(base + 16, &sd64, sizeof sd64);
  return std::shared_ptr<ShmRegion>(
      new ShmRegion(base, bytes, nranks, slot_doubles));
}

ShmRegion::~ShmRegion() { ::munmap(base_, bytes_); }

std::shared_ptr<Transport> make_shm_transport(
    std::shared_ptr<ShmRegion> region, ShmTransportConfig cfg) {
  return std::make_shared<ShmTransport>(std::move(region), std::move(cfg));
}

std::shared_ptr<Transport> make_shm_loopback_transport(
    int nranks, std::size_t slot_doubles) {
  ShmTransportConfig cfg;
  cfg.ranks_per_proc = {nranks};
  cfg.my_proc = 0;
  return std::make_shared<ShmTransport>(ShmRegion::create(nranks, slot_doubles),
                                        std::move(cfg));
}

}  // namespace pfem::net
