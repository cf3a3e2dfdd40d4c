#include "par/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "net/wait.hpp"

namespace pfem::par {

using net::Aborted;

namespace detail {

namespace {

using net::detail::SteadyClock;
using net::detail::seconds_since;

/// Receive adapters for the transport's sink-style take().  SwapSink is
/// the single-copy receive: the sink steals the relinquished payload
/// buffer and leaves ours behind for the wire to reuse.
struct SwapSink final : net::MsgSink {
  Vector* out;
  explicit SwapSink(Vector* o) : out(o) {}
  void deliver(Vector& owned, std::span<const real_t> data) override {
    out->swap(owned);
    out->resize(data.size());
  }
};

/// Receive into a preposted buffer whose length must match exactly (the
/// zero-allocation path the exchange kernels use).
struct SpanSink final : net::MsgSink {
  std::span<real_t> out;
  explicit SpanSink(std::span<real_t> o) : out(o) {}
  void deliver(Vector& /*owned*/, std::span<const real_t> data) override {
    PFEM_CHECK_MSG(data.size() == out.size(),
                   "recv into span: message length does not match the "
                   "preposted buffer");
    std::copy(data.begin(), data.end(), out.begin());
  }
};

/// Reserved tags of the runtime's wire collectives (multi-process
/// transports route barriers/allreduces over tagged p2p because their
/// ranks share no address space).  Negative so they can never collide
/// with solver tags, which are all non-negative.
constexpr int kTagReduce = -101;
constexpr int kTagBcast = -102;

}  // namespace

/// Handoff cell of the in-process reduction tree: the child at tree
/// stage k deposits its partial accumulator here; the parent folds it.
/// seq carries the collective-op generation, so cells need no reset
/// between operations.
struct ReduceCell {
  std::atomic<std::uint64_t> seq{0};
  Vector data;
};

/// The per-team runtime state the rank threads share: the transport
/// (point-to-point wire) plus the collective machinery layered on it.
///
/// Collectives have two equivalent executions.  In-process teams use
/// shared reduction cells and a sense-reversing barrier (no wire
/// traffic at all).  Multi-process teams route the SAME tournament tree
/// over transport point-to-point with reserved tags — stage pairing,
/// fold order and broadcast source are identical, so every rank
/// observes bit-identical results on every transport, and the solvers'
/// convergence branches (hence iteration counts) cannot diverge between
/// an in-process run and a sharded one.  Wire collectives bypass
/// par::Comm's send/recv deliberately: neighbor-traffic counters and
/// exchange spans keep meaning *solver* neighbor exchange only (the
/// Table-1 m+3 / m+1 accounting), with collective wait time charged to
/// reduce_wait_seconds as always.
class TeamState {
 public:
  explicit TeamState(std::shared_ptr<net::Transport> transport)
      : transport_(std::move(transport)), size_(transport_->nranks()) {
    while ((1 << stages_) < size_) ++stages_;
    cells_ = std::make_unique<ReduceCell[]>(
        static_cast<std::size_t>(size_) *
        static_cast<std::size_t>(stages_ == 0 ? 1 : stages_));
  }

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] int rank_base() const noexcept {
    return transport_->rank_base();
  }
  [[nodiscard]] int local_ranks() const noexcept {
    return transport_->local_ranks();
  }
  [[nodiscard]] bool is_local(int r) const noexcept {
    return r >= rank_base() && r < rank_base() + local_ranks();
  }

  // ---- Point-to-point ---------------------------------------------------

  /// An injected Drop consumes the wire sequence number it would have
  /// carried, so the receiver sees a gap and fails typed.
  void mark_dropped(int src, int dst) { transport_->mark_dropped(src, dst); }

  /// `wire_dup` marks an injected duplicated delivery: the message goes
  /// out again under its original wire sequence number, so the receiver
  /// drains and discards it.
  void push(int src, int dst, int tag, std::span<const real_t> data,
            PerfCounters& c, bool wire_dup = false) {
    transport_->push(src, dst, tag, data, wire_dup,
                     net::WaitStats{&c.neighbor_wait_seconds,
                                    &c.fault_timeouts});
  }

  void take(int dst, int src, int tag, net::MsgSink& sink, PerfCounters& c) {
    transport_->take(dst, src, tag, sink,
                     net::WaitStats{&c.neighbor_wait_seconds,
                                    &c.fault_timeouts});
  }

  // ---- Collectives ------------------------------------------------------

  /// Synchronize all ranks; unblocks with Aborted if a rank died (or a
  /// typed CommError if the wait hits the comm timeout).
  void barrier(int rank, PerfCounters& c) {
    check_abort();
    if (size_ == 1) return;
    if (transport_->multi_process()) {
      // One dummy scalar through the reduction tree: same rendezvous
      // structure, no extra wire machinery to keep correct.
      real_t x = 0.0;
      wire_allreduce(rank, std::span<real_t>(&x, 1), /*take_max=*/false, c);
      check_abort();
      return;
    }
    std::uint64_t gen;
    bool last;
    {
      std::lock_guard<std::mutex> lk(barrier_m_);
      gen = barrier_gen_.load(std::memory_order_relaxed);
      last = (++barrier_count_ == size_);
      if (last) {
        barrier_count_ = 0;
        barrier_gen_.store(gen + 1, std::memory_order_seq_cst);
      }
    }
    if (last) {
      net::detail::notify_parked(barrier_m_, barrier_cv_, barrier_waiting_);
    } else {
      wait_collective(
          [&] { return barrier_gen_.load(std::memory_order_seq_cst) != gen; },
          barrier_m_, barrier_cv_, barrier_waiting_, rank, c);
    }
    check_abort();
  }

  /// Deterministic tournament-tree allreduce: contributions flow up a
  /// binary tree whose pairing is fixed by rank indices (stage k merges
  /// rank r|2^k into rank r), the root folds in low-rank-first order, and
  /// the root's bytes are broadcast back — one synchronization sweep, no
  /// barriers, results independent of arrival order.
  ///
  /// `g` is the per-rank collective-op generation; since collectives are
  /// executed by every rank in the same order, equal g identifies the
  /// same logical operation on all ranks and the cells/broadcast buffer
  /// never need clearing between operations.  (The wire path needs no
  /// generation: the same execution-order discipline makes per-pair FIFO
  /// on the reserved tags line up the stages.)
  void allreduce(int rank, std::uint64_t g, std::span<real_t> inout,
                 bool take_max, PerfCounters& c) {
    check_abort();
    if (size_ == 1) return;
    if (transport_->multi_process()) {
      wire_allreduce(rank, inout, take_max, c);
      check_abort();
      return;
    }
    bool deposited = false;
    for (int k = 0; k < stages_ && !deposited; ++k) {
      const int bit = 1 << k;
      if ((rank & bit) == 0) {
        const int partner = rank | bit;
        if (partner >= size_) continue;  // no child in this stage
        ReduceCell& cell = cell_at(partner, k);
        wait_collective(
            [&] { return cell.seq.load(std::memory_order_seq_cst) >= g; },
            coll_m_, coll_cv_, coll_waiting_, rank, c);
        PFEM_CHECK_MSG(cell.data.size() == inout.size(),
                       "allreduce length mismatch across ranks");
        const real_t* s = cell.data.data();
        for (std::size_t i = 0; i < inout.size(); ++i)
          inout[i] = take_max ? std::max(inout[i], s[i]) : inout[i] + s[i];
      } else {
        ReduceCell& cell = cell_at(rank, k);
        cell.data.assign(inout.begin(), inout.end());
        cell.seq.store(g, std::memory_order_seq_cst);
        notify_collective();
        deposited = true;
      }
    }
    if (rank == 0) {
      bcast_.assign(inout.begin(), inout.end());
      bcast_gen_.store(g, std::memory_order_seq_cst);
      notify_collective();
    } else {
      wait_collective(
          [&] { return bcast_gen_.load(std::memory_order_seq_cst) >= g; },
          coll_m_, coll_cv_, coll_waiting_, rank, c);
      // Lengths agree by now: rank 0 folded every contribution (checking
      // sizes) or threw, which aborts the team before we get here.
      std::copy_n(bcast_.begin(), inout.size(), inout.begin());
    }
    check_abort();
  }

  // ---- Job recycling -----------------------------------------------------

  /// Restore the quiescent state between Team jobs.  Only called while
  /// every local rank thread is parked (the dispatcher owns the state).
  /// The in-process transport recycles rings fully; a multi-process
  /// transport keeps its wire sequence numbers running (see
  /// net::Transport::reset_for_job) — local collective state resets
  /// either way.
  void reset_for_job() {
    transport_->reset_for_job();
    const std::size_t ncells = static_cast<std::size_t>(size_) *
                               static_cast<std::size_t>(stages_ == 0 ? 1
                                                                     : stages_);
    for (std::size_t i = 0; i < ncells; ++i)
      cells_[i].seq.store(0, std::memory_order_relaxed);
    bcast_gen_.store(0, std::memory_order_relaxed);
    barrier_count_ = 0;
    barrier_gen_.store(0, std::memory_order_relaxed);
  }

  // ---- Fault plumbing ----------------------------------------------------

  /// Deadline for blocking channel/collective waits; 0 disables.
  void set_timeout(double seconds) {
    timeout_ns_.store(
        seconds > 0.0 ? static_cast<std::int64_t>(seconds * 1e9) : 0,
        std::memory_order_seq_cst);
    transport_->set_timeout(seconds);
  }

  [[nodiscard]] double timeout_seconds() const {
    return static_cast<double>(timeout_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// Injected delay/stall: sleep in 1 ms slices, unwinding with Aborted
  /// as soon as the team tears down — a stalled rank must not outlive
  /// its job.
  void fault_sleep(double seconds) {
    const auto deadline =
        SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(seconds));
    while (SteadyClock::now() < deadline) {
      check_abort();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    check_abort();
  }

  // ---- Failure handling --------------------------------------------------

  /// The transport's abort flag is the single source of truth (on
  /// multi-process wires it propagates to every attached process); the
  /// local wakeups cover ranks parked in the in-process collective
  /// machinery, which the transport knows nothing about.
  void abort() {
    transport_->abort();
    {
      std::lock_guard<std::mutex> lk(barrier_m_);
      barrier_cv_.notify_all();
    }
    {
      std::lock_guard<std::mutex> lk(coll_m_);
      coll_cv_.notify_all();
    }
  }

 private:
  [[nodiscard]] ReduceCell& cell_at(int rank, int stage) {
    return cells_[static_cast<std::size_t>(rank) *
                      static_cast<std::size_t>(stages_) +
                  static_cast<std::size_t>(stage)];
  }

  [[nodiscard]] bool aborted() const { return transport_->is_aborted(); }

  void check_abort() const {
    if (aborted()) throw Aborted{};
  }

  /// The tournament tree of the in-process path, executed over transport
  /// point-to-point: stage k sends rank r|2^k's partial to rank r, which
  /// folds it exactly where the cell path folds (same order, same
  /// floating-point result); rank 0 then broadcasts its bytes down a
  /// binomial tree.  Wait time lands in reduce_wait_seconds through the
  /// WaitStats hooks; neighbor counters and exchange spans are never
  /// touched.
  void wire_allreduce(int rank, std::span<real_t> inout, bool take_max,
                      PerfCounters& c) {
    const net::WaitStats ws{&c.reduce_wait_seconds, &c.fault_timeouts};
    Vector tmp;
    bool deposited = false;
    for (int k = 0; k < stages_ && !deposited; ++k) {
      const int bit = 1 << k;
      if ((rank & bit) == 0) {
        const int partner = rank | bit;
        if (partner >= size_) continue;  // no child in this stage
        tmp.resize(inout.size());
        SpanSink sink(std::span<real_t>(tmp.data(), tmp.size()));
        transport_->take(rank, partner, kTagReduce, sink, ws);
        for (std::size_t i = 0; i < inout.size(); ++i)
          inout[i] = take_max ? std::max(inout[i], tmp[i]) : inout[i] + tmp[i];
      } else {
        transport_->push(rank, rank & ~bit, kTagReduce,
                         std::span<const real_t>(inout.data(), inout.size()),
                         /*wire_dup=*/false, ws);
        deposited = true;
      }
    }
    // Binomial broadcast from rank 0: every rank receives from its
    // parent (rank with the highest set bit cleared), then forwards to
    // children rank | 2^k for k above its own highest bit.
    int hb = -1;
    for (int k = 0; k < stages_; ++k)
      if ((rank & (1 << k)) != 0) hb = k;
    if (rank != 0) {
      SpanSink sink(inout);
      transport_->take(rank, rank & ~(1 << hb), kTagBcast, sink, ws);
    }
    for (int k = hb + 1; k < stages_; ++k) {
      const int child = rank | (1 << k);
      if (child < size_ && child != rank)
        transport_->push(rank, child, kTagBcast,
                         std::span<const real_t>(inout.data(), inout.size()),
                         /*wire_dup=*/false, ws);
    }
  }

  /// Block until pred() holds (or the team aborts), charging the wait
  /// to reduce_wait_seconds; an armed comm timeout that expires in the
  /// park step becomes a typed CommError.
  template <typename Pred>
  void wait_collective(Pred pred, std::mutex& m, std::condition_variable& cv,
                       std::atomic<int>& waiting, int rank, PerfCounters& c) {
    auto done = [&] { return pred() || aborted(); };
    if (!done()) {
      const std::optional<double> waited = net::detail::wait_until(
          done, net::detail::CondvarPark{
                    m, cv, waiting,
                    timeout_ns_.load(std::memory_order_relaxed)});
      if (!waited) {
        ++c.fault_timeouts;
        throw CommError::timeout(rank, -1, fault::Op::Collective,
                                 timeout_seconds());
      }
      c.reduce_wait_seconds += *waited;
    }
    check_abort();
  }

  void notify_collective() {
    net::detail::notify_parked(coll_m_, coll_cv_, coll_waiting_);
  }

  std::shared_ptr<net::Transport> transport_;
  int size_;

  // In-process reduction tree state (idle on multi-process transports).
  int stages_ = 0;  ///< ceil(log2 P)
  std::unique_ptr<ReduceCell[]> cells_;
  Vector bcast_;
  std::atomic<std::uint64_t> bcast_gen_{0};
  std::mutex coll_m_;
  std::condition_variable coll_cv_;
  std::atomic<int> coll_waiting_{0};

  // In-process barrier state (idle on multi-process transports).
  std::mutex barrier_m_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::atomic<std::uint64_t> barrier_gen_{0};
  std::atomic<int> barrier_waiting_{0};

  std::atomic<std::int64_t> timeout_ns_{0};  ///< 0 = waits never time out
};

/// The thread side of a persistent Team: one parked worker per LOCAL
/// rank, a job-generation handshake to dispatch work, and the per-rank
/// counter and error slots the dispatcher reads back after each job
/// (sized for the global team; slots of remote ranks stay empty in this
/// process).  All cross-thread publication runs through `m` (job
/// dispatch) and the done-count handshake (job completion), so the
/// dispatcher may freely reset TeamState between jobs.
class TeamRuntime {
 public:
  explicit TeamRuntime(std::shared_ptr<net::Transport> transport)
      : state_(std::move(transport)),
        nranks_(state_.size()),
        counters_(static_cast<std::size_t>(nranks_)),
        errors_(static_cast<std::size_t>(nranks_)) {
    threads_.reserve(static_cast<std::size_t>(state_.local_ranks()));
    for (int i = 0; i < state_.local_ranks(); ++i) {
      const int r = state_.rank_base() + i;
      threads_.emplace_back([this, r] { worker(r); });
    }
  }

  ~TeamRuntime() {
    {
      std::lock_guard<std::mutex> lk(m_);
      shutdown_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] int size() const noexcept { return nranks_; }
  [[nodiscard]] int local_size() const noexcept {
    return state_.local_ranks();
  }

  std::vector<PerfCounters> run(const std::function<void(Comm&)>& fn,
                                obs::Trace* trace) {
    if (trace != nullptr)
      PFEM_CHECK_MSG(trace->nranks() == nranks_,
                     "Team::run: trace lane count does not match team size");
    const int nlocal = state_.local_ranks();
    {
      std::lock_guard<std::mutex> lk(m_);
      PFEM_CHECK_MSG(job_ == nullptr, "Team::run: a job is already running");
      // The previous job (normal, failed or cancelled) may have left
      // channels and reduction cells mid-flight; restore quiescence while
      // every rank is parked.
      state_.reset_for_job();
      cancel_requested_.store(false, std::memory_order_seq_cst);
      for (int r = 0; r < nranks_; ++r) {
        counters_[static_cast<std::size_t>(r)].reset();
        errors_[static_cast<std::size_t>(r)] = nullptr;
      }
      job_ = &fn;
      trace_ = trace;
      done_count_ = 0;
      ++job_gen_;
    }
    job_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lk(m_);
      done_cv_.wait(lk, [&] { return done_count_ == nlocal; });
      job_ = nullptr;
      trace_ = nullptr;
    }
    rethrow_job_error();
    return counters_;
  }

  void cancel() {
    cancel_requested_.store(true, std::memory_order_seq_cst);
    state_.abort();
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel_requested_.load(std::memory_order_seq_cst);
  }

  void set_fault_injector(fault::FaultInjector* injector) {
    std::lock_guard<std::mutex> lk(m_);
    PFEM_CHECK_MSG(job_ == nullptr,
                   "set_fault_injector: a job is in flight");
    PFEM_CHECK_MSG(injector == nullptr || injector->plan().nranks == nranks_,
                   "set_fault_injector: plan rank count "
                   << (injector ? injector->plan().nranks : 0)
                   << " does not match team size " << nranks_);
    injector_ = injector;
  }

  void set_comm_timeout(double seconds) noexcept {
    state_.set_timeout(seconds);
  }

 private:
  void worker(int r) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(Comm&)>* fn = nullptr;
      obs::Tracer* lane = nullptr;
      fault::FaultInjector* injector = nullptr;
      {
        std::unique_lock<std::mutex> lk(m_);
        job_cv_.wait(lk, [&] { return shutdown_ || job_gen_ != seen; });
        if (shutdown_) return;
        seen = job_gen_;
        fn = job_;
        injector = injector_;
        if (trace_ != nullptr) lane = &trace_->rank(r);
      }
      PerfCounters& c = counters_[static_cast<std::size_t>(r)];
      Comm comm(r, &state_, &c, lane, injector);
      const auto t0 = SteadyClock::now();
      try {
        (*fn)(comm);
      } catch (...) {
        errors_[static_cast<std::size_t>(r)] = std::current_exception();
        state_.abort();
      }
      c.total_seconds += seconds_since(t0);
      bool last;
      {
        std::lock_guard<std::mutex> lk(m_);
        last = (++done_count_ == state_.local_ranks());
      }
      if (last) done_cv_.notify_all();
    }
  }

  /// Rethrow the originating failure of the finished job: a real error
  /// wins over the secondary Aborted unwinds; all-Aborted means the
  /// teardown came from cancel() — or, on a multi-process transport,
  /// from a failure in ANOTHER process (that process rethrows the real
  /// error; this one reports the typed Aborted).
  void rethrow_job_error() {
    std::exception_ptr first_aborted;
    for (const std::exception_ptr& e : errors_) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const Aborted&) {
        if (!first_aborted) first_aborted = e;
      } catch (...) {
        std::rethrow_exception(e);
      }
    }
    if (first_aborted) {
      // A pending cancel is consumed by the job it killed; the flag must
      // not leak into (or mislabel) the next job.
      if (cancel_requested_.exchange(false, std::memory_order_seq_cst))
        throw Cancelled{};
      std::rethrow_exception(first_aborted);
    }
  }

  TeamState state_;
  int nranks_;
  std::vector<PerfCounters> counters_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;

  std::mutex m_;
  std::condition_variable job_cv_;   ///< workers wait for a job
  std::condition_variable done_cv_;  ///< dispatcher waits for completion
  const std::function<void(Comm&)>* job_ = nullptr;
  obs::Trace* trace_ = nullptr;  ///< lanes for the in-flight job, or null
  std::uint64_t job_gen_ = 0;
  int done_count_ = 0;
  bool shutdown_ = false;
  std::atomic<bool> cancel_requested_{false};
  fault::FaultInjector* injector_ = nullptr;  ///< guarded by m_
};

}  // namespace detail

Comm::Comm(int rank, detail::TeamState* team, PerfCounters* counters,
           obs::Tracer* tracer, fault::FaultInjector* injector)
    : rank_(rank), team_(team), counters_(counters), tracer_(tracer),
      injector_(injector) {
  if (injector_ != nullptr) {
    send_seq_.assign(static_cast<std::size_t>(team_->size()), 0);
    recv_seq_.assign(static_cast<std::size_t>(team_->size()), 0);
  }
}

int Comm::size() const noexcept { return team_->size(); }

int Comm::local_leader() const noexcept { return team_->rank_base(); }

bool Comm::is_local(int r) const noexcept { return team_->is_local(r); }

const fault::FaultAction* Comm::consume_fault(fault::Op op, int peer) {
  fault::FaultSite site;
  site.rank = rank_;
  site.peer = peer;
  site.op = op;
  switch (op) {
    case fault::Op::Send:
      site.seq = send_seq_[static_cast<std::size_t>(peer)]++;
      break;
    case fault::Op::Recv:
      site.seq = recv_seq_[static_cast<std::size_t>(peer)]++;
      break;
    case fault::Op::Collective:
      site.seq = coll_fault_seq_++;
      break;
  }
  const fault::FaultAction* a = injector_->fire(site);
  if (a == nullptr) return nullptr;
  const auto id = static_cast<std::uint32_t>(peer + 1);
  switch (a->type) {
    case fault::FaultType::Delay: {
      OBS_SPAN(tracer_, "fault_delay", obs::Cat::Fault, id);
      ++counters_->fault_delays;
      team_->fault_sleep(a->seconds);
      return nullptr;  // op proceeds normally, just late
    }
    case fault::FaultType::Stall: {
      OBS_SPAN(tracer_, "fault_stall", obs::Cat::Fault, id);
      ++counters_->fault_stalls;
      team_->fault_sleep(a->seconds);
      return nullptr;
    }
    case fault::FaultType::Crash: {
      { OBS_SPAN(tracer_, "fault_crash", obs::Cat::Fault, id); }
      ++counters_->fault_crashes;
      throw CommError::crash(site);
    }
    case fault::FaultType::Drop: {
      { OBS_SPAN(tracer_, "fault_drop", obs::Cat::Fault, id); }
      ++counters_->fault_drops;
      return a;  // send() keeps the message off the wire
    }
    case fault::FaultType::Duplicate: {
      { OBS_SPAN(tracer_, "fault_dup", obs::Cat::Fault, id); }
      ++counters_->fault_dups;
      return a;  // send() pushes a second wire copy
    }
  }
  return nullptr;
}

void Comm::note_comm_error(const CommError& e, int peer) {
  // 1:1 with the typed failure the op surfaces: a deadline expiry gets
  // a "fault_timeout" span, a detected wire loss a "fault_lost" span.
  OBS_SPAN(tracer_,
           e.kind() == fault::CommErrorKind::Lost ? "fault_lost"
                                                  : "fault_timeout",
           obs::Cat::Fault, static_cast<std::uint32_t>(peer + 1));
}

void Comm::send(int dest, int tag, std::span<const real_t> data) {
  OBS_SPAN(tracer_, "send", obs::Cat::Exchange,
           static_cast<std::uint32_t>(dest));
  PFEM_CHECK(dest >= 0 && dest < size());
  PFEM_CHECK_MSG(dest != rank_, "self-send is not supported");
  const fault::FaultAction* fa =
      injector_ != nullptr ? consume_fault(fault::Op::Send, dest) : nullptr;
  if (fa != nullptr && fa->type == fault::FaultType::Drop) {
    // Lost on the wire: the payload never enters the channel and the
    // traffic counters never see it, but its wire seq is consumed — the
    // receiver detects the gap (CommErrorKind::Lost) at the next
    // message, or times out if none follows.
    team_->mark_dropped(rank_, dest);
    return;
  }
  counters_->neighbor_msgs += 1;
  counters_->neighbor_bytes += sizeof(real_t) * data.size();
  counters_->msg_size_hist[PerfCounters::hist_bucket(
      sizeof(real_t) * data.size())] += 1;
  try {
    team_->push(rank_, dest, tag, data, *counters_);
    if (fa != nullptr && fa->type == fault::FaultType::Duplicate)
      team_->push(rank_, dest, tag, data, *counters_, /*wire_dup=*/true);
  } catch (const CommError& e) {
    note_comm_error(e, dest);
    throw;
  }
}

void Comm::recv(int src, int tag, Vector& out) {
  OBS_SPAN(tracer_, "recv", obs::Cat::Exchange,
           static_cast<std::uint32_t>(src));
  PFEM_CHECK(src >= 0 && src < size());
  PFEM_CHECK_MSG(src != rank_, "self-recv is not supported");
  if (injector_ != nullptr) consume_fault(fault::Op::Recv, src);
  try {
    detail::SwapSink sink(&out);
    team_->take(rank_, src, tag, sink, *counters_);
  } catch (const CommError& e) {
    note_comm_error(e, src);
    throw;
  }
  counters_->neighbor_msgs_recv += 1;
  counters_->neighbor_bytes_recv += sizeof(real_t) * out.size();
}

void Comm::recv(int src, int tag, std::span<real_t> out) {
  OBS_SPAN(tracer_, "recv", obs::Cat::Exchange,
           static_cast<std::uint32_t>(src));
  PFEM_CHECK(src >= 0 && src < size());
  PFEM_CHECK_MSG(src != rank_, "self-recv is not supported");
  if (injector_ != nullptr) consume_fault(fault::Op::Recv, src);
  try {
    detail::SpanSink sink(out);
    team_->take(rank_, src, tag, sink, *counters_);
  } catch (const CommError& e) {
    note_comm_error(e, src);
    throw;
  }
  counters_->neighbor_msgs_recv += 1;
  counters_->neighbor_bytes_recv += sizeof(real_t) * out.size();
}

void Comm::exchange_start(int peer, int tag, std::span<const real_t> data) {
  send(peer, tag, data);
}

void Comm::exchange_finish(int peer, int tag, std::span<real_t> out) {
  recv(peer, tag, out);
}

void Comm::barrier() {
  OBS_SPAN(tracer_, "barrier", obs::Cat::Reduce);
  if (injector_ != nullptr) consume_fault(fault::Op::Collective, -1);
  try {
    team_->barrier(rank_, *counters_);
  } catch (const CommError& e) {
    note_comm_error(e, -1);
    throw;
  }
}

real_t Comm::allreduce_sum(real_t x) {
  OBS_SPAN(tracer_, "allreduce", obs::Cat::Reduce);
  if (injector_ != nullptr) consume_fault(fault::Op::Collective, -1);
  counters_->global_reductions += 1;
  counters_->global_bytes += sizeof(real_t);
  try {
    team_->allreduce(rank_, ++coll_seq_, std::span<real_t>(&x, 1),
                     /*take_max=*/false, *counters_);
  } catch (const CommError& e) {
    note_comm_error(e, -1);
    throw;
  }
  return x;
}

void Comm::allreduce_sum(std::span<real_t> inout) {
  OBS_SPAN(tracer_, "allreduce", obs::Cat::Reduce);
  if (injector_ != nullptr) consume_fault(fault::Op::Collective, -1);
  counters_->global_reductions += 1;
  counters_->global_bytes += sizeof(real_t) * inout.size();
  try {
    team_->allreduce(rank_, ++coll_seq_, inout, /*take_max=*/false,
                     *counters_);
  } catch (const CommError& e) {
    note_comm_error(e, -1);
    throw;
  }
}

real_t Comm::allreduce_max(real_t x) {
  OBS_SPAN(tracer_, "allreduce", obs::Cat::Reduce);
  if (injector_ != nullptr) consume_fault(fault::Op::Collective, -1);
  counters_->global_reductions += 1;
  counters_->global_bytes += sizeof(real_t);
  try {
    team_->allreduce(rank_, ++coll_seq_, std::span<real_t>(&x, 1),
                     /*take_max=*/true, *counters_);
  } catch (const CommError& e) {
    note_comm_error(e, -1);
    throw;
  }
  return x;
}

Team::Team(int nranks) : Team(TeamConfig{nranks, nullptr}) {}

Team::Team(TeamConfig cfg) {
  std::shared_ptr<net::Transport> transport = std::move(cfg.transport);
  if (transport == nullptr) {
    PFEM_CHECK(cfg.nranks >= 1);
    transport = net::make_inproc_transport(cfg.nranks);
  } else {
    PFEM_CHECK_MSG(cfg.nranks == 0 || cfg.nranks == transport->nranks(),
                   "Team: nranks " << cfg.nranks
                                   << " disagrees with the transport's "
                                   << transport->nranks());
  }
  rt_ = std::make_unique<detail::TeamRuntime>(std::move(transport));
}

Team::~Team() = default;

int Team::size() const noexcept { return rt_->size(); }

int Team::local_size() const noexcept { return rt_->local_size(); }

std::vector<PerfCounters> Team::run(const std::function<void(Comm&)>& fn,
                                    obs::Trace* trace) {
  return rt_->run(fn, trace);
}

void Team::cancel() { rt_->cancel(); }

bool Team::cancel_requested() const noexcept { return rt_->cancel_requested(); }

void Team::set_fault_injector(fault::FaultInjector* injector) {
  rt_->set_fault_injector(injector);
}

void Team::set_comm_timeout(double seconds) noexcept {
  rt_->set_comm_timeout(seconds);
}

std::vector<PerfCounters> run_spmd(int nranks,
                                   const std::function<void(Comm&)>& fn,
                                   obs::Trace* trace,
                                   fault::FaultInjector* injector,
                                   double comm_timeout_seconds) {
  Team team(nranks);
  if (comm_timeout_seconds > 0.0) team.set_comm_timeout(comm_timeout_seconds);
  if (injector != nullptr) team.set_fault_injector(injector);
  return team.run(fn, trace);
}

}  // namespace pfem::par
