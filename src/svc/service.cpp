#include "svc/service.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace pfem::svc {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Requests may only share a fused batch when every per-RHS convergence
/// parameter matches — the batch solve runs one option set.
bool compatible_opts(const core::SolveOptions& a, const core::SolveOptions& b) {
  return a.restart == b.restart && a.max_iters == b.max_iters &&
         a.tol == b.tol;
}

}  // namespace

std::unique_ptr<par::Team> Service::make_team() const {
  auto team = std::make_unique<par::Team>(cfg_.nranks);
  if (cfg_.comm_timeout_seconds > 0.0)
    team->set_comm_timeout(cfg_.comm_timeout_seconds);
  if (cfg_.fault_injector != nullptr)
    team->set_fault_injector(cfg_.fault_injector);
  return team;
}

Service::Service(const ServiceConfig& cfg)
    : cfg_(cfg),
      cache_(cfg.cache_capacity),
      queue_(cfg.queue_capacity) {
  PFEM_CHECK_MSG(cfg_.max_batch_rhs >= 1, "max_batch_rhs must be >= 1");
  PFEM_CHECK_MSG(cfg_.retry.max_attempts >= 1,
                 "retry.max_attempts must be >= 1");
  // Memory-pressure coherence: losing a built operator to the cache's
  // LRU also drops the warm state of every session pinned to it (the
  // handles survive; those sessions just run cold next time).
  cache_.set_evict_callback([this](const std::string& key) {
    const std::size_t n = sessions_.evict_for_operator(key);
    if (n > 0) {
      std::scoped_lock lock(m_);
      stats_.sessions_evicted += n;
    }
  });
  team_ = make_team();
  if (cfg_.observe.trace)
    trace_ = std::make_unique<obs::Trace>(cfg_.nranks,
                                          cfg_.observe.ring_capacity);
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

Service::~Service() { shutdown(/*drain=*/false); }

void Service::register_operator(
    const std::string& key,
    std::shared_ptr<const partition::EddPartition> part,
    const core::PolySpec& poly,
    std::shared_ptr<const std::vector<sparse::CsrMatrix>> local_matrices,
    std::optional<core::DeflationOptions> deflation) {
  PFEM_CHECK_MSG(part != nullptr, "register_operator: null partition");
  PFEM_CHECK_MSG(part->nparts() == cfg_.nranks,
                 "register_operator: partition has " << part->nparts()
                 << " parts, service team has " << cfg_.nranks);
  // Validate a per-key coarse-space override at REGISTRATION, where the
  // partition's dof layout is in hand — a mismatch is a caller bug the
  // client should see immediately, not a deferred build failure.
  if (deflation)
    core::validate_deflation(*deflation, part->n_global);
  cache_.register_operator(key, std::move(part), poly,
                           std::move(local_matrices), std::move(deflation));
}

void Service::update_operator(
    const std::string& key,
    std::shared_ptr<const std::vector<sparse::CsrMatrix>> local_matrices) {
  cache_.update_operator(key, std::move(local_matrices));
}

SessionId Service::open_session(const std::string& operator_key) {
  if (!cache_.contains(operator_key)) return kNoSession;
  const SessionId id = sessions_.open(operator_key);
  std::scoped_lock lock(m_);
  ++stats_.sessions_opened;
  return id;
}

bool Service::close_session(SessionId id) {
  if (!sessions_.close(id)) return false;
  std::scoped_lock lock(m_);
  ++stats_.sessions_closed;
  return true;
}

Service::Submitted Service::reject_now(PendingJob job, RejectReason reason,
                                       std::string detail) {
  Submitted out;
  out.id = job.id;
  out.outcome = job.promise.get_future();
  resolve(job, Rejected{reason, std::move(detail)});
  return out;
}

Service::Submitted Service::submit(SolveRequest req) {
  PendingJob job;
  job.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  job.submit_time = Clock::now();
  job.req = std::move(req);

  bool accepting;
  {
    std::scoped_lock lock(m_);
    ++stats_.submitted;
    accepting = accepting_;
  }
  if (!accepting)
    return reject_now(std::move(job), RejectReason::ShuttingDown,
                      "service is shutting down");

  const auto part = cache_.partition_of(job.req.operator_key);
  if (part == nullptr)
    return reject_now(std::move(job), RejectReason::UnknownOperator,
                      "operator '" + job.req.operator_key +
                          "' is not registered");
  if (job.req.session != kNoSession) {
    const auto skey = sessions_.operator_key_of(job.req.session);
    if (!skey)
      return reject_now(std::move(job), RejectReason::UnknownSession,
                        "session " + std::to_string(job.req.session) +
                            " is not open");
    if (*skey != job.req.operator_key)
      return reject_now(std::move(job), RejectReason::BadRequest,
                        "session is pinned to operator '" + *skey +
                            "' but the request names '" +
                            job.req.operator_key + "'");
  }
  if (job.req.rhs.empty())
    return reject_now(std::move(job), RejectReason::BadRequest,
                      "empty RHS batch");
  for (const Vector& f : job.req.rhs) {
    if (f.size() != static_cast<std::size_t>(part->n_global))
      return reject_now(std::move(job), RejectReason::BadRequest,
                        "RHS length does not match the operator's dof count");
    // The solvers' own input check, run before the request is queued.
    if (std::string err = core::solve_input_error(job.req.opts, f);
        !err.empty())
      return reject_now(std::move(job), RejectReason::BadRequest,
                        std::move(err));
  }
  if (job.req.deadline && *job.req.deadline <= Clock::now())
    return reject_now(std::move(job), RejectReason::DeadlineExceeded,
                      "deadline expired before admission");

  Submitted out;
  out.id = job.id;
  out.outcome = job.promise.get_future();
  const Priority prio = job.req.priority;
  if (!queue_.try_push(std::move(job), prio)) {
    // try_push only moves from the job on success, so on refusal the
    // promise is still ours to resolve.
    resolve(job, Rejected{RejectReason::QueueFull,
                          "queue at capacity (" +
                              std::to_string(queue_.capacity()) + ")"});
  }
  return out;
}

bool Service::cancel(JobId id) {
  auto queued =
      queue_.remove_if([&](const PendingJob& j) { return j.id == id; });
  if (queued) {
    resolve(*queued, Cancelled{"cancelled by client while queued"});
    return true;
  }
  std::scoped_lock lock(m_);
  if (std::find(running_.begin(), running_.end(), id) != running_.end()) {
    running_cancelled_.push_back(id);
    team_->cancel();  // cooperative: ranks unwind at their next comm call
    return true;
  }
  return false;
}

void Service::set_paused(bool paused) {
  {
    std::scoped_lock lock(m_);
    paused_ = paused;
  }
  pause_cv_.notify_all();
}

void Service::shutdown(bool drain) {
  {
    std::scoped_lock lock(m_);
    accepting_ = false;
    paused_ = false;
  }
  pause_cv_.notify_all();
  if (!drain) {
    auto left = queue_.drain_all();
    for (auto& j : left) resolve(j, Cancelled{"service shutdown"});
  }
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
  // A submit that raced the close may have left a straggler behind.
  for (auto& j : queue_.drain_all())
    resolve(j, Cancelled{"service shutdown"});
}

ServiceStats Service::stats() const {
  std::scoped_lock lock(m_);
  return stats_;
}

LatencySnapshot Service::latency() const { return latency_.snapshot(); }

void Service::resolve(PendingJob& job, Outcome outcome) {
  {
    std::scoped_lock lock(m_);
    if (const auto* c = std::get_if<Completed>(&outcome)) {
      ++stats_.completed;
      stats_.rhs_solved += c->result.x.size();
    } else if (const auto* r = std::get_if<Rejected>(&outcome)) {
      if (r->reason == RejectReason::QueueFull)
        ++stats_.rejected_queue_full;
      else if (r->reason == RejectReason::DeadlineExceeded)
        ++stats_.rejected_deadline;
      else
        ++stats_.rejected_other;
    } else if (std::holds_alternative<Cancelled>(outcome)) {
      ++stats_.cancelled;
    } else {
      ++stats_.failed;
    }
  }
  if (ok(outcome))
    latency_.record(seconds_between(job.submit_time, Clock::now()));
  job.promise.set_value(std::move(outcome));
}

void Service::scheduler_loop() {
  for (;;) {
    auto popped = queue_.pop();
    if (!popped) return;  // closed and drained
    {
      std::unique_lock lock(m_);
      pause_cv_.wait(lock, [&] { return !paused_; });
    }
    if (popped->req.deadline && *popped->req.deadline <= Clock::now()) {
      resolve(*popped, Rejected{RejectReason::DeadlineExceeded,
                                "deadline expired while queued"});
      continue;
    }

    std::vector<PendingJob> batch;
    batch.push_back(std::move(*popped));
    const SolveRequest& head = batch.front().req;
    std::size_t rhs_count = head.rhs.size();
    // Batch safety for sessions: at most one request per session joins a
    // fused batch, so every deposit reads the state its predecessor
    // wrote — never a sibling racing it inside the same solve.
    std::vector<SessionId> batch_sessions;
    if (head.session != kNoSession) batch_sessions.push_back(head.session);
    auto more = queue_.drain_matching(
        [&](const PendingJob& j) {
          if (j.req.operator_key != head.operator_key) return false;
          if (!compatible_opts(j.req.opts, head.opts)) return false;
          if (j.req.session != kNoSession &&
              std::find(batch_sessions.begin(), batch_sessions.end(),
                        j.req.session) != batch_sessions.end())
            return false;
          if (rhs_count + j.req.rhs.size() > cfg_.max_batch_rhs) return false;
          rhs_count += j.req.rhs.size();
          if (j.req.session != kNoSession)
            batch_sessions.push_back(j.req.session);
          return true;
        },
        std::numeric_limits<std::size_t>::max());
    for (auto& j : more) {
      if (j.req.deadline && *j.req.deadline <= Clock::now())
        resolve(j, Rejected{RejectReason::DeadlineExceeded,
                            "deadline expired while queued"});
      else
        batch.push_back(std::move(j));
    }
    dispatch_batch(std::move(batch));
  }
}

void Service::dispatch_batch(std::vector<PendingJob> batch) {
  const std::string key = batch.front().req.operator_key;
  const auto part = cache_.partition_of(key);
  PFEM_CHECK(part != nullptr);  // keys are never unregistered

  // The aux lane is written only here, on the scheduler thread: stamp
  // each member's time-in-queue retroactively (the head popped, the
  // rest coalesced into its batch), then cover the dispatch itself.
  obs::Tracer* const aux = trace_ != nullptr ? &trace_->aux() : nullptr;
  const auto t_dispatch = Clock::now();
  if (aux != nullptr) {
    const std::uint64_t t1 = aux->to_ns(t_dispatch);
    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
      const PendingJob& j = batch[bi];
      aux->span_at(bi == 0 ? "queued" : "coalesced", obs::Cat::Svc,
                   aux->to_ns(j.submit_time), t1,
                   static_cast<std::uint32_t>(j.id));
    }
    aux->counter("queue_depth", obs::Cat::Svc,
                 static_cast<double>(queue_.size()));
  }
  OBS_SPAN(aux, "dispatch", obs::Cat::Svc,
           static_cast<std::uint32_t>(batch.front().id));

  // Flatten the batch's RHS; remember each job's slice.
  std::vector<std::size_t> counts;
  counts.reserve(batch.size());
  std::vector<Vector> rhs;
  for (auto& j : batch) {
    counts.push_back(j.req.rhs.size());
    for (auto& f : j.req.rhs) rhs.push_back(std::move(f));
    j.req.rhs.clear();
  }
  if (aux != nullptr)
    aux->counter("batch_rhs", obs::Cat::Svc, static_cast<double>(rhs.size()));

  // Fuse the members' progress callbacks: the batch solve reports with
  // flattened RHS indices; route each to its owning request with a
  // request-local index.  compatible_opts ignores observe, so members
  // may carry different callbacks.
  core::SolveOptions opts = batch.front().req.opts;
  {
    std::vector<std::size_t> offsets(batch.size(), 0);
    for (std::size_t bi = 1; bi < batch.size(); ++bi)
      offsets[bi] = offsets[bi - 1] + counts[bi - 1];
    auto cbs = std::make_shared<
        std::vector<std::function<void(index_t, real_t, std::size_t)>>>();
    cbs->reserve(batch.size());
    bool any = false;
    for (const auto& j : batch) {
      cbs->push_back(j.req.opts.observe.progress);
      if (j.req.opts.observe.progress) any = true;
    }
    if (any)
      opts.observe.progress = [offsets = std::move(offsets),
                               cbs](index_t it, real_t relres, std::size_t b) {
        const auto owner = static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), b) -
            offsets.begin() - 1);
        if ((*cbs)[owner]) (*cbs)[owner](it, relres, b - offsets[owner]);
      };
    else
      opts.observe.progress = nullptr;
  }

  // Session warm starts + recycling.  With no session in the batch the
  // recycle lanes stay empty and the solve — and its Table-1 exchange
  // counts — is bit-identical to a session-less service.  With sessions
  // present, each member's session lanes land in its flattened RHS slots,
  // and the solve harvests fresh directions for the deposit.
  std::vector<core::RecycleIn> recycle;
  const bool any_session = std::any_of(
      batch.begin(), batch.end(),
      [](const PendingJob& j) { return j.req.session != kNoSession; });
  if (any_session) {
    recycle.resize(rhs.size());
    std::size_t warm = 0;
    std::size_t off = 0;
    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
      const PendingJob& j = batch[bi];
      if (j.req.session != kNoSession) {
        if (auto snap = sessions_.snapshot(j.req.session)) {
          for (std::size_t r = 0;
               r < counts[bi] && r < snap->lanes.size(); ++r) {
            if (!snap->lanes[r].empty()) ++warm;
            recycle[off + r] = std::move(snap->lanes[r]);
          }
        }
      }
      off += counts[bi];
    }
    std::scoped_lock lock(m_);
    stats_.warm_rhs += warm;
  }

  {
    std::scoped_lock lock(m_);
    running_.clear();
    running_cancelled_.clear();
    for (const auto& j : batch) running_.push_back(j.id);
    ++stats_.batches;
  }

  const std::optional<Clock::time_point> min_deadline = [&] {
    std::optional<Clock::time_point> d;
    for (const auto& j : batch)
      if (j.req.deadline && (!d || *j.req.deadline < *d)) d = j.req.deadline;
    return d;
  }();

  // Attempt loop: a typed comm failure (injected crash, channel
  // timeout) triggers the retry policy — deterministic-jitter backoff,
  // then a fresh team (faults are one-shot, so the retry marches past
  // whatever killed the last attempt).  The request seed keys the
  // jitter; a zero seed derives it from request CONTENT — operator-key
  // hash, session id, per-key dispatch sequence — never from the
  // service-assigned job id, which differs across replays and would
  // silently break `pfem_loadgen --replay` determinism.
  const int max_attempts = std::max(1, cfg_.retry.max_attempts);
  const std::uint64_t key_seq = dispatch_seq_[key]++;  // scheduler-only
  const std::uint64_t jitter_seed =
      batch.front().req.seed != 0
          ? batch.front().req.seed
          : fault::mix64(fault::fnv1a(key) ^
                         batch.front().req.session * 0x9e3779b97f4a7c15ULL ^
                         key_seq);

  core::BatchSolveResult result;
  bool was_cancelled = false;
  bool failed = false;
  FailReason fail_reason = FailReason::SolveError;
  std::string failure;
  std::string comm_error;
  bool cache_hit = false;
  double solve_total = 0.0;
  const auto t_solve0 = Clock::now();
  int attempt = 0;

  for (;; ++attempt) {
    comm_error.clear();
    std::shared_ptr<const core::EddOperatorState> op;
    bool hit = false;
    try {
      std::tie(op, hit) = cache_.get_or_build(key, *team_, trace_.get());
    } catch (const par::CommError& e) {
      comm_error = e.what();  // the build itself died on the wire: retryable
    } catch (const BadOperatorError& e) {
      // Degenerate operator (zero row under norm-1 scaling) or a
      // coarse-space/operator mismatch: deterministic, so never retried.
      // get_or_build stores nothing on a throw, so the cache holds no
      // poisoned state and the failure stays request-scoped — the next
      // request on a healthy key proceeds normally.
      failed = true;
      fail_reason = FailReason::BadOperator;
      failure = std::string("operator build failed: ") + e.what();
      break;
    } catch (const std::exception& e) {
      failed = true;
      failure = std::string("operator build failed: ") + e.what();
      break;
    }
    if (attempt == 0) {
      cache_hit = hit;
      std::scoped_lock lock(m_);
      if (hit)
        ++stats_.cache_hits;
      else
        ++stats_.cache_misses;
    }

    if (comm_error.empty()) {
      // Deadline watchdog: one helper thread armed with the batch's
      // earliest deadline; it either gets signalled when the solve
      // finishes or fires team cancel, unwinding every rank through the
      // abort path.  Joined before the attempt resolves, so a late
      // cancel can never leak into a later attempt or batch (Team::run
      // also clears any stale cancel on entry).
      std::mutex wd_m;
      std::condition_variable wd_cv;
      bool batch_done = false;
      std::thread watchdog;
      if (min_deadline)
        watchdog = std::thread([&] {
          std::unique_lock lock(wd_m);
          if (!wd_cv.wait_until(lock, *min_deadline,
                                [&] { return batch_done; }))
            team_->cancel();
        });

      const auto t0 = Clock::now();
      try {
        result = core::solve_edd_batch(*team_, *part, *op, rhs, opts,
                                       trace_.get(), recycle);
      } catch (const par::Cancelled&) {
        was_cancelled = true;
      } catch (const BadOperatorError& e) {
        // Degenerate operator first surfacing at solve time (e.g. a
        // per-solve coarse-space rebuild): deterministic, never retried.
        failed = true;
        fail_reason = FailReason::BadOperator;
        failure = e.what();
      } catch (const std::exception& e) {
        failed = true;
        failure = e.what();
      }
      if (watchdog.joinable()) {
        {
          std::scoped_lock lock(wd_m);
          batch_done = true;
        }
        wd_cv.notify_one();
        watchdog.join();
      }
      solve_total += seconds_between(t0, Clock::now());
      if (failed || was_cancelled) break;
      if (!result.comm_failed()) break;  // solved (or typed per-RHS stall)
      comm_error = result.comm_error;
    }

    {
      std::scoped_lock lock(m_);
      ++stats_.comm_failures;
    }
    if (attempt + 1 >= max_attempts) break;  // policy exhausted

    // Backoff, interruptible by shutdown (never sleep past a close).
    const double delay = fault::backoff_seconds(
        cfg_.retry.base_backoff_seconds, cfg_.retry.max_backoff_seconds,
        attempt, jitter_seed);
    const auto b0 = Clock::now();
    bool shutting_down;
    {
      std::unique_lock lock(m_);
      ++stats_.retries;
      shutting_down =
          pause_cv_.wait_for(lock, std::chrono::duration<double>(delay),
                             [&] { return !accepting_; });
    }
    if (aux != nullptr)
      aux->span_at("retry", obs::Cat::Fault, aux->to_ns(b0),
                   aux->to_ns(Clock::now()),
                   static_cast<std::uint32_t>(batch.front().id));
    if (shutting_down) break;  // resolves as the typed comm failure below

    // A client cancel that landed while the attempt was failing or
    // during the backoff cancels the batch instead of retrying it.
    {
      std::scoped_lock lock(m_);
      if (!running_cancelled_.empty()) was_cancelled = true;
    }
    if (was_cancelled) break;

    // Fresh team for the retry: the failed one may hold a dead rank.
    // Swapped under m_ so cancel()'s team_->cancel() never races the
    // replacement.  The operator cache is team-independent, so the
    // rebuilt state (or the cached one) is reused, not rebuilt per try.
    std::scoped_lock lock(m_);
    team_ = make_team();
  }

  std::vector<JobId> explicit_cancels;
  {
    std::scoped_lock lock(m_);
    explicit_cancels = std::move(running_cancelled_);
    running_.clear();
    running_cancelled_.clear();
    stats_.solve_seconds += solve_total;
  }

  if (failed) {
    for (auto& j : batch) {
      Failed f;
      f.error = failure;
      f.reason = fail_reason;
      resolve(j, std::move(f));
    }
    return;
  }
  if (was_cancelled) {
    const auto now = Clock::now();
    for (auto& j : batch) {
      const bool client_cancel =
          std::find(explicit_cancels.begin(), explicit_cancels.end(), j.id) !=
          explicit_cancels.end();
      if (client_cancel)
        resolve(j, Cancelled{"cancelled by client while running"});
      else if (j.req.deadline && *j.req.deadline <= now)
        resolve(j, Rejected{RejectReason::DeadlineExceeded,
                            "deadline expired during solve"});
      else
        resolve(j, Cancelled{"batch cancelled (co-member deadline or "
                             "client cancel)"});
    }
    return;
  }

  if (!comm_error.empty()) {
    // Graceful degradation: the retry policy is exhausted (or the
    // service shut down mid-backoff).  Every member gets the typed comm
    // failure plus its slice of the last attempt's partial reports —
    // never a hang, never a silently dropped request.
    const bool have_items = result.items.size() == rhs.size();
    std::size_t offset = 0;
    for (std::size_t bi = 0; bi < batch.size(); ++bi) {
      PendingJob& j = batch[bi];
      const std::size_t n = counts[bi];
      Failed f;
      f.error = "communication failure after " + std::to_string(attempt + 1) +
                " attempt(s): " + comm_error;
      f.reason = FailReason::CommFailure;
      f.comm = true;
      if (have_items)
        f.partial.assign(
            result.items.begin() + static_cast<std::ptrdiff_t>(offset),
            result.items.begin() + static_cast<std::ptrdiff_t>(offset + n));
      offset += n;
      resolve(j, std::move(f));
    }
    return;
  }

  // Solved: stamp the retry count into the completed counters so the
  // trace/counters cross-check can reconcile "retry" spans.
  for (auto& c : result.rank_counters)
    c.fault_retries = static_cast<std::uint64_t>(attempt);

  std::size_t offset = 0;
  for (std::size_t bi = 0; bi < batch.size(); ++bi) {
    PendingJob& j = batch[bi];
    const std::size_t n = counts[bi];
    Completed c;
    c.result.x.assign(std::make_move_iterator(result.x.begin() +
                                              static_cast<std::ptrdiff_t>(offset)),
                      std::make_move_iterator(result.x.begin() +
                                              static_cast<std::ptrdiff_t>(offset + n)));
    c.result.items.assign(result.items.begin() +
                              static_cast<std::ptrdiff_t>(offset),
                          result.items.begin() +
                              static_cast<std::ptrdiff_t>(offset + n));
    c.result.rank_counters = result.rank_counters;  // shared by the batch
    c.result.wall_seconds = solve_total;
    c.cache_hit = cache_hit;
    c.queue_seconds = seconds_between(j.submit_time, t_solve0);
    c.solve_seconds = solve_total;
    if (j.req.session != kNoSession) {
      // Deposit this solve's state for the session's next request: the
      // solutions become warm starts, the harvested directions extend
      // each lane's ring.  Only completed solves deposit — a failed or
      // cancelled batch leaves the previous (still valid) state alone.
      std::vector<std::vector<Vector>> harvested;
      if (result.recycled.size() >= offset + n)
        harvested.assign(
            result.recycled.begin() + static_cast<std::ptrdiff_t>(offset),
            result.recycled.begin() + static_cast<std::ptrdiff_t>(offset + n));
      const std::size_t evicted =
          sessions_.deposit(j.req.session, c.result.x, harvested);
      if (evicted > 0) {
        std::scoped_lock lock(m_);
        stats_.sessions_evicted += evicted;
      }
    }
    offset += n;
    resolve(j, std::move(c));
  }
}

}  // namespace pfem::svc
