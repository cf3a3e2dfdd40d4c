// svc_churn: an in-process svc::Service (P=4, cache_capacity 4) serving
// six operators from the three problem families to 4 closed-loop client
// threads.  Keys follow a fixed Zipf popularity drawn with a seeded
// stream, client 0 runs on sessions, and a writer thread drifts the
// hottest operator every kDriftPeriod, forcing rebuilds.
#include <atomic>
#include <cmath>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>

#include "common/timer.hpp"
#include "core/edd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/families.hpp"
#include "probes.hpp"
#include "svc/service.hpp"

namespace bench {
namespace {

using namespace pfem;

constexpr int kRanks = 4;
constexpr int kClients = 4;
constexpr double kDriftPeriod = 0.25;  // seconds between operator updates

struct Tenant {
  std::string key;
  fem::FamilyProblem fp;
  std::shared_ptr<const partition::EddPartition> part;
  std::optional<core::DeflationOptions> deflation;
  Vector diag;       ///< of the global K, for the drift check
  double noise = 0;  ///< per-entry amplitude of the seeded RHS part
};

struct TenantSpec {
  const char* key;
  const char* family;
  index_t nx, ny, nz;
  real_t jump;
  real_t poisson;
  bool deflate, jump_aware;
};

// Hottest first; Zipf weights 1/(i+1).
constexpr TenantSpec kTenants[] = {
    {"cant-a", "cantilever2d", 50, 50, 0, 1.0, 0.30, false, false},
    {"hetero-a", "hetero2d", 60, 60, 0, 1.0e4, 0.30, true, true},
    {"brick-a", "brick3d", 24, 6, 6, 100.0, 0.30, true, false},
    {"cant-b", "cantilever2d", 50, 50, 0, 1.0, 0.25, false, false},
    {"hetero-b", "hetero2d", 60, 60, 0, 1.0e3, 0.30, true, true},
    {"brick-b", "brick3d", 24, 6, 6, 100.0, 0.25, true, false},
};
constexpr int kNumTenants = static_cast<int>(std::size(kTenants));

/// Diagonal drift of operator version v (0 = as assembled).
double drift(std::uint64_t v) {
  return v == 0 ? 0.0 : 0.005 * static_cast<double>(1 + v % 4);
}

std::shared_ptr<const std::vector<sparse::CsrMatrix>> drifted(
    const partition::EddPartition& part, double delta) {
  auto mats = std::make_shared<std::vector<sparse::CsrMatrix>>();
  for (const auto& sub : part.subs) {
    sparse::CsrMatrix a = sub.k_loc;
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    auto vals = a.values();
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t k = rp[static_cast<std::size_t>(i)];
           k < rp[static_cast<std::size_t>(i) + 1]; ++k)
        if (ci[static_cast<std::size_t>(k)] == i)
          vals[static_cast<std::size_t>(k)] *= 1.0 + delta;
    mats->push_back(std::move(a));
  }
  return mats;
}

class SvcChurn final : public Workload {
 public:
  explicit SvcChurn(const Args& a) : a_(a) {}

  void setup(bool traced) override {
    assemble_s_ = partition_s_ = 0.0;
    tenants_.clear();
    for (const TenantSpec& ts : kTenants) {
      fem::ProblemSpec spec = fem::default_spec(ts.family);
      spec.nx = ts.nx;
      spec.ny = ts.ny;
      if (ts.nz > 0) spec.nz = ts.nz;
      spec.jump = ts.jump;
      spec.poisson_ratio = ts.poisson;
      if (std::string(ts.family) == "hetero2d") {
        spec.aligned = false;
        spec.checker = 3;
      }
      const WallTimer wa;
      fem::FamilyProblem fp = fem::make_problem(spec);
      assemble_s_ += wa.seconds();
      const WallTimer wp;
      auto part = std::make_shared<const partition::EddPartition>(
          exp::make_edd(fp, kRanks));
      partition_s_ += wp.seconds();
      std::optional<core::DeflationOptions> deflation;
      if (ts.deflate) deflation = exp::family_deflation(fp, ts.jump_aware);
      Vector diag = diagonal(fp.prob.stiffness);
      double ff = 0.0;
      for (const real_t v : fp.prob.load) ff += v * v;
      const double noise =
          0.1 * std::sqrt(ff / static_cast<double>(fp.prob.load.size()));
      tenants_.push_back(Tenant{ts.key, std::move(fp), std::move(part),
                                std::move(deflation), std::move(diag), noise});
    }
    svc::ServiceConfig cfg;
    cfg.nranks = kRanks;
    cfg.cache_capacity = 4;
    cfg.observe.trace = traced;
    cfg.observe.ring_capacity = std::size_t{1} << 19;
    service_ = std::make_unique<svc::Service>(cfg);
    pending_ = committed_ = 0;
    for (const Tenant& t : tenants_)
      service_->register_operator(t.key, t.part, gls7(), nullptr, t.deflation);
    sessions_.clear();
    for (const Tenant& t : tenants_)
      sessions_.push_back(service_->open_session(t.key));
    // Warm-up: one solve per key, in popularity order.
    warm_failed_ = 0;
    for (int i = 0; i < kNumTenants; ++i) {
      SeededStream rng(a_.seed ^ 0xabcdefull);
      if (!solve_one(i, rng, svc::kNoSession, nullptr)) ++warm_failed_;
    }
    st0_ = service_->stats();
  }

  Phase run(double seconds) override {
    std::atomic<bool> stop{false};
    std::mutex m;
    Phase p;
    session_rhs_ = 0;
    const WallTimer clock;
    std::thread writer([&] {
      try {
        while (!stop.load()) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(kDriftPeriod));
          if (stop.load()) break;
          const std::uint64_t v = pending_.load() + 1;
          auto mats = drifted(*tenants_[0].part, drift(v));
          pending_.store(v);
          service_->update_operator(tenants_[0].key, std::move(mats));
          committed_.store(v);
        }
      } catch (const std::exception& e) {
        std::cerr << "writer: " << e.what() << "\n";
        healthy_ = false;
      }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        SeededStream rng(a_.seed * 7919u + static_cast<std::uint64_t>(c));
        Phase mine;
        std::uint64_t sessions = 0;
        try {
          while (!stop.load(std::memory_order_relaxed)) {
            const int i = pick(rng);
            const svc::SessionId s = c == 0
                                         ? sessions_[static_cast<std::size_t>(i)]
                                         : svc::kNoSession;
            if (s != svc::kNoSession) ++sessions;
            (void)solve_one(i, rng, s, &mine);
          }
        } catch (const std::exception& e) {
          std::cerr << "client " << c << ": " << e.what() << "\n";
          ++mine.attempted;  // counts as a failed request
        }
        std::scoped_lock lock(m);
        p.attempted += mine.attempted;
        p.verified += mine.verified;
        p.latency_ms.insert(p.latency_ms.end(), mine.latency_ms.begin(),
                            mine.latency_ms.end());
        session_rhs_ += sessions;
      });
    while (clock.seconds() < seconds)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
    for (auto& t : clients) t.join();
    writer.join();
    p.elapsed_s = clock.seconds();
    p.attempted += warm_failed_;
    return p;
  }

  double rss_mb() override { return vm_hwm_mb(); }
  [[nodiscard]] bool healthy() const override { return healthy_; }

  void collect_traced(LayerData& d) override {
    const svc::ServiceStats st = service_->stats();
    service_->shutdown();
    SvcView& v = d.svc;
    v.queue_ms = queue_ms_;
    v.solve_ms = solve_ms_;
    v.submitted = st.submitted - st0_.submitted;
    v.rejected = st.rejected_queue_full + st.rejected_deadline +
                 st.rejected_other -
                 (st0_.rejected_queue_full + st0_.rejected_deadline +
                  st0_.rejected_other);
    v.retries = st.retries - st0_.retries;
    v.batches = st.batches - st0_.batches;
    v.rhs_solved = st.rhs_solved - st0_.rhs_solved;
    v.cache_hits = st.cache_hits - st0_.cache_hits;
    v.cache_misses = st.cache_misses - st0_.cache_misses;
    v.warm_rhs = st.warm_rhs - st0_.warm_rhs;
    v.session_rhs = session_rhs_;
    d.spans.add(*service_->trace());
    d.solve_span = "solve_batch";
    const double build = d.spans.total("build_operator");
    const double solve = d.spans.total("solve_batch");
    d.build_share = build + solve > 0.0 ? build / (build + solve) : 0.0;
    d.counters = counters_;
  }

  void teardown() override {
    if (service_) service_->shutdown();
    service_.reset();
    queue_ms_.clear();
    solve_ms_.clear();
    counters_ = {};
  }

  void probe_layers(LayerData& d) override {
    d.assemble_s = assemble_s_;
    d.partition_s = partition_s_;
    // Build cost on the miss path: every tenant, averaged.
    double build = 0.0, coarse = 0.0;
    std::optional<core::EddOperatorState> op0;
    for (const Tenant& t : tenants_) {
      auto op = build_probe(*t.part, t.deflation,
                            t.deflation.value_or(exp::family_deflation(t.fp)),
                            d);
      build += d.build_operator_ms;
      coarse += d.build_coarse_ms;
      if (!op0) op0 = std::move(op);
    }
    d.build_operator_ms = build / kNumTenants;
    d.build_coarse_ms = coarse / kNumTenants;
    const Tenant& t0 = tenants_[0];
    kernel_probe(*t0.part, *op0, d);
    poly_probe(*op0, d);
    count_probe(*t0.part, t0.fp.prob.load, d);
    model_probe(t0.fp.prob, d);
    // Exact iteration and coarse-solve counts: one solve of each
    // tenant's assembled load, as registered.
    double iters = 0.0, coarse_solves = 0.0;
    for (const Tenant& t : tenants_) {
      core::SolveOptions o;
      o.tol = kTol;
      if (t.deflation) o.deflation = *t.deflation;
      const auto res = core::solve_edd(*t.part, t.fp.prob.load, gls7(), o);
      iters += static_cast<double>(res.iterations);
      coarse_solves += static_cast<double>(res.rank_counters[0].coarse_solves);
    }
    d.iters_mean = iters / kNumTenants;
    d.coarse_solves_per_iter = coarse_solves / iters;
    inprocess_wire_probe(t0.part, t0.fp.prob.stiffness, t0.fp.prob.load, 8,
                         a_, d, /*fill_svc=*/false);
  }

 private:
  static int pick(SeededStream& rng) {
    static const double total = [] {
      double s = 0.0;
      for (int i = 0; i < kNumTenants; ++i) s += 1.0 / (i + 1);
      return s;
    }();
    double u = rng.uniform() * total;
    for (int i = 0; i < kNumTenants; ++i) {
      u -= 1.0 / (i + 1);
      if (u < 0.0) return i;
    }
    return kNumTenants - 1;
  }

  /// One closed-loop request: seeded RHS (scaled load plus a seeded
  /// perturbation), submit, block on the outcome, verify.
  bool solve_one(int i, SeededStream& rng, svc::SessionId session,
                 Phase* p) {
    const Tenant& t = tenants_[static_cast<std::size_t>(i)];
    Vector f = pow2_scaled(t.fp.prob.load, rng);
    for (real_t& v : f) v += t.noise * (2.0 * rng.uniform() - 1.0);
    svc::SolveRequest req;
    req.operator_key = t.key;
    req.session = session;
    req.opts.tol = kTol;
    req.rhs.push_back(f);
    const std::uint64_t lo = i == 0 ? committed_.load() : 0;
    const WallTimer w;
    const svc::Outcome o = service_->submit(std::move(req)).outcome.get();
    const double ms = 1e3 * w.seconds();
    const std::uint64_t hi = i == 0 ? pending_.load() : 0;
    bool ok = false;
    if (const auto* c = std::get_if<svc::Completed>(&o)) {
      if (!c->result.items.empty() && c->result.items[0].converged)
        for (std::uint64_t v = lo; v <= hi && !ok; ++v)
          ok = relres(t.fp.prob.stiffness, c->result.x[0], f, t.diag,
                      drift(v)) <= kResidualBound;
      if (p != nullptr) {
        std::scoped_lock lock(m_);
        queue_ms_.push_back(1e3 * c->queue_seconds);
        solve_ms_.push_back(1e3 * c->solve_seconds);
        for (const auto& rc : c->result.rank_counters) counters_ += rc;
      }
    }
    if (p != nullptr) {
      ++p->attempted;
      p->latency_ms.push_back(ms);
      if (ok) ++p->verified;
    }
    return ok;
  }

  Args a_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<svc::Service> service_;
  std::vector<svc::SessionId> sessions_;
  std::atomic<std::uint64_t> pending_{0}, committed_{0};
  svc::ServiceStats st0_;
  std::uint64_t warm_failed_ = 0;
  std::uint64_t session_rhs_ = 0;
  std::atomic<bool> healthy_{true};
  double assemble_s_ = 0.0, partition_s_ = 0.0;
  std::mutex m_;
  std::vector<double> queue_ms_, solve_ms_;
  par::PerfCounters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_svc_churn(const Args& a) {
  return std::make_unique<SvcChurn>(a);
}

}  // namespace bench
