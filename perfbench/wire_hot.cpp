// wire_hot: client -> svc::Router -> two forked shard processes, each a
// svc::Service with P=2 behind a svc::Server on unix sockets.  Four
// closed-loop svc::Client connections send a Mesh3 cantilever (1,640
// equations) under four operator keys, two affine to each shard; every
// key is built during warm-up, and want_solution is on.
#include <cerrno>
#include <cstring>
#include <iostream>
#include <optional>

#include <unistd.h>

#include "common/timer.hpp"
#include "core/edd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "net/sockets.hpp"
#include "net/spawn.hpp"
#include "probes.hpp"
#include "svc/remote.hpp"

namespace bench {
namespace {

using namespace pfem;

constexpr int kShards = 2;
constexpr int kShardRanks = 2;
constexpr int kClients = 4;
constexpr int kMesh = 3;

/// Spans a shard sends back; everything else is folded into "other" so
/// the parent's covered-time total stays exact.
constexpr const char* kSpanNames[] = {
    "solve_batch",  "build_operator", "build_coarse", "poly_apply",
    "gram_schmidt", "exchange",       "allreduce",    "coarse_correct",
    "spmv",         "other"};
constexpr std::size_t kNumSpans = std::size(kSpanNames);

/// What a shard writes to its ready pipe on the way out (plain bytes;
/// parent and shard are the same binary).
struct ShardReport {
  svc::ServiceStats stats;
  std::uint64_t dropped = 0;
  SpanTotals::Entry spans[kNumSpans];
};

bool write_all(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::write(fd, c, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* p, std::size_t n) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t k = ::read(fd, c, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Four keys of equal length (so every request frame has the same
/// size), two hashing to each shard under the router's hash(key) %
/// nshards affinity.
std::vector<std::string> affine_keys() {
  std::vector<std::string> keys;
  int per_shard[kShards] = {};
  for (int i = 0; keys.size() < 2 * kShards; ++i) {
    const std::string k = "op" + std::to_string(10 + i);
    const std::size_t s = std::hash<std::string>{}(k) % kShards;
    if (per_shard[s] < 2) {
      ++per_shard[s];
      keys.push_back(k);
    }
  }
  return keys;
}

int shard_main(int idx, const std::string& addr, bool traced, int ready_fd,
               int ctl_fd) {
  const fem::CantileverProblem prob = fem::make_table2_cantilever(kMesh);
  auto part = std::make_shared<const partition::EddPartition>(
      exp::make_edd(prob, kShardRanks));
  svc::ServiceConfig cfg;
  cfg.nranks = kShardRanks;
  cfg.observe.trace = traced;
  cfg.observe.ring_capacity = std::size_t{1} << 19;
  svc::Service service(cfg);
  for (const std::string& k : affine_keys())
    service.register_operator(k, part, gls7());
  svc::Server server(service, addr, "shard" + std::to_string(idx));
  const char up = 1;
  if (!write_all(ready_fd, &up, 1)) return 3;
  char sink = 0;
  (void)read_all(ctl_fd, &sink, 1);  // returns when the parent closes it
  server.stop();
  service.shutdown(true);
  ShardReport rep;
  rep.stats = service.stats();
  if (const obs::Trace* tr = service.trace()) {
    SpanTotals t;
    t.add(*tr);
    rep.dropped = t.dropped;
    double named = 0.0;
    for (std::size_t i = 0; i + 1 < kNumSpans; ++i) {
      const auto it = t.entries().find(kSpanNames[i]);
      if (it != t.entries().end()) rep.spans[i] = it->second;
      named += rep.spans[i].self_ns;
    }
    rep.spans[kNumSpans - 1].self_ns = t.covered() - named;
  }
  return write_all(ready_fd, &rep, sizeof rep) ? 0 : 4;
}

class WireHot final : public Workload {
 public:
  explicit WireHot(const Args& a) : a_(a), keys_(affine_keys()) {}
  ~WireHot() override { teardown(); }

  void setup(bool traced) override {
    const std::string base =
        "unix:" + a_.rundir + "/wire" + std::to_string(::getpid());
    std::vector<std::string> addrs;
    for (int s = 0; s < kShards; ++s)
      addrs.push_back(base + "_s" + std::to_string(s) + ".sock");
    // Fork first: no thread may exist in this process at fork time.
    // Flush so the children do not inherit (and repeat) buffered output.
    std::cout.flush();
    for (int s = 0; s < kShards; ++s) {
      int ready[2], ctl[2];
      if (::pipe(ready) != 0 || ::pipe(ctl) != 0)
        throw std::runtime_error("pipe failed");
      const pid_t pid = net::fork_run([&, s]() -> int {
        net::close_fd(ready[0]);
        net::close_fd(ctl[1]);
        for (const Shard& o : shards_) {  // siblings' pipes
          net::close_fd(o.ready_r);
          net::close_fd(o.ctl_w);
        }
        return shard_main(s, addrs[static_cast<std::size_t>(s)], traced,
                          ready[1], ctl[0]);
      });
      net::close_fd(ready[1]);
      net::close_fd(ctl[0]);
      shards_.push_back(Shard{pid, ready[0], ctl[1]});
    }
    const WallTimer wa;
    prob_.emplace(fem::make_table2_cantilever(kMesh));
    assemble_s_ = wa.seconds();
    const WallTimer wp;
    part_ = std::make_shared<const partition::EddPartition>(
        exp::make_edd(*prob_, kShardRanks));
    partition_s_ = wp.seconds();
    for (const Shard& s : shards_) {
      char b = 0;
      if (!read_all(s.ready_r, &b, 1))
        throw std::runtime_error("shard failed to come up");
    }
    svc::RouterConfig rc;
    rc.listen_addr = base + "_r.sock";
    rc.shard_addrs = addrs;
    router_addr_ = rc.listen_addr;
    router_.emplace(rc);
    // Warm-up: build every key on its affine shard.
    std::size_t next = 0;
    const WireRun warm = drive_wire(
        router_addr_, 1, 0.0, static_cast<int>(keys_.size()), a_.seed,
        [&](int, SeededStream&, net::proto::SolveRequestMsg& req) {
          fill(req, keys_[next++], prob_->load);
        },
        [&](const auto& q, const auto& r) { return check(q, r); });
    warm_failed_ = warm.phase.attempted - warm.phase.verified;
  }

  Phase run(double seconds) override {
    run_ = drive_wire(
        router_addr_, kClients, seconds, 0, a_.seed,
        [&](int, SeededStream& rng, net::proto::SolveRequestMsg& req) {
          const auto& key = keys_[static_cast<std::size_t>(
              rng.range(0, static_cast<int>(keys_.size()) - 1))];
          fill(req, key, pow2_scaled(prob_->load, rng));
        },
        [&](const auto& q, const auto& r) { return check(q, r); });
    Phase p = run_.phase;
    p.attempted += warm_failed_;
    return p;
  }

  double rss_mb() override {
    double mb = vm_hwm_mb();
    for (const Shard& s : shards_) mb += vm_hwm_mb(s.pid);
    return mb;
  }

  void collect_traced(LayerData& d) override {
    wire_views(run_, d, /*svc_too=*/true);
    double iters = 0.0;
    for (const WireSample& s : run_.samples) {
      iters += s.iterations;
      ++(s.cache_hit ? d.svc.cache_hits : d.svc.cache_misses);
    }
    d.iters_mean = iters / std::max<double>(1.0, run_.samples.size());
    const auto rs = router_->stats();
    d.net.forwarded = rs.forwarded;
    d.net.affinity = rs.affinity;
    d.net.spilled = rs.spilled;
    stop_shards();
    // Shard counters include the one warm-up solve per key.
    const std::uint64_t warm = keys_.size();
    for (const ShardReport& r : reports_) {
      d.svc.submitted += r.stats.submitted;
      d.svc.rejected += r.stats.rejected_queue_full +
                        r.stats.rejected_deadline + r.stats.rejected_other;
      d.svc.retries += r.stats.retries;
      d.svc.batches += r.stats.batches;
      d.svc.rhs_solved += r.stats.rhs_solved;
      d.spans.dropped += r.dropped;
      for (std::size_t i = 0; i < kNumSpans; ++i)
        d.spans.add(kSpanNames[i], r.spans[i]);
    }
    d.svc.submitted -= warm;
    d.svc.batches -= warm;
    d.svc.rhs_solved -= warm;
    d.solve_span = "solve_batch";
    const double build = d.spans.total("build_operator");
    const double solve = d.spans.total("solve_batch");
    d.build_share = build + solve > 0.0 ? build / (build + solve) : 0.0;
    codec_probe(run_.last_req, run_.last_resp, d);
  }

  [[nodiscard]] bool healthy() const override { return healthy_; }

  void teardown() override {
    stop_shards();
    reports_.clear();
  }

  void probe_layers(LayerData& d) override {
    d.assemble_s = assemble_s_;
    d.partition_s = partition_s_;
    core::DeflationOptions coarse;
    coarse.enabled = true;
    coarse.dof_coords = fem::free_dof_coords(prob_->mesh, prob_->dofs);
    coarse.coord_dim = 2;
    const core::EddOperatorState op =
        build_probe(*part_, std::nullopt, coarse, d);
    kernel_probe(*part_, op, d);
    poly_probe(op, d);
    count_probe(*part_, prob_->load, d);
    model_probe(*prob_, d);
    // Wait shares: the shards' PerfCounters stay in the shards, so
    // measure the same operator at the shards' P in this process.
    for (int rep = 0; rep < 5; ++rep) {
      core::SolveOptions o;
      o.tol = kTol;
      const auto res = core::solve_edd(*part_, prob_->load, gls7(), o);
      d.counters += sum(res.rank_counters);
    }
  }

 private:
  struct Shard {
    pid_t pid = -1;
    int ready_r = -1;
    int ctl_w = -1;
  };

  static void fill(net::proto::SolveRequestMsg& req, const std::string& key,
                   Vector f) {
    req.operator_key = key;
    req.want_solution = true;
    req.tol = kTol;
    req.restart = 25;
    req.rhs.push_back(std::move(f));
  }

  bool check(const net::proto::SolveRequestMsg& req,
             const net::proto::SolveResponseMsg& resp) const {
    return !resp.solution.empty() && !resp.items.empty() &&
           resp.items[0].converged &&
           relres(prob_->stiffness, resp.solution[0], req.rhs[0]) <=
               kResidualBound;
  }

  /// Stop the router, release the shards, collect their reports, reap.
  void stop_shards() {
    if (router_) {
      router_->stop();
      router_.reset();
    }
    for (const Shard& s : shards_) net::close_fd(s.ctl_w);
    for (const Shard& s : shards_) {
      ShardReport rep;
      if (read_all(s.ready_r, &rep, sizeof rep)) reports_.push_back(rep);
      net::close_fd(s.ready_r);
      const int code = net::wait_exit(s.pid);
      if (code != 0) {
        std::cerr << "wire_hot: shard exited " << code << "\n";
        healthy_ = false;
      }
    }
    shards_.clear();
  }

  Args a_;
  std::vector<std::string> keys_;
  std::vector<Shard> shards_;
  std::vector<ShardReport> reports_;
  std::optional<fem::CantileverProblem> prob_;
  std::shared_ptr<const partition::EddPartition> part_;
  std::optional<svc::Router> router_;
  std::string router_addr_;
  WireRun run_;
  std::uint64_t warm_failed_ = 0;
  bool healthy_ = true;
  double assemble_s_ = 0.0, partition_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_wire_hot(const Args& a) {
  return std::make_unique<WireHot>(a);
}

}  // namespace bench
