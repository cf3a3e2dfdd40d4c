#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "common/timer.hpp"
#include "core/gls_poly.hpp"
#include "core/kernels.hpp"
#include "core/operator.hpp"
#include "exp/experiments.hpp"
#include "par/comm.hpp"
#include "par/cost_model.hpp"
#include "sparse/sell.hpp"
#include "svc/remote.hpp"

namespace bench {

using namespace pfem;

core::PolySpec gls7() {
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 7;
  return poly;
}

namespace {

std::size_t l3_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (in >> s && !s.empty()) {
    std::size_t v = std::stoul(s);
    if (s.back() == 'K') v <<= 10;
    if (s.back() == 'M') v <<= 20;
    if (v > 0) return v;
  }
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : std::size_t{105} << 20;
}

int nthreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Run `body(t)` on `n` threads started together; returns the wall time
/// of the slowest.
double timed_parallel(int n, const std::function<void(int)>& body) {
  std::barrier start(n + 1);
  std::vector<std::thread> th;
  for (int t = 0; t < n; ++t)
    th.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  start.arrive_and_wait();
  const WallTimer w;
  for (auto& x : th) x.join();
  return w.seconds();
}

}  // namespace

double triad_gbs(Report& r) {
  const std::size_t l3 = l3_bytes();
  const std::size_t n = 4 * l3 / sizeof(double);
  const int nt = nthreads();
  // unique_ptr<double[]> leaves the pages untouched until each thread
  // first-touches its own slice.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const auto slice = [&](int t) {
    const std::size_t lo = n * static_cast<std::size_t>(t) / nt;
    const std::size_t hi = n * static_cast<std::size_t>(t + 1) / nt;
    return std::pair{lo, hi};
  };
  (void)timed_parallel(nt, [&](int t) {
    const auto [lo, hi] = slice(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best = INFINITY;
  for (int rep = 0; rep < 5; ++rep)
    best = std::min(best, timed_parallel(nt, [&](int t) {
                      const auto [lo, hi] = slice(t);
                      double* __restrict pa = a.get();
                      const double* __restrict pb = b.get();
                      const double* __restrict pc = c.get();
                      for (std::size_t i = lo; i < hi; ++i)
                        pa[i] = pb[i] + s * pc[i];
                    }));
  if (a[n / 2] != 7.0) return 0.0;  // triad result check
  const double bytes = 3.0 * sizeof(double) * static_cast<double>(n);
  r.note("triad: " + std::to_string(nt) + " threads, 3 arrays of " +
         std::to_string(n * sizeof(double) >> 20) + " MiB each, L3 " +
         std::to_string(l3 >> 20) + " MiB; best of 5");
  return bytes / best * 1e-9;
}

core::EddOperatorState build_probe(
    const partition::EddPartition& part,
    const std::optional<core::DeflationOptions>& in_use,
    const core::DeflationOptions& coarse, LayerData& d) {
  par::Team team(part.nparts());
  std::vector<double> ms;
  core::EddOperatorState op;
  for (int rep = 0; rep < 3; ++rep) {
    const WallTimer w;
    op = core::build_edd_operator(team, part, gls7(), nullptr, nullptr, {},
                                  in_use.value_or(core::DeflationOptions{}));
    ms.push_back(1e3 * w.seconds());
  }
  d.build_operator_ms = median(ms);
  obs::Trace trace(part.nparts());
  (void)core::build_edd_operator(team, part, gls7(), nullptr, &trace, {},
                                 coarse);
  SpanTotals t;
  t.add(trace);
  d.build_coarse_ms = t.total("build_coarse") / part.nparts() * 1e-6;
  return op;
}

void kernel_probe(const partition::EddPartition& part,
                  const core::EddOperatorState& op, LayerData& d) {
  using Format = core::KernelOptions::Format;
  const int p = part.nparts();
  for (const Format fmt : {Format::Csr, Format::Sell, Format::Ebe}) {
    core::KernelOptions ko;
    ko.format = fmt;
    std::vector<core::RankKernel> kern;
    double bytes = 0.0;  // per apply over all ranks, from array sizes
    for (int r = 0; r < p; ++r) {
      const auto& sub = part.subs[static_cast<std::size_t>(r)];
      kern.emplace_back(sub.k_loc, op.d[static_cast<std::size_t>(r)],
                        sub.interface_local_dofs, ko, sub.elem_store.get());
      const double n = sub.k_loc.rows();
      const double vecs = 2.0 * 8.0 * n;  // x read + y written
      if (fmt == Format::Csr) {
        bytes += 12.0 * sub.k_loc.nnz() + 4.0 * (n + 1) + vecs;
      } else if (fmt == Format::Sell) {
        const auto s = sparse::SellMatrix::from_csr(sub.k_loc);
        bytes += 12.0 * s.padded_nnz() + 4.0 * s.stored_rows() + vecs;
      } else {
        const auto& e = *sub.elem_store;
        bytes += 8.0 * static_cast<double>(e.stored_values()) +
                 4.0 * e.num_elems() * e.edofs() + vecs;
      }
    }
    // Enough applies for ~50 ms at 10 GB/s.
    const int reps = std::clamp(static_cast<int>(5e8 / bytes), 5, 2000);
    std::vector<Vector> xs, ys;
    for (int r = 0; r < p; ++r) {
      xs.emplace_back(static_cast<std::size_t>(kern[r].rows()), 1.0);
      ys.emplace_back(static_cast<std::size_t>(kern[r].rows()), 0.0);
    }
    std::vector<double> walls;
    for (int rep = 0; rep < 3; ++rep)
      walls.push_back(timed_parallel(p, [&](int r) {
        for (int i = 0; i < reps; ++i) kern[r].apply(xs[r], ys[r]);
      }));
    const double gbs = bytes * reps / median(walls) * 1e-9;
    (fmt == Format::Csr ? d.csr_gbs : fmt == Format::Sell ? d.sell_gbs
                                                          : d.ebe_gbs) = gbs;
  }
}

void poly_probe(const core::EddOperatorState& op, LayerData& d) {
  const core::LinearOp a = core::LinearOp::from_csr(op.a[0]);
  const std::size_t n = static_cast<std::size_t>(a.size());
  Vector v(n), z(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 + 1e-3 * (i % 17);
  std::vector<double> ms;
  for (int rep = 0; rep < 21; ++rep) {
    const WallTimer w;
    op.gls->apply(a, v, z);
    ms.push_back(1e3 * w.seconds());
  }
  d.poly_apply_ms = median(ms);
}

void count_probe(const partition::EddPartition& part,
                 std::span<const real_t> f, LayerData& d) {
  const auto capped = [&](core::EddVariant v, index_t n) {
    core::SolveOptions o;
    o.tol = 1e-300;  // never reached: exactly n inner iterations
    o.max_iters = n;
    return core::solve_edd(part, f, gls7(), o, v);
  };
  for (const auto v : {core::EddVariant::Enhanced, core::EddVariant::Basic}) {
    const auto a = capped(v, 3);
    const auto b = capped(v, 4);
    const double exch = static_cast<double>(
        b.rank_counters[0].delta_since(a.rank_counters[0]).neighbor_exchanges);
    if (v == core::EddVariant::Basic) {
      d.exchanges_per_iter_basic = exch;
      continue;
    }
    d.exchanges_per_iter = exch;
    d.bytes_per_iter = static_cast<double>(
        sum(b.rank_counters).delta_since(sum(a.rank_counters)).neighbor_bytes);
  }
}

void model_probe(const fem::CantileverProblem& prob, LayerData& d) {
  const auto part1 = exp::make_edd(prob, 1);
  const auto part4 = exp::make_edd(prob, 4);
  const auto s1 = core::solve_edd(part1, prob.load, gls7());
  std::vector<double> walls;
  core::DistSolve s4;
  for (int rep = 0; rep < 3; ++rep) {
    s4 = core::solve_edd(part4, prob.load, gls7());
    walls.push_back(s4.wall_seconds);
  }
  const double wall4 = median(walls);
  d.speedup_p4 = s1.wall_seconds / wall4;

  // alpha and beta: one-way ping-pong time, halved because the model
  // charges alpha + bytes*beta at both ends of a message.
  const auto one_way = [](std::size_t len, int trips) {
    double t = 0.0;
    (void)par::run_spmd(2, [&](par::Comm& c) {
      Vector buf(len, 1.0);
      const WallTimer w;
      for (int i = 0; i < trips; ++i) {
        if (c.rank() == 0) {
          c.send(1, 7, buf);
          c.recv(1, 7, std::span<real_t>(buf));
        } else {
          c.recv(0, 7, std::span<real_t>(buf));
          c.send(0, 7, buf);
        }
      }
      if (c.rank() == 0) t = w.seconds() / (2.0 * trips);
    });
    return t;
  };
  const std::size_t big = 1 << 15;
  const double t_small = one_way(1, 4000);
  const double t_big = one_way(big, 400);
  double red = 0.0;
  (void)par::run_spmd(4, [&](par::Comm& c) {
    const WallTimer w;
    real_t x = 1.0;
    for (int i = 0; i < 4000; ++i) x = c.allreduce_sum(x) * 0.25;
    if (c.rank() == 0) red = w.seconds() / 4000.0;
  });
  par::MachineModel m;
  m.name = "fitted";
  m.flop_time = s1.wall_seconds / static_cast<double>(s1.rank_counters[0].flops);
  m.latency = 0.5 * t_small;
  m.byte_time = std::max(0.0, 0.5 * (t_big - t_small) / (8.0 * big));
  m.reduce_latency = red / 2.0;  // ceil(log2 4) tree stages
  const double modeled = par::model_time(m, s4.rank_counters).total();
  d.model_err_p4 = std::abs(modeled - wall4) / wall4;
  std::cout << "# model: gamma " << m.flop_time << " s/flop, alpha "
            << m.latency << " s, beta " << m.byte_time << " s/B, reduce alpha "
            << m.reduce_latency << " s; P=1 " << s1.wall_seconds
            << " s, P=4 " << wall4 << " s, modeled P=4 " << modeled << " s\n";
}

void codec_probe(const net::proto::SolveRequestMsg& req,
                 const net::proto::SolveResponseMsg& resp, LayerData& d) {
  using namespace net::proto;
  using net::ByteBuffer;
  ByteBuffer qb, sb;
  encode_solve_request(qb, req);
  encode_solve_response(sb, resp);
  const double frame_bytes = static_cast<double>(qb.size() + sb.size());
  d.net.bytes_per_req = frame_bytes;
  const int reps = std::clamp(static_cast<int>(2e8 / frame_bytes), 5, 20000);
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep) {
    const WallTimer w;
    for (int i = 0; i < reps; ++i) {
      ByteBuffer q, s;
      encode_solve_request(q, req);
      encode_solve_response(s, resp);
      SolveRequestMsg rq;
      SolveResponseMsg rs;
      const auto body = [](const ByteBuffer& b) {
        return std::span<const unsigned char>(b.data() + kProtoHeaderBytes,
                                              b.size() - kProtoHeaderBytes);
      };
      if (decode_solve_request(body(q), rq) != DecodeStatus::Ok ||
          decode_solve_response(body(s), rs) != DecodeStatus::Ok)
        return;
    }
    walls.push_back(w.seconds());
  }
  // Each frame is encoded once and decoded once.
  d.net.codec_gbs = 2.0 * frame_bytes * reps / median(walls) * 1e-9;
}

WireRun drive_wire(const std::string& addr, int clients, double seconds,
                   int max_per_client, std::uint64_t seed,
                   const RequestMaker& make, const ResponseCheck& check) {
  WireRun out;
  std::atomic<bool> stop{false};
  std::mutex m;
  const WallTimer clock;
  std::vector<std::thread> th;
  for (int c = 0; c < clients; ++c)
    th.emplace_back([&, c] {
      std::vector<WireSample> mine;
      net::proto::SolveRequestMsg req;
      net::proto::SolveResponseMsg resp;
      try {
        svc::Client client(addr, "bench-" + std::to_string(c));
        SeededStream rng(seed * 1000003u + static_cast<std::uint64_t>(c));
        for (int i = 0; max_per_client <= 0 || i < max_per_client; ++i) {
          if (stop.load(std::memory_order_relaxed)) break;
          req = net::proto::SolveRequestMsg{};
          make(c, rng, req);
          const WallTimer w;
          const bool sent = client.solve(req, resp);
          WireSample s;
          s.latency_ms = 1e3 * w.seconds();
          s.queue_ms = 1e3 * resp.queue_seconds;
          s.solve_ms = 1e3 * resp.solve_seconds;
          s.cache_hit = resp.cache_hit;
          s.iterations = resp.items.empty() ? 0 : resp.items[0].iterations;
          s.verified = sent &&
                       resp.status == net::proto::SolveStatus::Completed &&
                       check(req, resp);
          mine.push_back(s);
          if (!sent) break;
        }
      } catch (const std::exception& e) {
        std::cerr << "client " << c << ": " << e.what() << "\n";
        mine.push_back(WireSample{});  // counts as a failed request
      }
      std::scoped_lock lock(m);
      out.samples.insert(out.samples.end(), mine.begin(), mine.end());
      if (c == 0) {
        out.last_req = req;
        out.last_resp = resp;
      }
    });
  if (seconds > 0.0) {
    while (clock.seconds() < seconds)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
  }
  for (auto& t : th) t.join();
  out.phase.elapsed_s = clock.seconds();
  for (const WireSample& s : out.samples) {
    ++out.phase.attempted;
    if (s.verified) ++out.phase.verified;
    out.phase.latency_ms.push_back(s.latency_ms);
  }
  return out;
}

void wire_views(const WireRun& w, LayerData& d, bool svc_too) {
  for (const WireSample& s : w.samples) {
    d.net.hop_ms.push_back(s.latency_ms - s.queue_ms - s.solve_ms);
    if (!svc_too) continue;
    d.svc.queue_ms.push_back(s.queue_ms);
    d.svc.solve_ms.push_back(s.solve_ms);
  }
}

void inprocess_wire_probe(std::shared_ptr<const partition::EddPartition> part,
                          const sparse::CsrMatrix& k, const Vector& f,
                          int requests, const Args& a, LayerData& d,
                          bool fill_svc) {
  const std::string base =
      "unix:" + a.rundir + "/probe" + std::to_string(::getpid());
  svc::ServiceConfig cfg;
  cfg.nranks = part->nparts();
  svc::Service service(cfg);
  service.register_operator("probe", part, gls7());
  WireRun run;
  std::uint64_t session_rhs = 0;
  {
    svc::Server server(service, base + "_s.sock", "probe-shard");
    svc::RouterConfig rc;
    rc.listen_addr = base + "_r.sock";
    rc.shard_addrs = {base + "_s.sock"};
    svc::Router router(rc);
    std::uint64_t session = 0;
    {
      svc::Client c(rc.listen_addr, "bench-session");
      session = c.open_session("probe");
    }
    int i = 0;
    run = drive_wire(
        rc.listen_addr, 1, 0.0, requests, a.seed,
        [&](int, SeededStream& rng, net::proto::SolveRequestMsg& req) {
          req.operator_key = "probe";
          req.want_solution = true;
          req.tol = kTol;
          req.rhs.push_back(pow2_scaled(f, rng));
          if (i++ % 2 == 1) {
            req.session_id = session;
            ++session_rhs;
          }
        },
        [&](const net::proto::SolveRequestMsg& req,
            const net::proto::SolveResponseMsg& resp) {
          return !resp.solution.empty() && !resp.items.empty() &&
                 resp.items[0].converged &&
                 relres(k, resp.solution[0], req.rhs[0]) <= kResidualBound;
        });
    const auto rs = router.stats();
    d.net.forwarded = rs.forwarded;
    d.net.affinity = rs.affinity;
    d.net.spilled = rs.spilled;
    router.stop();
    server.stop();
  }
  service.shutdown();
  wire_views(run, d, fill_svc);
  if (fill_svc) {
    const svc::ServiceStats st = service.stats();
    d.svc.submitted = st.submitted;
    d.svc.rejected =
        st.rejected_queue_full + st.rejected_deadline + st.rejected_other;
    d.svc.retries = st.retries;
    d.svc.batches = st.batches;
    d.svc.rhs_solved = st.rhs_solved;
    d.svc.cache_hits = st.cache_hits;
    d.svc.cache_misses = st.cache_misses;
    d.svc.warm_rhs = st.warm_rhs;
    d.svc.session_rhs = session_rhs;
  }
  codec_probe(run.last_req, run.last_resp, d);
  d.probe_failed += run.phase.attempted - run.phase.verified;
}

void print_layers(Report& r, const LayerData& d) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const SpanTotals& sp = d.spans;
  const double solve_ns = sp.total(d.solve_span);
  r.metric("host.triad_gbs", d.triad_gbs, "GB/s");
  r.metric("fem.assemble_s", d.assemble_s, "s");
  r.metric("partition.edd_s", d.partition_s, "s");
  r.metric("core.build_operator_ms", d.build_operator_ms, "ms");
  r.metric("core.build_coarse_ms", d.build_coarse_ms, "ms");
  const char* computed = "bytes computed from array sizes";
  r.metric("kernel.csr.gbs", d.csr_gbs, "GB/s", computed);
  r.metric("kernel.sell.gbs", d.sell_gbs, "GB/s", computed);
  r.metric("kernel.ebe.gbs", d.ebe_gbs, "GB/s", computed);
  r.metric("kernel.csr.pct_triad", 100.0 * ratio(d.csr_gbs, d.triad_gbs), "%");
  r.metric("kernel.sell.pct_triad", 100.0 * ratio(d.sell_gbs, d.triad_gbs),
           "%");
  r.metric("kernel.ebe.pct_triad", 100.0 * ratio(d.ebe_gbs, d.triad_gbs), "%");
  r.metric("poly.apply_ms", d.poly_apply_ms, "ms");
  r.metric("poly.share", ratio(sp.total("poly_apply"), solve_ns), "fraction");
  r.metric("fgmres.iters_mean", d.iters_mean, "count");
  r.metric("fgmres.ortho_share", ratio(sp.total("gram_schmidt"), solve_ns),
           "fraction");
  r.metric("par.exchanges_per_iter", d.exchanges_per_iter, "count");
  r.metric("par.exchanges_per_iter_basic", d.exchanges_per_iter_basic,
           "count");
  r.metric("par.bytes_per_iter", d.bytes_per_iter, "B");
  r.metric("par.neighbor_wait_share",
           ratio(d.counters.neighbor_wait_seconds, d.counters.total_seconds),
           "fraction");
  r.metric("par.reduce_wait_share",
           ratio(d.counters.reduce_wait_seconds, d.counters.total_seconds),
           "fraction");
  r.metric("par.speedup_p4", d.speedup_p4, "x");
  r.metric("par.model_err_p4", d.model_err_p4, "fraction");
  r.metric("deflation.coarse_solves_per_iter", d.coarse_solves_per_iter,
           "count");
  r.metric("deflation.coarse_share", ratio(sp.total("coarse_correct"), solve_ns),
           "fraction");
  const SvcView& s = d.svc;
  r.metric("svc.queue_wait_p50_ms", median(s.queue_ms), "ms");
  r.metric("svc.solve_p50_ms", median(s.solve_ms), "ms");
  r.metric("svc.batch_rhs_mean",
           ratio(static_cast<double>(s.rhs_solved), s.batches), "count");
  r.metric("svc.cache_hit_rate",
           ratio(static_cast<double>(s.cache_hits), s.cache_hits + s.cache_misses),
           "fraction");
  r.metric("svc.build_share", d.build_share, "fraction");
  r.metric("svc.session_warm_rate",
           ratio(static_cast<double>(s.warm_rhs), s.session_rhs), "fraction");
  r.metric("svc.rejected_frac",
           ratio(static_cast<double>(s.rejected), s.submitted), "fraction");
  r.metric("svc.retries", static_cast<double>(s.retries), "count");
  r.metric("net.codec_gbs", d.net.codec_gbs, "GB/s");
  r.metric("net.bytes_per_req", d.net.bytes_per_req, "B");
  r.metric("net.hop_ms_p50", median(d.net.hop_ms), "ms");
  r.metric("router.affinity_rate",
           ratio(static_cast<double>(d.net.affinity), d.net.forwarded),
           "fraction");
  r.metric("router.spill_frac",
           ratio(static_cast<double>(d.net.spilled), d.net.forwarded),
           "fraction");
  r.metric("trace.overhead_frac", d.overhead_frac, "fraction");
  const double covered = sp.covered();
  for (const char* name :
       {"spmv", "poly_apply", "gram_schmidt", "exchange", "allreduce",
        "coarse_correct", "build_operator", "build_coarse"})
    r.metric(std::string("trace.self.") + name, ratio(sp.self(name), covered),
             "fraction", "self time / traced rank time");
  std::cout << "# span self times (rank lanes, " << sp.dropped
            << " records overwritten):\n";
  for (const auto& [name, e] : sp.entries())
    std::cout << "#   " << name << ": count " << e.count << ", total "
              << e.total_ns * 1e-6 << " ms, self " << e.self_ns * 1e-6
              << " ms\n";
}

}  // namespace bench
