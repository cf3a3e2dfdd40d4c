// Micro-benchmark: the rebuilt pfem::par runtime (per-pair SPSC channels,
// spin-then-park wakeup, tournament-tree allreduce) against a faithful
// in-file copy of the original mailbox runtime (per-rank mutex + deque,
// 50 ms polling wait, per-message heap allocation, two-barrier linear-fold
// allreduce).  Three probes:
//
//   ping-pong   P=2, one 8-byte message bounced back and forth; reports
//               the single-message round-trip latency.
//   exchange    P=8 ring, every rank sends to and receives from both ring
//               neighbours each iteration (the EDD interface-exchange
//               pattern); reports whole-team exchange throughput.
//   allreduce   P=8, 64-double vector sum; reports per-op latency.
//
// A second mode (--net) runs the same three probes over the pfem::net
// transports instead — in-process ring vs socket loopback (every frame
// serialized through a real socketpair) — so the cost of leaving the
// address space is a measured number, not a guess.  --net-json=FILE
// records the sweep for run_paper_full.sh, which folds it into
// BENCH_net.json.
//
// Usage: micro_comm [--full] [--counters-json=FILE]
//        micro_comm --net [--full] [--net-json=FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "exp/table.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "par/comm.hpp"
#include "par/counters.hpp"

namespace pfem::bench {
namespace {

// ---------------------------------------------------------------------------
// Legacy runtime, reproduced verbatim-in-spirit from the pre-rewrite
// src/par/comm.cpp: one mailbox per rank, every send allocates a fresh
// Vector, take() scans the deque under the mailbox mutex and falls back to
// a 50 ms timed wait, and allreduce is deposit + barrier + every-rank
// linear fold + barrier.
// ---------------------------------------------------------------------------
namespace legacy {

struct Message {
  int src;
  int tag;
  Vector payload;
};

struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Message> msgs;
};

class Team {
 public:
  explicit Team(int size) : size_(size), boxes_(size), slots_(size) {}

  [[nodiscard]] int size() const noexcept { return size_; }

  void deliver(int dest, Message msg) {
    Mailbox& box = boxes_[static_cast<std::size_t>(dest)];
    {
      std::lock_guard<std::mutex> lk(box.m);
      box.msgs.push_back(std::move(msg));
    }
    box.cv.notify_all();
  }

  Vector take(int dest, int src, int tag) {
    Mailbox& box = boxes_[static_cast<std::size_t>(dest)];
    std::unique_lock<std::mutex> lk(box.m);
    for (;;) {
      const auto it = std::find_if(
          box.msgs.begin(), box.msgs.end(),
          [&](const Message& m) { return m.src == src && m.tag == tag; });
      if (it != box.msgs.end()) {
        Vector payload = std::move(it->payload);
        box.msgs.erase(it);
        return payload;
      }
      box.cv.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  void barrier() {
    std::unique_lock<std::mutex> lk(barrier_m_);
    const std::uint64_t gen = barrier_gen_;
    if (++barrier_count_ == size_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lk, [&] { return barrier_gen_ != gen; });
  }

  void allreduce(int rank, std::span<real_t> inout) {
    slots_[static_cast<std::size_t>(rank)].assign(inout.begin(), inout.end());
    barrier();
    Vector acc(slots_[0]);
    for (int r = 1; r < size_; ++r) {
      const Vector& s = slots_[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += s[i];
    }
    std::copy(acc.begin(), acc.end(), inout.begin());
    barrier();  // no rank may overwrite its slot before all have folded
  }

 private:
  int size_;
  std::vector<Mailbox> boxes_;
  std::vector<Vector> slots_;

  std::mutex barrier_m_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
};

class Comm {
 public:
  Comm(int rank, Team* team) : rank_(rank), team_(team) {}
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return team_->size(); }

  void send(int dest, int tag, std::span<const real_t> data) {
    team_->deliver(dest, Message{rank_, tag, Vector(data.begin(), data.end())});
  }
  void recv(int src, int tag, Vector& out) {
    out = team_->take(rank_, src, tag);
  }
  void barrier() { team_->barrier(); }
  void allreduce_sum(std::span<real_t> inout) {
    team_->allreduce(rank_, inout);
  }

 private:
  int rank_;
  Team* team_;
};

void run_spmd(int nranks, const std::function<void(Comm&)>& fn) {
  Team team(nranks);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    threads.emplace_back([&, r] {
      Comm comm(r, &team);
      fn(comm);
    });
  for (std::thread& t : threads) t.join();
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Probes.  Each is written twice against the two (intentionally identical)
// comm interfaces; rank 0 times the steady-state loop between barriers so
// thread spawn/join stays out of the measurement.
// ---------------------------------------------------------------------------
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <class CommT>
void pingpong_body(CommT& c, int rounds, double& out_seconds) {
  const int other = 1 - c.rank();
  Vector msg{1.0}, in;
  c.barrier();
  const auto t0 = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    if (c.rank() == 0) {
      c.send(other, 0, msg);
      c.recv(other, 0, in);
    } else {
      c.recv(other, 0, in);
      c.send(other, 0, in);
    }
  }
  if (c.rank() == 0) out_seconds = seconds_between(t0, Clock::now());
}

template <class CommT>
void exchange_body(CommT& c, int iters, std::size_t msg_len,
                   double& out_seconds) {
  const int p = c.size();
  const int left = (c.rank() + p - 1) % p;
  const int right = (c.rank() + 1) % p;
  Vector out(msg_len, static_cast<real_t>(c.rank())), in;
  c.barrier();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    c.send(left, 1, out);
    c.send(right, 2, out);
    c.recv(left, 2, in);
    c.recv(right, 1, in);
  }
  c.barrier();
  if (c.rank() == 0) out_seconds = seconds_between(t0, Clock::now());
}

template <class CommT>
void allreduce_body(CommT& c, int reps, std::size_t len, double& out_seconds) {
  Vector v(len, 1.0);
  c.barrier();
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) c.allreduce_sum(v);
  if (c.rank() == 0) out_seconds = seconds_between(t0, Clock::now());
}

/// Best-of-`reps` wall time for `run()` (robust against scheduler noise).
double best_of(int reps, const std::function<double()>& run) {
  double best = run();
  for (int i = 1; i < reps; ++i) best = std::min(best, run());
  return best;
}

// ---------------------------------------------------------------------------
// Transport-comparison mode (--net): the same probes against the
// pfem::net loopback ladder.  Every rung presents identical Team
// semantics; what changes is purely how bytes move, so the deltas below
// are the transport tax and nothing else.
// ---------------------------------------------------------------------------
using TransportFactory =
    std::function<std::shared_ptr<net::Transport>(int nranks)>;

struct NetProbeResult {
  std::string name;
  double ping_us = 0.0;    ///< P=2 round-trip latency
  double exch_per_s = 0.0; ///< team ring exchanges per second
  double red_us = 0.0;     ///< per-allreduce latency
};

/// One timed Team job over a fresh transport (construction and thread
/// spawn stay outside the probe's own barrier-to-barrier window).
template <class Body>
double timed_team_job(const TransportFactory& make, int nranks, Body&& body) {
  par::TeamConfig cfg;
  cfg.nranks = nranks;
  cfg.transport = make(nranks);
  par::Team team(cfg);
  double s = 0.0;
  team.run([&](par::Comm& c) { body(c, s); });
  return s;
}

NetProbeResult net_probe(const std::string& name, const TransportFactory& make,
                         int ping, int exch, std::size_t exch_len, int red,
                         std::size_t red_len, int team, int best) {
  NetProbeResult r;
  r.name = name;
  const double ping_s = best_of(best, [&] {
    return timed_team_job(make, 2, [&](par::Comm& c, double& s) {
      pingpong_body(c, ping, s);
    });
  });
  const double exch_s = best_of(best, [&] {
    return timed_team_job(make, team, [&](par::Comm& c, double& s) {
      exchange_body(c, exch, exch_len, s);
    });
  });
  const double red_s = best_of(best, [&] {
    return timed_team_job(make, team, [&](par::Comm& c, double& s) {
      allreduce_body(c, red, red_len, s);
    });
  });
  r.ping_us = 1e6 * ping_s / ping;
  r.exch_per_s = exch / exch_s;
  r.red_us = 1e6 * red_s / red;
  return r;
}

int run_net_mode(int argc, char** argv) {
  const bool full = full_run(argc, argv);
  // The socket rung funnels every frame through one socketpair reader,
  // so the net sweep uses P=4 and smaller counts than the legacy
  // comparison — latency ratios, not saturation, are the product here.
  const int kPing = full ? 5000 : 1000;
  const int kExch = full ? 1000 : 200;
  const std::size_t kExchLen = 1024;  // 8 KiB messages
  const int kRed = full ? 1000 : 200;
  const std::size_t kRedLen = 64;
  const int kTeam = 4;
  const int kBestOf = 3;

  const std::vector<std::pair<std::string, TransportFactory>> rungs = {
      {"inproc", [](int n) { return net::make_inproc_transport(n); }},
      {"socket", [](int n) { return net::make_socket_loopback_transport(n); }},
  };
  std::vector<NetProbeResult> results;
  for (const auto& [name, make] : rungs)
    results.push_back(net_probe(name, make, kPing, kExch, kExchLen, kRed,
                                kRedLen, kTeam, kBestOf));

  std::cout << "micro_comm --net: transport ladder, P=" << kTeam
            << (full ? " (--full)" : "") << "\n";
  exp::Table t({"transport", "ping-pong P=2 (us/rt)",
                "ring exchange (exch/s)", "allreduce 64 (us/op)"});
  for (const NetProbeResult& r : results)
    t.add_row({r.name, exp::Table::num(r.ping_us, 3),
               exp::Table::num(r.exch_per_s, 0), exp::Table::num(r.red_us, 3)});
  t.print(std::cout);

  const std::string json = exp::str_flag(argc, argv, "--net-json", "");
  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "error: cannot write " << json << "\n";
      return 1;
    }
    out << "{\n  \"bench\": \"micro_comm_net\",\n  \"team\": " << kTeam
        << ",\n  \"exchange_len_doubles\": " << kExchLen
        << ",\n  \"allreduce_len_doubles\": " << kRedLen
        << ",\n  \"transports\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const NetProbeResult& r = results[i];
      out << "    {\"name\": \"" << r.name << "\", \"pingpong_us\": "
          << r.ping_us << ", \"exchange_per_s\": " << r.exch_per_s
          << ", \"allreduce_us\": " << r.red_us << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "transport comparison written to " << json << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace pfem::bench

int main(int argc, char** argv) {
  using namespace pfem;
  using namespace pfem::bench;

  if (exp::has_flag(argc, argv, "--net") ||
      !exp::str_flag(argc, argv, "--net-json", "").empty())
    return run_net_mode(argc, argv);

  const bool full = full_run(argc, argv);
  const int kPing = full ? 20000 : 2000;      // round trips, P=2
  const int kExch = full ? 5000 : 500;        // ring exchanges, P=8
  const std::size_t kExchLen = 1024;          // doubles per message (8 KiB)
  const int kRed = full ? 5000 : 500;         // allreduce ops, P=8
  const std::size_t kRedLen = 64;             // doubles per allreduce
  const int kTeam = 8;
  const int kBestOf = 3;

  std::vector<par::PerfCounters> last_counters;

  const double ping_old = best_of(kBestOf, [&] {
    double s = 0.0;
    legacy::run_spmd(2, [&](legacy::Comm& c) { pingpong_body(c, kPing, s); });
    return s;
  });
  const double ping_new = best_of(kBestOf, [&] {
    double s = 0.0;
    par::run_spmd(2, [&](par::Comm& c) { pingpong_body(c, kPing, s); });
    return s;
  });

  const double exch_old = best_of(kBestOf, [&] {
    double s = 0.0;
    legacy::run_spmd(kTeam, [&](legacy::Comm& c) {
      exchange_body(c, kExch, kExchLen, s);
    });
    return s;
  });
  const double exch_new = best_of(kBestOf, [&] {
    double s = 0.0;
    last_counters = par::run_spmd(kTeam, [&](par::Comm& c) {
      exchange_body(c, kExch, kExchLen, s);
    });
    return s;
  });

  const double red_old = best_of(kBestOf, [&] {
    double s = 0.0;
    legacy::run_spmd(kTeam, [&](legacy::Comm& c) {
      allreduce_body(c, kRed, kRedLen, s);
    });
    return s;
  });
  const double red_new = best_of(kBestOf, [&] {
    double s = 0.0;
    par::run_spmd(kTeam, [&](par::Comm& c) {
      allreduce_body(c, kRed, kRedLen, s);
    });
    return s;
  });

  const double ping_us_old = 1e6 * ping_old / kPing;
  const double ping_us_new = 1e6 * ping_new / kPing;
  const double exch_rate_old = kExch / exch_old;  // team exchanges per second
  const double exch_rate_new = kExch / exch_new;
  const double red_us_old = 1e6 * red_old / kRed;
  const double red_us_new = 1e6 * red_new / kRed;

  std::cout << "micro_comm: legacy mailbox runtime vs channel runtime"
            << (full ? " (--full)" : "") << "\n";
  exp::Table t({"probe", "legacy", "new", "speedup"});
  t.add_row({"ping-pong latency P=2 (us/rt)", exp::Table::num(ping_us_old, 3),
             exp::Table::num(ping_us_new, 3),
             exp::Table::num(ping_us_old / ping_us_new, 1) + "x"});
  t.add_row({"ring exchange P=8 (exchanges/s)",
             exp::Table::num(exch_rate_old, 0), exp::Table::num(exch_rate_new, 0),
             exp::Table::num(exch_rate_new / exch_rate_old, 1) + "x"});
  t.add_row({"allreduce 64 doubles P=8 (us/op)", exp::Table::num(red_us_old, 3),
             exp::Table::num(red_us_new, 3),
             exp::Table::num(red_us_old / red_us_new, 1) + "x"});
  t.print(std::cout);

  if (exp::trace_requested(argc, argv)) {
    // A dedicated traced run so the timed probes above stay untouched.
    const obs::ObserveOptions oo = exp::observe_from_flags(argc, argv);
    obs::Trace trace(kTeam, oo.ring_capacity);
    par::run_spmd(
        kTeam,
        [&](par::Comm& c) {
          double s = 0.0;
          exchange_body(c, kExch, kExchLen, s);
        },
        &trace);
    if (!exp::dump_trace_if_requested(argc, argv, &trace)) return 1;
  }

  return dump_counters_if_requested(argc, argv, last_counters) ? 0 : 1;
}
