// EDD-FGMRES benchmark binary.
//
//   edd_bench --workload paper_solve|svc_churn|wire_hot --seed N
//             --seconds S --trace 0|1 [--rundir DIR]
//
// --trace 0: set the workload up kSetupReps times (median = setup_s),
// then one untraced closed-loop phase of S seconds; prints the
// end-to-end metrics.  --trace 1: an untraced and a traced phase of S/2
// seconds each, then the per-layer probes; prints the per-layer metrics.
// The last stdout line is the JSON result.
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/timer.hpp"
#include "probes.hpp"
#include "workload.hpp"

namespace {

using namespace bench;

constexpr int kSetupReps = 5;

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--rundir") a.rundir = v;
    else return false;
  }
  return (argc % 2) == 1 && a.seconds > 0.0;
}

std::unique_ptr<Workload> make(const Args& a) {
  if (a.workload == "paper_solve") return make_paper_solve(a);
  if (a.workload == "svc_churn") return make_svc_churn(a);
  if (a.workload == "wire_hot") return make_wire_hot(a);
  return nullptr;
}

std::string pct_str(double p) {
  std::ostringstream os;
  os << p;
  return os.str();
}

void print_samples(const char* what, const LatencyStats& s,
                   const Phase& p) {
  std::cout << "# " << what << ": " << s.n << " requests in " << p.elapsed_s
            << " s; p50 " << s.p50 << " ms; tail " << s.tail << " ms at p"
            << s.tail_pct << " (" << s.n << " samples)\n";
}

int run_untraced(Workload& w, const Args& a) {
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) w.teardown();
    const pfem::WallTimer t;
    w.setup(/*traced=*/false);
    setup_s.push_back(t.seconds());
  }
  const Phase p = w.run(a.seconds);
  const double rss = w.rss_mb();
  w.teardown();
  const LatencyStats s = latency_stats(p.latency_ms);
  print_samples("timed phase", s, p);
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, p.attempted));
  Report r;
  r.metric("setup_s", median(setup_s), "s",
           "median of " + std::to_string(kSetupReps) + " set-ups");
  r.metric("throughput_rps", static_cast<double>(p.verified) / p.elapsed_s,
           "1/s");
  r.metric("latency_p50_ms", s.p50, "ms");
  r.metric("latency_tail_ms", s.tail, "ms",
           "p" + pct_str(s.tail_pct) + " of " + std::to_string(s.n));
  r.metric("verified_frac", static_cast<double>(p.verified) / attempted,
           "fraction", "1 - fail_frac");
  r.metric("rss_peak_mb", rss, "MiB");
  const bool ok = p.verified == p.attempted && p.attempted > 0 && w.healthy();
  r.finish(ok, std::max<std::uint64_t>(1, p.attempted),
           p.attempted - p.verified);
  return 0;
}

int run_traced(Workload& w, const Args& a) {
  const double half = a.seconds / 2.0;
  w.setup(/*traced=*/false);
  const Phase pu = w.run(half);
  w.teardown();
  w.setup(/*traced=*/true);
  const Phase pt = w.run(half);
  LayerData d;
  w.collect_traced(d);
  w.teardown();
  const LatencyStats su = latency_stats(pu.latency_ms);
  const LatencyStats st = latency_stats(pt.latency_ms);
  print_samples("untraced phase", su, pu);
  print_samples("traced phase", st, pt);
  d.overhead_frac = su.p50 > 0.0 ? (st.p50 - su.p50) / su.p50 : 0.0;
  Report r;
  d.triad_gbs = triad_gbs(r);
  w.probe_layers(d);
  print_layers(r, d);
  const std::uint64_t attempted = pu.attempted + pt.attempted;
  const std::uint64_t verified = pu.verified + pt.verified;
  // The Table-1 contract on every workload's undeflated operator.
  const bool counts_ok =
      d.exchanges_per_iter == 8.0 && d.exchanges_per_iter_basic == 10.0;
  if (!counts_ok) r.note("Table-1 counts differ from m+1 = 8 / m+3 = 10");
  if (d.probe_failed > 0)
    r.note(std::to_string(d.probe_failed) + " probe solves failed verification");
  r.finish(verified == attempted && attempted > 0 && counts_ok &&
               d.probe_failed == 0 && w.healthy(),
           std::max<std::uint64_t>(1, attempted), attempted - verified);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: edd_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--rundir DIR]\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make(a);
  if (!w) {
    std::cerr << "unknown workload '" << a.workload << "'\n";
    return 2;
  }
  std::cout << "# workload " << a.workload << ", seed " << a.seed << ", "
            << a.seconds << " s, trace " << a.trace << ", nproc "
            << std::thread::hardware_concurrency() << ", build "
            << PFEM_BENCH_BUILD_TYPE << "\n";
  try {
    return a.trace ? run_traced(*w, a) : run_untraced(*w, a);
  } catch (const std::exception& e) {
    std::cerr << "edd_bench: " << e.what() << "\n";
    return 1;
  }
}
