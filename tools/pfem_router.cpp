// pfem_router — shard router for the socket-served solve service.
//
// Accepts pfem_loadgen --connect clients on --listen and multiplexes
// their requests onto N pfem_serve --listen shards with operator-cache
// affinity: hash(operator_key) mod nshards, spilling to the
// least-loaded shard when the affine one has --max-inflight requests
// in flight, and shedding load with a typed Rejected{QueueFull} when
// every shard is saturated.  Runs until SIGTERM/SIGINT (or
// --serve-seconds) and reports routing stats (and --json=FILE).
//
// Usage (one command line):
//   pfem_router --listen=unix:/tmp/router.sock
//               --shards=unix:/tmp/shard0.sock,unix:/tmp/shard1.sock
//               [--max-inflight=8] [--name=pfem-router]
//               [--serve-seconds=0] [--json=FILE]
#include <csignal>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "exp/cli.hpp"
#include "svc/remote.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void on_stop_signal(int) { g_stop = 1; }

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using pfem::exp::double_flag;
  using pfem::exp::int_flag;
  using pfem::exp::str_flag;

  pfem::svc::RouterConfig cfg;
  cfg.listen_addr = str_flag(argc, argv, "--listen", "");
  cfg.shard_addrs = split_csv(str_flag(argc, argv, "--shards", ""));
  cfg.max_inflight_per_shard =
      static_cast<std::size_t>(int_flag(argc, argv, "--max-inflight", 8));
  cfg.name = str_flag(argc, argv, "--name", "pfem-router");
  const double serve_seconds =
      double_flag(argc, argv, "--serve-seconds", 0.0);
  const std::string json = str_flag(argc, argv, "--json", "");

  if (cfg.listen_addr.empty() || cfg.shard_addrs.empty()) {
    std::cerr << "usage: pfem_router --listen=ADDR --shards=ADDR[,ADDR...]"
                 " [--max-inflight=N] [--serve-seconds=S] [--json=FILE]\n";
    return 2;
  }

  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);

  try {
    pfem::svc::Router router(cfg);
    std::cout << cfg.name << ": " << router.nshards()
              << " shard(s), listening on " << cfg.listen_addr << std::endl;

    const auto t0 = std::chrono::steady_clock::now();
    while (!g_stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (serve_seconds > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
                  .count() >= serve_seconds)
        break;
    }
    router.stop();

    const pfem::svc::Router::Stats st = router.stats();
    std::cout << cfg.name << ": forwarded=" << st.forwarded
              << " affinity=" << st.affinity << " spilled=" << st.spilled
              << " rejected_backpressure=" << st.rejected_backpressure
              << " session_frames=" << st.session_frames
              << " session_pinned=" << st.session_pinned
              << " responses=" << st.responses << "\n";
    if (!json.empty()) {
      std::ofstream out(json);
      if (!out) {
        std::cerr << "error: could not write " << json << "\n";
        return 1;
      }
      out << "{\n"
          << "  \"shards\": " << router.nshards() << ",\n"
          << "  \"forwarded\": " << st.forwarded << ",\n"
          << "  \"affinity\": " << st.affinity << ",\n"
          << "  \"spilled\": " << st.spilled << ",\n"
          << "  \"rejected_backpressure\": " << st.rejected_backpressure
          << ",\n"
          << "  \"session_frames\": " << st.session_frames << ",\n"
          << "  \"session_pinned\": " << st.session_pinned << ",\n"
          << "  \"responses\": " << st.responses << "\n"
          << "}\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "pfem_router: FAILED: " << e.what() << "\n";
    return 1;
  }
  std::cout << cfg.name << ": OK" << std::endl;
  return 0;
}
