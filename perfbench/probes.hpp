// Per-layer probes: direct, timed calls into each layer's public
// functions on a workload's own inputs, plus the wire client loop the
// socket workloads share.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/edd_batch.hpp"
#include "fem/problems.hpp"
#include "net/proto.hpp"
#include "partition/edd.hpp"
#include "workload.hpp"

namespace bench {

/// The workloads' polynomial: GLS(7) on the default spectrum estimate.
[[nodiscard]] pfem::core::PolySpec gls7();

/// STREAM triad a[i] = b[i] + s c[i] on nproc threads, each array four
/// times the last-level cache.  Returns GB/s (3 arrays x 8 B per entry).
[[nodiscard]] double triad_gbs(Report& r);

/// build_edd_operator timed on a fresh team (median of `reps`), and the
/// "build_coarse" span of one deflated build.  Returns the undeflated
/// state for the kernel and polynomial probes.
[[nodiscard]] pfem::core::EddOperatorState build_probe(
    const pfem::partition::EddPartition& part,
    const std::optional<pfem::core::DeflationOptions>& in_use,
    const pfem::core::DeflationOptions& coarse, LayerData& d);

/// RankKernel::apply per format on every rank's matrix, ranks on
/// parallel threads; GB/s from bytes computed from the array sizes.
void kernel_probe(const pfem::partition::EddPartition& part,
                  const pfem::core::EddOperatorState& op, LayerData& d);

/// GlsPolynomial::apply on rank 0's scaled matrix (ms per apply).
void poly_probe(const pfem::core::EddOperatorState& op, LayerData& d);

/// Table-1 counts by differencing solves capped at 3 and 4 iterations:
/// neighbor exchanges on rank 0 (Enhanced and Basic) and neighbor bytes
/// sent by all ranks, per Arnoldi iteration.  Exact by construction.
void count_probe(const pfem::partition::EddPartition& part,
                 std::span<const real_t> f, LayerData& d);

/// Real P=1 vs P=4 wall time of solve_edd on `prob`, and the error of
/// par::model_time against the P=4 time under a MachineModel fitted
/// here: gamma from the P=1 solve, alpha/beta from a Comm ping-pong,
/// the reduction alpha from allreduce_sum.
void model_probe(const pfem::fem::CantileverProblem& prob, LayerData& d);

/// net::proto encode+decode of one request/response pair.
void codec_probe(const pfem::net::proto::SolveRequestMsg& req,
                 const pfem::net::proto::SolveResponseMsg& resp,
                 LayerData& d);

/// One request over the wire, as seen by the client.
struct WireSample {
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  bool cache_hit = false;
  bool verified = false;
  int iterations = 0;
};

/// Makes the next request of client `c`; returns the RHS it carries.
using RequestMaker = std::function<void(
    int c, SeededStream& rng, pfem::net::proto::SolveRequestMsg& req)>;
/// Checks one completed response against its request.
using ResponseCheck = std::function<bool(
    const pfem::net::proto::SolveRequestMsg& req,
    const pfem::net::proto::SolveResponseMsg& resp)>;

/// Closed-loop svc::Client connections to `addr`, each blocking on its
/// reply, for `seconds` or `max_per_client` requests (whichever ends
/// first; <= 0 disables that limit).  Keeps the last pair for the codec
/// probe.
struct WireRun {
  Phase phase;
  std::vector<WireSample> samples;
  pfem::net::proto::SolveRequestMsg last_req;
  pfem::net::proto::SolveResponseMsg last_resp;
};
[[nodiscard]] WireRun drive_wire(const std::string& addr, int clients,
                                 double seconds, int max_per_client,
                                 std::uint64_t seed, const RequestMaker& make,
                                 const ResponseCheck& check);

/// Append the wire samples' router-hop times to the net view, and with
/// `svc_too` their shard-reported queue and solve times to the svc view.
void wire_views(const WireRun& w, LayerData& d, bool svc_too);

/// A Service + Server + single-shard Router in this process, driven by
/// one client for `requests` requests of `f` scaled by powers of two
/// (half of them on a session): the svc and wire layers measured on a
/// workload that otherwise bypasses them.
void inprocess_wire_probe(
    std::shared_ptr<const pfem::partition::EddPartition> part,
    const pfem::sparse::CsrMatrix& k, const Vector& f, int requests,
    const Args& a, LayerData& d, bool fill_svc);

/// Print every per-layer metric of BENCHMARK.json from `d`.
void print_layers(Report& r, const LayerData& d);

}  // namespace bench
