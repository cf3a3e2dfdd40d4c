// pfem::net tests — the transport seam and the service wire protocol.
//
// Four layers, each with its own contract:
//   1. frame.hpp / proto.hpp codecs: every malformed input (truncated,
//      bad magic/version/type, oversized, structurally broken body)
//      maps to a typed status — never UB, never an exception.
//   2. Transport parity: the SPMD runtime produces bit-identical
//      results over the in-process rings and the socket loopback —
//      including the full EDD batch solve, whose iteration and exchange
//      counts must not depend on the wire.
//   3. Multi-process: a team split across two processes' worth of
//      socket transports runs the wire collectives and reproduces the
//      in-process solve bit for bit — as two Teams in one process
//      (sanitizer-clean), and across two forked processes (skipped
//      under ASan/TSan: their runtimes do not survive fork+threads).
//   4. The remote service: Server/Client request/response (typed
//      rejections, deadline, solutions on request, malformed-frame
//      close) and the Router (cache affinity, spill, typed
//      backpressure shedding).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/edd_batch.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "net/frame.hpp"
#include "net/proto.hpp"
#include "net/socket_transport.hpp"
#include "net/sockets.hpp"
#include "net/spawn.hpp"
#include "net/transport.hpp"
#include "net/wait.hpp"
#include "par/comm.hpp"
#include "svc/remote.hpp"
#include "svc/service.hpp"

// Fork-based multi-process tests are incompatible with ASan/TSan: fork
// duplicates only the calling thread, and the sanitizer runtimes keep
// state owned by threads that no longer exist in the child.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PFEM_NO_FORK_TESTS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PFEM_NO_FORK_TESTS 1
#endif
#endif

namespace pfem {
namespace {

// ---------------------------------------------------------------------------
// 1. par wire frame (frame.hpp)
// ---------------------------------------------------------------------------

TEST(NetFrame, HeaderRoundTripsAllFields) {
  net::FrameHeader h;
  h.kind = static_cast<std::uint16_t>(net::FrameKind::Data);
  h.src = 3;
  h.dst = 1;
  h.tag = -101;  // reserved collective tags must survive as negatives
  h.seq = 0xdeadbeefcafeull;
  h.count = 77;
  net::ByteBuffer buf;
  net::encode_frame_header(buf, h);
  ASSERT_EQ(buf.size(), net::kFrameHeaderBytes);

  net::FrameHeader d;
  ASSERT_EQ(net::decode_frame_header(buf, d), net::FrameStatus::Ok);
  EXPECT_EQ(d.kind, h.kind);
  EXPECT_EQ(d.src, 3);
  EXPECT_EQ(d.dst, 1);
  EXPECT_EQ(d.tag, -101);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.count, 77u);
}

TEST(NetFrame, AbortKindRoundTrips) {
  net::FrameHeader h;
  h.kind = static_cast<std::uint16_t>(net::FrameKind::Abort);
  net::ByteBuffer buf;
  net::encode_frame_header(buf, h);
  net::FrameHeader d;
  ASSERT_EQ(net::decode_frame_header(buf, d), net::FrameStatus::Ok);
  EXPECT_EQ(d.kind, static_cast<std::uint16_t>(net::FrameKind::Abort));
}

TEST(NetFrame, EveryMalformedHeaderGetsItsTypedStatus) {
  net::FrameHeader good;
  net::ByteBuffer buf;
  net::encode_frame_header(buf, good);
  net::FrameHeader d;

  // Truncated: every strict prefix is typed, not UB.
  for (std::size_t n = 0; n < net::kFrameHeaderBytes; ++n)
    EXPECT_EQ(net::decode_frame_header(std::span(buf.data(), n), d),
              net::FrameStatus::Truncated)
        << "prefix of " << n << " bytes";

  auto mutate = [&](std::size_t offset, std::uint32_t value,
                    std::size_t nbytes) {
    net::ByteBuffer b = buf;
    for (std::size_t i = 0; i < nbytes; ++i)
      b[offset + i] = static_cast<unsigned char>((value >> (8 * i)) & 0xff);
    return b;
  };
  EXPECT_EQ(net::decode_frame_header(mutate(0, 0xdeadbeefu, 4), d),
            net::FrameStatus::BadMagic);
  EXPECT_EQ(net::decode_frame_header(mutate(4, 999, 2), d),
            net::FrameStatus::BadVersion);
  EXPECT_EQ(net::decode_frame_header(mutate(6, 0, 2), d),
            net::FrameStatus::BadKind);
  EXPECT_EQ(net::decode_frame_header(mutate(6, 99, 2), d),
            net::FrameStatus::BadKind);

  net::FrameHeader big;
  big.count = net::kMaxFrameDoubles + 1;
  net::ByteBuffer bb;
  net::encode_frame_header(bb, big);
  EXPECT_EQ(net::decode_frame_header(bb, d), net::FrameStatus::Oversized);
}

// ---------------------------------------------------------------------------
// 2. service protocol (proto.hpp)
// ---------------------------------------------------------------------------

namespace proto = net::proto;

/// Split one encoded frame into (validated header, body span).
proto::ProtoHeader split_frame(const net::ByteBuffer& frame,
                               std::span<const unsigned char>& body) {
  proto::ProtoHeader h;
  EXPECT_GE(frame.size(), proto::kProtoHeaderBytes);
  EXPECT_EQ(proto::decode_header(
                std::span(frame.data(), proto::kProtoHeaderBytes), h),
            proto::DecodeStatus::Ok);
  EXPECT_EQ(frame.size(), proto::kProtoHeaderBytes + h.body_len);
  body = std::span(frame.data() + proto::kProtoHeaderBytes,
                   static_cast<std::size_t>(h.body_len));
  return h;
}

TEST(NetProto, HelloAndAckRoundTrip) {
  net::ByteBuffer f;
  proto::encode_hello(f, proto::HelloMsg{"loadgen-7"});
  std::span<const unsigned char> body;
  proto::ProtoHeader h = split_frame(f, body);
  EXPECT_EQ(h.type, static_cast<std::uint16_t>(proto::MsgType::Hello));
  proto::HelloMsg m;
  ASSERT_EQ(proto::decode_hello(body, m), proto::DecodeStatus::Ok);
  EXPECT_EQ(m.client_name, "loadgen-7");

  net::ByteBuffer f2;
  proto::encode_hello_ack(f2, proto::HelloAckMsg{"shard0", 4});
  proto::ProtoHeader h2 = split_frame(f2, body);
  EXPECT_EQ(h2.type, static_cast<std::uint16_t>(proto::MsgType::HelloAck));
  proto::HelloAckMsg a;
  ASSERT_EQ(proto::decode_hello_ack(body, a), proto::DecodeStatus::Ok);
  EXPECT_EQ(a.server_name, "shard0");
  EXPECT_EQ(a.nranks, 4);
}

TEST(NetProto, SolveRequestRoundTripsEveryField) {
  proto::SolveRequestMsg m;
  m.req_id = 42;
  m.operator_key = "op3";
  m.session_id = 0xface5ull;
  m.priority = 1;
  m.deadline_ns = 2'500'000'000ull;
  m.seed = 0x5eedull;
  m.want_solution = true;
  m.restart = 30;
  m.max_iters = 500;
  m.tol = 1e-8;
  m.rhs = {{1.0, -2.5, 3.25}, {0.0, 4.125}};
  net::ByteBuffer f;
  proto::encode_solve_request(f, m);

  std::span<const unsigned char> body;
  proto::ProtoHeader h = split_frame(f, body);
  EXPECT_EQ(h.type, static_cast<std::uint16_t>(proto::MsgType::SolveRequest));
  proto::SolveRequestMsg d;
  ASSERT_EQ(proto::decode_solve_request(body, d), proto::DecodeStatus::Ok);
  EXPECT_EQ(d.req_id, 42u);
  EXPECT_EQ(d.operator_key, "op3");
  EXPECT_EQ(d.session_id, 0xface5ull);
  EXPECT_EQ(d.priority, 1u);
  EXPECT_EQ(d.deadline_ns, m.deadline_ns);
  EXPECT_EQ(d.seed, m.seed);
  EXPECT_TRUE(d.want_solution);
  EXPECT_EQ(d.restart, 30);
  EXPECT_EQ(d.max_iters, 500);
  EXPECT_EQ(d.tol, 1e-8);
  ASSERT_EQ(d.rhs, m.rhs);  // bitwise: doubles travel as raw LE bits
}

TEST(NetProto, SolveResponseRoundTripsEveryField) {
  proto::SolveResponseMsg m;
  m.req_id = 7;
  m.status = proto::SolveStatus::Completed;
  m.detail = "warm";
  m.cache_hit = true;
  m.comm = false;
  m.queue_seconds = 0.125;
  m.solve_seconds = 2.75;
  m.items = {{true, false, 43, 3.5e-7}, {false, true, 12, 0.5}};
  m.solution = {{9.0, -8.0}};
  net::ByteBuffer f;
  proto::encode_solve_response(f, m);

  std::span<const unsigned char> body;
  proto::ProtoHeader h = split_frame(f, body);
  EXPECT_EQ(h.type, static_cast<std::uint16_t>(proto::MsgType::SolveResponse));
  proto::SolveResponseMsg d;
  ASSERT_EQ(proto::decode_solve_response(body, d), proto::DecodeStatus::Ok);
  EXPECT_EQ(d.req_id, 7u);
  EXPECT_EQ(d.status, proto::SolveStatus::Completed);
  EXPECT_EQ(d.detail, "warm");
  EXPECT_TRUE(d.cache_hit);
  EXPECT_FALSE(d.comm);
  EXPECT_EQ(d.queue_seconds, 0.125);
  EXPECT_EQ(d.solve_seconds, 2.75);
  ASSERT_EQ(d.items.size(), 2u);
  EXPECT_TRUE(d.items[0].converged);
  EXPECT_FALSE(d.items[0].breakdown);
  EXPECT_EQ(d.items[0].iterations, 43);
  EXPECT_EQ(d.items[0].final_relres, 3.5e-7);
  EXPECT_FALSE(d.items[1].converged);
  EXPECT_TRUE(d.items[1].breakdown);
  ASSERT_EQ(d.solution, m.solution);
}

TEST(NetProto, ReqIdSitsAtTheFixedRouterOffset) {
  // The router rewrites req_id in place at body offset 0; this is the
  // wire-compat assertion that protects that trick against reordering.
  proto::SolveRequestMsg m;
  m.req_id = 0x1122334455667788ull;
  m.operator_key = "k";
  m.rhs = {{1.0}};
  net::ByteBuffer f;
  proto::encode_solve_request(f, m);
  std::uint64_t wire = 0;
  std::memcpy(&wire, f.data() + proto::kProtoHeaderBytes, 8);
  EXPECT_EQ(wire, m.req_id);

  proto::SolveResponseMsg r;
  r.req_id = 0x99aabbccddeeff00ull;
  net::ByteBuffer f2;
  proto::encode_solve_response(f2, r);
  std::memcpy(&wire, f2.data() + proto::kProtoHeaderBytes, 8);
  EXPECT_EQ(wire, r.req_id);
}

TEST(NetProto, MalformedHeadersGetTypedStatuses) {
  net::ByteBuffer f;
  proto::encode_hello(f, proto::HelloMsg{"x"});
  proto::ProtoHeader h;

  for (std::size_t n = 0; n < proto::kProtoHeaderBytes; ++n)
    EXPECT_EQ(proto::decode_header(std::span(f.data(), n), h),
              proto::DecodeStatus::Truncated);

  auto corrupt = [&](std::size_t off, std::uint64_t v, std::size_t nbytes) {
    net::ByteBuffer b = f;
    for (std::size_t i = 0; i < nbytes; ++i)
      b[off + i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
    return b;
  };
  auto head = [&](const net::ByteBuffer& b) {
    return std::span(b.data(), proto::kProtoHeaderBytes);
  };
  EXPECT_EQ(proto::decode_header(head(corrupt(0, 0xdeadbeefu, 4)), h),
            proto::DecodeStatus::BadMagic);
  EXPECT_EQ(proto::decode_header(head(corrupt(4, 2, 2)), h),
            proto::DecodeStatus::BadVersion);
  EXPECT_EQ(proto::decode_header(head(corrupt(6, 0, 2)), h),
            proto::DecodeStatus::BadType);
  EXPECT_EQ(proto::decode_header(head(corrupt(6, 99, 2)), h),
            proto::DecodeStatus::BadType);
  EXPECT_EQ(
      proto::decode_header(head(corrupt(8, proto::kMaxBodyBytes + 1, 8)), h),
      proto::DecodeStatus::Oversized);
}

TEST(NetProto, TruncatedBodiesAreBadBodyNeverUB) {
  proto::SolveRequestMsg m;
  m.req_id = 5;
  m.operator_key = "op0";
  m.rhs = {{1.0, 2.0, 3.0}};
  net::ByteBuffer f;
  proto::encode_solve_request(f, m);
  const auto* body = f.data() + proto::kProtoHeaderBytes;
  const std::size_t body_len = f.size() - proto::kProtoHeaderBytes;

  proto::SolveRequestMsg d;
  for (std::size_t n = 0; n < body_len; ++n)
    EXPECT_EQ(proto::decode_solve_request(std::span(body, n), d),
              proto::DecodeStatus::BadBody)
        << "body prefix of " << n << " bytes";

  // Trailing garbage after a well-formed body is also structural error.
  net::ByteBuffer longer(body, body + body_len);
  longer.push_back(0xab);
  EXPECT_EQ(proto::decode_solve_request(longer, d),
            proto::DecodeStatus::BadBody);
}

TEST(NetProto, LyingCountFieldsAreOversizedNotAllocated) {
  // A body whose string length claims more than the cap: the decoder
  // must reject on the count, not trust it and allocate/overread.
  net::ByteBuffer body;
  net::put_u64(body, 1);                   // req_id
  net::put_u32(body, (1u << 16) + 1);      // operator_key length over cap
  proto::SolveRequestMsg d;
  EXPECT_EQ(proto::decode_solve_request(body, d),
            proto::DecodeStatus::Oversized);

  // Vector-count lie: claims 2^40 RHS vectors in a tiny body.
  net::ByteBuffer b2;
  net::put_u64(b2, 1);          // req_id
  net::put_u32(b2, 1);          // key length
  b2.push_back('k');
  net::put_u64(b2, 0);          // session_id
  net::put_u32(b2, 0);          // priority
  net::put_u64(b2, 0);          // deadline
  net::put_u64(b2, 0);          // seed
  b2.push_back(0);              // want_solution
  net::put_i32(b2, 25);
  net::put_i32(b2, 100);
  net::put_f64(b2, 1e-6);
  net::put_u64(b2, 1ull << 40);  // rhs count lie
  EXPECT_EQ(proto::decode_solve_request(b2, d),
            proto::DecodeStatus::Oversized);
}

// ---------------------------------------------------------------------------
// 3. transport contract, exercised directly
// ---------------------------------------------------------------------------

struct CaptureSink : net::MsgSink {
  Vector data;
  void deliver(Vector& owned, std::span<const real_t> d) override {
    data = std::move(owned);
    data.resize(d.size());
  }
};

class TransportContract
    : public ::testing::TestWithParam<const char*> {
 protected:
  static std::shared_ptr<net::Transport> make(int n) {
    const std::string which = GetParam();
    if (which == "inproc") return net::make_inproc_transport(n);
    return net::make_socket_loopback_transport(n);
  }
};

TEST_P(TransportContract, PushTakePreservesPayloadAndTagFifo) {
  auto t = make(2);
  net::WaitStats ws;
  const Vector a{1.0, 2.5, -3.0};
  const Vector b{7.0};
  const Vector c{9.0, 10.0};
  t->push(0, 1, /*tag=*/5, a, false, ws);
  t->push(0, 1, /*tag=*/9, b, false, ws);
  t->push(0, 1, /*tag=*/5, c, false, ws);

  CaptureSink s;
  t->take(1, 0, 9, s, ws);  // skips (stashes) the older tag-5 message
  EXPECT_EQ(s.data, b);
  t->take(1, 0, 5, s, ws);  // stashed message comes back first: FIFO per tag
  EXPECT_EQ(s.data, a);
  t->take(1, 0, 5, s, ws);
  EXPECT_EQ(s.data, c);
}

TEST_P(TransportContract, DroppedMessageSurfacesAsTypedLoss) {
  auto t = make(2);
  net::WaitStats ws;
  t->push(0, 1, 3, Vector{1.0}, false, ws);
  t->mark_dropped(0, 1);            // injected Drop consumes a wire seq
  t->push(0, 1, 3, Vector{2.0}, false, ws);

  CaptureSink s;
  t->take(1, 0, 3, s, ws);          // first message is intact
  EXPECT_EQ(s.data, Vector{1.0});
  try {
    t->take(1, 0, 3, s, ws);        // the gap must fail typed, not shift
    FAIL() << "sequence gap was silently consumed";
  } catch (const par::CommError& e) {
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Lost);
  }
}

TEST_P(TransportContract, WireDuplicateIsAbsorbed) {
  auto t = make(2);
  net::WaitStats ws;
  t->push(0, 1, 1, Vector{5.0}, false, ws);
  t->push(0, 1, 1, Vector{5.0}, /*wire_dup=*/true, ws);  // injected dup
  t->push(0, 1, 1, Vector{6.0}, false, ws);

  CaptureSink s;
  t->take(1, 0, 1, s, ws);
  EXPECT_EQ(s.data, Vector{5.0});
  t->take(1, 0, 1, s, ws);  // duplicate absorbed: next delivery is 6.0
  EXPECT_EQ(s.data, Vector{6.0});
}

TEST_P(TransportContract, AbortUnwindsBlockedTake) {
  auto t = make(2);
  t->abort();
  EXPECT_TRUE(t->is_aborted());
  CaptureSink s;
  net::WaitStats ws;
  EXPECT_THROW(t->take(1, 0, 0, s, ws), net::Aborted);
}

/// Release points of a blocked take: while the receiver still spins,
/// after its spin has run out (it is yielding), and after it has parked.
const std::chrono::microseconds kReleaseDelays[] = {
    std::chrono::microseconds(0),
    std::chrono::duration_cast<std::chrono::microseconds>(
        net::detail::kYieldUntil / 2),
    std::chrono::microseconds(2000)};

/// Busy-wait `d`: sleep_for would add the timer slack (about 50 µs)
/// and overshoot the yield phase.
void hold_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// Run take(1 <- 0, tag) on its own thread.  `started` goes up just
/// before the take; `err` stays empty when it delivered into `sink`.
std::thread take_async(net::Transport& t, int tag, CaptureSink& sink,
                       std::atomic<bool>& started, std::exception_ptr& err) {
  return std::thread([&t, tag, &sink, &started, &err] {
    started.store(true);
    try {
      t.take(1, 0, tag, sink, net::WaitStats{});
    } catch (...) {
      err = std::current_exception();
    }
  });
}

TEST_P(TransportContract, TakeReleasedAtEveryWaitPhaseGetsItsMessage) {
  auto t = make(2);
  real_t k = 0.0;
  for (const auto delay : kReleaseDelays) {
    SCOPED_TRACE(delay.count());
    const Vector msg{k, 0.5};
    k += 1.0;
    CaptureSink s;
    std::atomic<bool> started{false};
    std::exception_ptr err;
    std::thread receiver = take_async(*t, 4, s, started, err);
    while (!started.load()) {
    }
    hold_for(delay);
    t->push(0, 1, 4, msg, false, net::WaitStats{});
    receiver.join();
    EXPECT_FALSE(err);
    EXPECT_EQ(s.data, msg);
  }
}

TEST_P(TransportContract, AbortWakesAParkedTake) {
  auto t = make(2);
  CaptureSink s;
  std::atomic<bool> started{false};
  std::exception_ptr err;
  std::thread receiver = take_async(*t, 0, s, started, err);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t->abort();
  receiver.join();
  ASSERT_TRUE(err);
  EXPECT_THROW(std::rethrow_exception(err), net::Aborted);
}

TEST_P(TransportContract, ArmedTimeoutEndsAWaitWithTypedTimeout) {
  auto t = make(2);
  t->set_timeout(0.02);
  CaptureSink s;
  std::uint64_t timeouts = 0;
  try {
    t->take(1, 0, 0, s, net::WaitStats{nullptr, &timeouts});
    FAIL() << "expected par::CommError";
  } catch (const par::CommError& e) {
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Timeout);
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
  }
  EXPECT_EQ(timeouts, 1u);
}

TEST_P(TransportContract, LoopbackTopologyReportsSingleProcess) {
  auto t = make(3);
  EXPECT_EQ(t->nranks(), 3);
  EXPECT_EQ(t->rank_base(), 0);
  EXPECT_EQ(t->local_ranks(), 3);
  // Loopback = all ranks here, so collectives may stay on the
  // in-process reduction cells; this is what keeps counters comparable.
  EXPECT_FALSE(t->multi_process());
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportContract,
                         ::testing::Values("inproc", "socket"));

// ---------------------------------------------------------------------------
// 4. SPMD + solve parity across transports
// ---------------------------------------------------------------------------

using TransportFactory =
    std::function<std::shared_ptr<net::Transport>(int)>;

/// A small SPMD job mixing tagged p2p (with a deliberate stash) and
/// collectives; returns per-rank digests that must be bitwise equal on
/// every transport.
std::vector<real_t> spmd_digest(const TransportFactory& factory, int n) {
  par::TeamConfig tc;
  tc.nranks = n;
  if (factory) tc.transport = factory(n);
  par::Team team(tc);
  std::vector<real_t> digest(static_cast<std::size_t>(n), 0.0);
  team.run([&](par::Comm& c) {
    const int r = c.rank();
    const int next = (r + 1) % n;
    const int prev = (r + n - 1) % n;
    Vector big(17, 0.0);
    for (std::size_t i = 0; i < big.size(); ++i)
      big[i] = 0.25 * static_cast<real_t>(r + 1) + static_cast<real_t>(i);
    c.send(next, /*tag=*/5, big);
    c.send(next, /*tag=*/9, Vector{static_cast<real_t>(r) * 3.5});
    Vector got9;
    c.recv(prev, 9, got9);  // newer tag first: forces a stash of tag 5
    Vector got5;
    c.recv(prev, 5, got5);
    real_t acc = got9.at(0);
    for (const real_t v : got5) acc += v;
    acc += c.allreduce_sum(static_cast<real_t>(r + 1) * 0.125);
    acc += c.allreduce_max(static_cast<real_t>((r * 7) % n));
    digest[static_cast<std::size_t>(r)] = acc;
  });
  return digest;
}

TEST(NetParity, SpmdJobIsBitIdenticalAcrossTransports) {
  for (const int n : {2, 4, 5}) {  // 5: non-power-of-two tournament tree
    const std::vector<real_t> ref = spmd_digest({}, n);
    const std::vector<real_t> sock = spmd_digest(
        [](int k) { return net::make_socket_loopback_transport(k); }, n);
    EXPECT_EQ(ref, sock) << "socket loopback diverged at n=" << n;
  }
}

struct SolveScene {
  fem::CantileverProblem prob;
  std::shared_ptr<const partition::EddPartition> part;
  core::PolySpec poly;
};

SolveScene make_scene(int nparts) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 4;
  fem::CantileverProblem prob = fem::make_cantilever(spec);
  auto part = std::make_shared<const partition::EddPartition>(
      exp::make_edd(prob, nparts));
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 4;
  return SolveScene{std::move(prob), std::move(part), poly};
}

struct SolveDigest {
  bool converged = false;
  std::int64_t iterations = 0;
  std::uint64_t relres_bits = 0;  ///< final_relres, compared bitwise
  std::vector<std::uint64_t> exchanges;  ///< per rank
  std::vector<std::uint64_t> reductions;  ///< per rank
  Vector x;
};

SolveDigest run_solve(const SolveScene& s,
                      std::shared_ptr<net::Transport> transport, int n) {
  par::TeamConfig tc;
  tc.nranks = n;
  tc.transport = std::move(transport);
  par::Team team(tc);
  const core::EddOperatorState op =
      core::build_edd_operator(team, *s.part, s.poly);
  const std::vector<Vector> rhs{s.prob.load};
  const core::BatchSolveResult r =
      core::solve_edd_batch(team, *s.part, op, rhs);
  SolveDigest d;
  EXPECT_FALSE(r.comm_failed()) << r.comm_error;
  if (r.comm_failed()) return d;
  d.converged = r.items.at(0).converged;
  d.iterations = r.items.at(0).iterations;
  std::memcpy(&d.relres_bits, &r.items.at(0).final_relres, 8);
  for (const par::PerfCounters& c : r.rank_counters) {
    d.exchanges.push_back(c.neighbor_exchanges);
    d.reductions.push_back(c.global_reductions);
  }
  if (!r.x.empty()) d.x = r.x.at(0);
  return d;
}

TEST(NetParity, EddBatchSolveIsBitIdenticalAcrossTransports) {
  const int n = 4;
  const SolveScene s = make_scene(n);
  const SolveDigest ref = run_solve(s, nullptr, n);
  ASSERT_TRUE(ref.converged);
  const SolveDigest got =
      run_solve(s, net::make_socket_loopback_transport(n), n);
  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.relres_bits, ref.relres_bits);
  EXPECT_EQ(got.exchanges, ref.exchanges);
  EXPECT_EQ(got.x, ref.x);  // bitwise, not approx
}

// ---------------------------------------------------------------------------
// 5. multi-process teams: the wire collectives in one process, then forked
// ---------------------------------------------------------------------------

TEST(NetMultiProcess, SocketTwoTeamsInOneProcessMatchInProcessBitForBit) {
  // Two Teams, each hosting half the ranks over its end of one
  // socketpair, run the wire tournament tree and barrier from two
  // threads of this process — no fork, so the sanitizer jobs run it.
  const int n = 4;
  const SolveScene s = make_scene(n);
  const SolveDigest ref = run_solve(s, nullptr, n);
  ASSERT_TRUE(ref.converged);

  const std::array<int, 2> pair = net::stream_pair();
  std::array<SolveDigest, 2> half;
  std::array<std::thread, 2> procs;
  for (int p = 0; p < 2; ++p) {
    net::SocketTransportConfig cfg;
    cfg.ranks_per_proc = {2, 2};
    cfg.my_proc = p;
    cfg.fds = p == 0 ? std::vector<int>{-1, pair[0]}
                     : std::vector<int>{pair[1], -1};
    procs[static_cast<std::size_t>(p)] = std::thread(
        [&s, &half, p, t = net::make_socket_transport(cfg)]() mutable {
          half[static_cast<std::size_t>(p)] = run_solve(s, std::move(t), n);
        });
  }
  for (std::thread& t : procs) t.join();

  // A global dof of x comes from the first subdomain holding it, so the
  // half hosting that subdomain must reproduce it.
  std::vector<std::size_t> first(ref.x.size(), s.part->subs.size());
  for (std::size_t q = 0; q < s.part->subs.size(); ++q)
    for (const auto g : s.part->subs[q].local_to_global)
      first[static_cast<std::size_t>(g)] =
          std::min(first[static_cast<std::size_t>(g)], q);
  for (std::size_t p = 0; p < 2; ++p) {
    SCOPED_TRACE(p);
    const SolveDigest& d = half[p];
    EXPECT_TRUE(d.converged);
    EXPECT_EQ(d.iterations, ref.iterations);
    EXPECT_EQ(d.relres_bits, ref.relres_bits);
    ASSERT_EQ(d.exchanges.size(), 4u);
    for (std::size_t r = 2 * p; r < 2 * p + 2; ++r) {
      EXPECT_EQ(d.exchanges[r], ref.exchanges[r]) << "rank " << r;
      EXPECT_EQ(d.reductions[r], ref.reductions[r]) << "rank " << r;
    }
    ASSERT_EQ(d.x.size(), ref.x.size());
    for (std::size_t g = 0; g < ref.x.size(); ++g) {
      if (first[g] / 2 != p) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.x[g]),
                std::bit_cast<std::uint64_t>(ref.x[g]))
          << "dof " << g;
    }
  }
}

#ifndef PFEM_NO_FORK_TESTS
/// Plain pipe I/O (sockets.hpp's read_full/write_full are
/// socket-only: recv/send fail with ENOTSOCK on a pipe fd).
bool pipe_write(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool pipe_read(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Fixed-size digest a forked child reports through a pipe.
struct ChildReport {
  std::int64_t iterations = 0;
  std::uint64_t relres_bits = 0;
  std::int32_t converged = 0;
  std::int32_t pad = 0;
  std::uint64_t exchanges[2] = {0, 0};  ///< child-hosted ranks (2, 3)
};

void expect_matches_reference(const SolveDigest& ref, const SolveDigest& mine,
                              const ChildReport& child) {
  // Convergence reports are written by each process's local leader from
  // allreduced data, so both processes (and the reference) must agree
  // bit for bit; exchange counters are per-rank and compared where the
  // rank actually ran.
  EXPECT_TRUE(mine.converged);
  EXPECT_EQ(mine.iterations, ref.iterations);
  EXPECT_EQ(mine.relres_bits, ref.relres_bits);
  EXPECT_NE(child.converged, 0);
  EXPECT_EQ(child.iterations, ref.iterations);
  EXPECT_EQ(child.relres_bits, ref.relres_bits);
  ASSERT_EQ(ref.exchanges.size(), 4u);
  EXPECT_EQ(mine.exchanges.at(0), ref.exchanges.at(0));
  EXPECT_EQ(mine.exchanges.at(1), ref.exchanges.at(1));
  EXPECT_EQ(child.exchanges[0], ref.exchanges.at(2));
  EXPECT_EQ(child.exchanges[1], ref.exchanges.at(3));
}
#endif  // PFEM_NO_FORK_TESTS

TEST(NetMultiProcess, SocketTwoProcessSolveMatchesInProcessBitForBit) {
#ifdef PFEM_NO_FORK_TESTS
  GTEST_SKIP() << "fork-based multi-process test skipped under sanitizers";
#else
  const int n = 4;
  const SolveScene s = make_scene(n);
  const SolveDigest ref = run_solve(s, nullptr, n);
  ASSERT_TRUE(ref.converged);

  const std::array<int, 2> pair = net::stream_pair();
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);

  const pid_t pid = net::fork_run([&]() -> int {
    net::close_fd(pair[0]);
    ::close(pipefd[0]);
    net::SocketTransportConfig cfg;
    cfg.ranks_per_proc = {2, 2};
    cfg.my_proc = 1;
    cfg.fds = {pair[1], -1};
    const SolveScene cs = make_scene(n);  // deterministic: same scene
    const SolveDigest d =
        run_solve(cs, net::make_socket_transport(cfg), n);
    ChildReport rep;
    rep.iterations = d.iterations;
    rep.relres_bits = d.relres_bits;
    rep.converged = d.converged ? 1 : 0;
    rep.exchanges[0] = d.exchanges.at(2);
    rep.exchanges[1] = d.exchanges.at(3);
    const bool ok = pipe_write(pipefd[1], &rep, sizeof rep);
    ::close(pipefd[1]);
    return ok && d.converged ? 0 : 1;
  });

  net::close_fd(pair[1]);
  ::close(pipefd[1]);
  net::SocketTransportConfig cfg;
  cfg.ranks_per_proc = {2, 2};
  cfg.my_proc = 0;
  cfg.fds = {-1, pair[0]};
  const SolveDigest mine = run_solve(s, net::make_socket_transport(cfg), n);

  ChildReport child;
  ASSERT_TRUE(pipe_read(pipefd[0], &child, sizeof child));
  ::close(pipefd[0]);
  EXPECT_EQ(net::wait_exit(pid), 0);
  expect_matches_reference(ref, mine, child);
#endif
}

// ---------------------------------------------------------------------------
// 6. remote service: Server / Client / Router
// ---------------------------------------------------------------------------

std::string unique_sock(const char* stem) {
  return "unix:/tmp/pfem_test_" + std::string(stem) + "_" +
         std::to_string(::getpid()) + ".sock";
}

struct RemoteRig {
  SolveScene scene;
  std::unique_ptr<svc::Service> service;
  std::unique_ptr<svc::Server> server;
  std::string addr;

  explicit RemoteRig(const char* stem, int nranks = 2) : scene(make_scene(nranks)) {
    svc::ServiceConfig cfg;
    cfg.nranks = nranks;
    service = std::make_unique<svc::Service>(cfg);
    service->register_operator("op0", scene.part, scene.poly);
    addr = unique_sock(stem);
    server = std::make_unique<svc::Server>(*service, addr, "test-shard");
  }

  ~RemoteRig() {
    // Resolve outstanding futures before the harvesters are joined.
    if (service) service->shutdown(/*drain=*/true);
    if (server) server->stop();
  }
};

proto::SolveRequestMsg basic_request(const RemoteRig& rig) {
  proto::SolveRequestMsg req;
  req.operator_key = "op0";
  req.rhs = {rig.scene.prob.load};
  return req;
}

TEST(NetRemote, HandshakeAdvertisesNameAndTeamSize) {
  RemoteRig rig("hs");
  svc::Client client(rig.addr, "t");
  EXPECT_EQ(client.server_name(), "test-shard");
  EXPECT_EQ(client.server_nranks(), 2);
}

TEST(NetRemote, SolveOverTheWireMatchesLocalSubmitBitForBit) {
  RemoteRig rig("solve");

  // Local reference through the same service (also warms the cache).
  svc::SolveRequest local;
  local.operator_key = "op0";
  local.rhs = {rig.scene.prob.load};
  auto sub = rig.service->submit(std::move(local));
  const svc::Outcome out = sub.outcome.get();
  const auto* done = std::get_if<svc::Completed>(&out);
  ASSERT_NE(done, nullptr);

  svc::Client client(rig.addr, "t");
  proto::SolveRequestMsg req = basic_request(rig);
  req.want_solution = true;
  proto::SolveResponseMsg resp;
  ASSERT_TRUE(client.solve(req, resp));
  EXPECT_EQ(resp.status, proto::SolveStatus::Completed);
  EXPECT_TRUE(resp.cache_hit);  // the local solve built the operator
  ASSERT_EQ(resp.items.size(), 1u);
  EXPECT_TRUE(resp.items[0].converged);
  EXPECT_EQ(resp.items[0].iterations, done->result.items.at(0).iterations);
  EXPECT_EQ(resp.items[0].final_relres,
            done->result.items.at(0).final_relres);
  ASSERT_EQ(resp.solution.size(), 1u);
  EXPECT_EQ(resp.solution[0], done->result.x.at(0));  // bitwise

  // Without want_solution the payload stays off the wire.
  proto::SolveRequestMsg req2 = basic_request(rig);
  proto::SolveResponseMsg resp2;
  ASSERT_TRUE(client.solve(req2, resp2));
  EXPECT_EQ(resp2.status, proto::SolveStatus::Completed);
  EXPECT_TRUE(resp2.solution.empty());
}

TEST(NetRemote, UnknownOperatorIsTypedRejection) {
  RemoteRig rig("unknown");
  svc::Client client(rig.addr, "t");
  proto::SolveRequestMsg req = basic_request(rig);
  req.operator_key = "no-such-operator";
  proto::SolveResponseMsg resp;
  ASSERT_TRUE(client.solve(req, resp));
  EXPECT_EQ(resp.status, proto::SolveStatus::Rejected);
  EXPECT_EQ(resp.reject_reason,
            static_cast<std::uint32_t>(svc::RejectReason::UnknownOperator));
}

TEST(NetRemote, ExpiredRelativeDeadlineIsTypedRejection) {
  RemoteRig rig("deadline");
  svc::Client client(rig.addr, "t");
  proto::SolveRequestMsg req = basic_request(rig);
  req.deadline_ns = 1;  // re-anchored on the server clock; expired at once
  proto::SolveResponseMsg resp;
  ASSERT_TRUE(client.solve(req, resp));
  EXPECT_EQ(resp.status, proto::SolveStatus::Rejected);
  EXPECT_EQ(resp.reject_reason,
            static_cast<std::uint32_t>(svc::RejectReason::DeadlineExceeded));
}

TEST(NetRemote, InvalidSolveInputIsTypedRejection) {
  // The service's admission check answers over the wire: a bad tol or a
  // non-finite RHS entry comes back Rejected{BadRequest} with the
  // solvers' own message, not as a Failed solve.
  RemoteRig rig("badinput");
  svc::Client client(rig.addr, "t");
  proto::SolveRequestMsg bad_tol = basic_request(rig);
  bad_tol.tol = -1.0;
  proto::SolveRequestMsg nan_rhs = basic_request(rig);
  nan_rhs.rhs[0][1] = std::numeric_limits<real_t>::quiet_NaN();
  for (proto::SolveRequestMsg req : {bad_tol, nan_rhs}) {
    core::SolveOptions opts;
    opts.tol = req.tol;
    const std::string msg = core::solve_input_error(opts, req.rhs[0]);
    ASSERT_FALSE(msg.empty());
    proto::SolveResponseMsg resp;
    ASSERT_TRUE(client.solve(req, resp));
    EXPECT_EQ(resp.status, proto::SolveStatus::Rejected) << msg;
    EXPECT_EQ(resp.reject_reason,
              static_cast<std::uint32_t>(svc::RejectReason::BadRequest));
    EXPECT_EQ(resp.detail, msg);
  }
}

TEST(NetRemote, MalformedFrameClosesConnectionWithTypedCount) {
  RemoteRig rig("malformed");
  const int fd = net::connect_to(rig.addr);

  net::ByteBuffer hello;
  proto::encode_hello(hello, proto::HelloMsg{"fuzz"});
  ASSERT_TRUE(net::write_full(fd, hello.data(), hello.size()));
  unsigned char ackbuf[proto::kProtoHeaderBytes];
  ASSERT_TRUE(net::read_full(fd, ackbuf, sizeof ackbuf));
  proto::ProtoHeader ack;
  ASSERT_EQ(proto::decode_header(ackbuf, ack), proto::DecodeStatus::Ok);
  std::vector<unsigned char> ackbody(static_cast<std::size_t>(ack.body_len));
  ASSERT_TRUE(net::read_full(fd, ackbody.data(), ackbody.size()));

  // Now a frame with a corrupt magic: the server must close, not crash.
  net::ByteBuffer bad;
  net::put_u32(bad, 0xdeadbeefu);
  net::put_u16(bad, proto::kProtoVersion);
  net::put_u16(bad, static_cast<std::uint16_t>(proto::MsgType::SolveRequest));
  net::put_u64(bad, 0);
  ASSERT_TRUE(net::write_full(fd, bad.data(), bad.size()));

  unsigned char byte;
  EXPECT_FALSE(net::read_full(fd, &byte, 1));  // orderly close, no payload
  net::close_fd(fd);

  // The close is counted as a typed malformed-frame event.
  for (int i = 0; i < 100 && rig.server->stats().malformed == 0; ++i)
    ::usleep(10 * 1000);
  EXPECT_EQ(rig.server->stats().malformed, 1u);
}

/// Number of fds this process has open.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

TEST(NetRemote, EndedConnectionsReleaseTheirFds) {
  // A long-running shard or router keeps no fd for the clients it has
  // served: each ended connection closes its own.
  RemoteRig shard("fds_s");
  svc::RouterConfig rc;
  rc.listen_addr = unique_sock("fds_r");
  rc.shard_addrs = {shard.addr};
  svc::Router router(rc);
  const std::size_t before = open_fds();
  for (const std::string& addr : {shard.addr, rc.listen_addr})
    for (int i = 0; i < 100; ++i) {
      svc::Client client(addr, "t");
    }
  std::size_t after = open_fds();
  for (int i = 0; i < 100 && after > before + 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = open_fds();
  }
  EXPECT_LE(after, before + 8) << "fds open before the clients: " << before;
  router.stop();
}

TEST(NetRemote, HandshakeWithAPeerThatNeverAcceptsFailsTyped) {
  // connect() succeeds on the listen backlog, so a peer that never
  // accepts (a shard whose fd table is full) must fail the handshake
  // typed within the connect timeout, not block the constructor.
  const auto fails_typed_in_time =
      [](const char* stem,
         const std::function<void(const std::string&)>& construct) {
        const std::string addr = unique_sock(stem);
        const int lfd = net::listen_on(addr);
        const auto t0 = std::chrono::steady_clock::now();
        auto typed = std::async(std::launch::async, [&] {
          try {
            construct(addr);
          } catch (const Error&) {
            return true;
          }
          return false;
        });
        const bool returned = typed.wait_for(std::chrono::seconds(3)) ==
                              std::future_status::ready;
        net::close_fd(lfd);  // ends a read still blocked on the backlog
        const bool ok = typed.get() && returned &&
                        std::chrono::steady_clock::now() - t0 <
                            std::chrono::seconds(2);
        ::unlink(addr.c_str() + 5);
        return ok;
      };
  EXPECT_TRUE(fails_typed_in_time("noaccept_c", [](const std::string& addr) {
    svc::Client client(addr, "t", 0.3);
  }));
  EXPECT_TRUE(fails_typed_in_time("noaccept_s", [](const std::string& addr) {
    svc::RouterConfig rc;
    rc.listen_addr = unique_sock("noaccept_r");
    rc.shard_addrs = {addr};
    rc.connect_timeout_seconds = 0.3;
    svc::Router router(rc);
  }));
}

TEST(NetRemote, HandshakeWithAPeerThatStallsMidHelloAckFailsTyped) {
  // A peer that accepts, writes all but the last byte of a valid
  // HelloAck and stalls must fail the handshake typed within the
  // connect timeout: the whole HelloAck read is bounded, not only the
  // wait for its first byte.
  const auto fails_typed_in_time =
      [](const char* stem,
         const std::function<void(const std::string&)>& construct) {
        const std::string addr = unique_sock(stem);
        const int lfd = net::listen_on(addr);
        std::atomic<int> conn{-1};
        std::thread peer([&] {
          const int fd = net::accept_conn(lfd);
          if (fd < 0) return;
          net::ByteBuffer ack;
          proto::encode_hello_ack(ack, {"stall", 2});
          (void)net::write_full(fd, ack.data(), ack.size() - 1);
          conn.store(fd);
        });
        const auto t0 = std::chrono::steady_clock::now();
        auto typed = std::async(std::launch::async, [&] {
          try {
            construct(addr);
          } catch (const Error&) {
            return true;
          }
          return false;
        });
        const bool returned = typed.wait_for(std::chrono::seconds(3)) ==
                              std::future_status::ready;
        // Unblock whatever still waits: the peer's accept, and a
        // handshake read still blocked on the missing byte.
        net::shutdown_fd(lfd);
        peer.join();
        if (conn.load() >= 0) net::close_fd(conn.load());
        const bool ok = typed.get() && returned &&
                        std::chrono::steady_clock::now() - t0 <
                            std::chrono::seconds(2);
        net::close_fd(lfd);
        ::unlink(addr.c_str() + 5);
        return ok;
      };
  EXPECT_TRUE(fails_typed_in_time("stall_c", [](const std::string& addr) {
    svc::Client client(addr, "t", 0.3);
  }));
  EXPECT_TRUE(fails_typed_in_time("stall_s", [](const std::string& addr) {
    svc::RouterConfig rc;
    rc.listen_addr = unique_sock("stall_r");
    rc.shard_addrs = {addr};
    rc.connect_timeout_seconds = 0.3;
    svc::Router router(rc);
  }));
}

TEST(NetRemote, SolveWithADeadlineGivesUpOnAPeerThatNeverAnswers) {
  // A peer that completes the handshake, reads the request and never
  // answers: a solve with a 200 ms deadline gives up by the deadline
  // plus the 0.3 s connect timeout and closes the connection, so the
  // next call fails at once.
  const std::string addr = unique_sock("mute");
  const int lfd = net::listen_on(addr);
  std::atomic<int> conn{-1};
  std::thread peer([&] {
    const int fd = net::accept_conn(lfd);
    if (fd < 0) return;
    conn.store(fd);
    const auto read_frame = [fd] {
      unsigned char hdr[proto::kProtoHeaderBytes];
      proto::ProtoHeader h;
      if (!net::read_full(fd, hdr, sizeof hdr) ||
          proto::decode_header(hdr, h) != proto::DecodeStatus::Ok)
        return false;
      std::vector<unsigned char> body(static_cast<std::size_t>(h.body_len));
      return net::read_full(fd, body.data(), body.size());
    };
    if (!read_frame()) return;  // Hello
    net::ByteBuffer ack;
    proto::encode_hello_ack(ack, {"mute", 2});
    if (!net::write_full(fd, ack.data(), ack.size())) return;
    (void)read_frame();  // the request, never answered
  });
  {
    svc::Client client(addr, "t", 0.3);
    proto::SolveRequestMsg req;
    req.operator_key = "op0";
    req.rhs = {Vector(8, 1.0)};
    req.deadline_ns = 200'000'000;
    proto::SolveResponseMsg resp;
    auto first = std::async(std::launch::async,
                            [&] { return client.solve(req, resp); });
    const bool returned = first.wait_for(std::chrono::seconds(2)) ==
                          std::future_status::ready;
    // End the client's read if it is still waiting: no hang.
    if (!returned) net::shutdown_fd(conn.load());
    EXPECT_TRUE(returned) << "no return within 2 s of a 200 ms deadline";
    EXPECT_FALSE(first.get());

    const auto t0 = std::chrono::steady_clock::now();
    req.req_id = 0;
    EXPECT_FALSE(client.solve(req, resp));
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(100));
  }
  net::shutdown_fd(lfd);
  peer.join();
  if (conn.load() >= 0) net::close_fd(conn.load());
  net::close_fd(lfd);
  ::unlink(addr.c_str() + 5);
}

TEST(NetSockets, AcceptWaitsOutAFullFdTable) {
  const std::string addr = unique_sock("emfile");
  const int lfd = net::listen_on(addr);
  const int cfd = ::socket(AF_UNIX, SOCK_STREAM, 0);  // before the fill
  ASSERT_GE(cfd, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  int top = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd"))
    top = std::max(top, std::stoi(e.path().filename().string()));

  // While the table is full nothing may need an fd, the sanitizer
  // runtimes included (UBSan probes memory through a pipe).  So the
  // thread that frees one starts before the fill and ends after it,
  // and the full window makes only system calls.
  std::atomic<int> phase{0};  // 1 started, 2 filled, 3 accepted, 4 unfilled
  int spare = -1;
  const auto wait_for_phase = [&phase](int p, int max_ms) {
    for (int ms = 0; ms < max_ms && phase.load() < p; ++ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return phase.load() >= p;
  };
  std::thread freer([&] {
    phase.store(1);
    wait_for_phase(2, std::numeric_limits<int>::max());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(spare);  // one fd comes free while accept_conn waits
    if (!wait_for_phase(3, 5000))
      net::shutdown_fd(lfd);  // unblock a hung accept: the check below fails
    wait_for_phase(4, std::numeric_limits<int>::max());
  });
  wait_for_phase(1, std::numeric_limits<int>::max());

  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(top) + 8;
  std::vector<int> fill;
  const bool lowered = ::setrlimit(RLIMIT_NOFILE, &low) == 0;
  for (int fd = lowered ? ::dup(lfd) : -1; fd >= 0; fd = ::dup(lfd))
    fill.push_back(fd);
  const bool full = lowered && errno == EMFILE && !fill.empty();
  if (full) {
    spare = fill.back();
    fill.pop_back();
  }
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::strncpy(sa.sun_path, addr.c_str() + 5, sizeof(sa.sun_path) - 1);
  const bool connected =
      ::connect(cfd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0;
  phase.store(2);
  const int fd = full && connected ? net::accept_conn(lfd) : -1;
  phase.store(3);
  net::close_fd(fd);
  for (const int f : fill) ::close(f);
  ::setrlimit(RLIMIT_NOFILE, &saved);
  phase.store(4);
  freer.join();

  EXPECT_TRUE(full);
  EXPECT_TRUE(connected);
  EXPECT_GE(fd, 0);
  net::close_fd(cfd);
  net::close_fd(lfd);
  ::unlink(addr.c_str() + 5);
}

TEST(NetRemote, RouterRoutesByOperatorAffinityAndShedsWhenSaturated) {
  // Two shards with the SAME registered operator; a router in front.
  RemoteRig shard0("router_s0");
  RemoteRig shard1("router_s1");

  svc::RouterConfig rc;
  rc.listen_addr = unique_sock("router");
  rc.shard_addrs = {shard0.addr, shard1.addr};
  rc.max_inflight_per_shard = 1;
  svc::Router router(rc);
  ASSERT_EQ(router.nshards(), 2);

  // Phase 1: affinity. A blocking client keeps at most one request in
  // flight, so every request lands on its hash-affine shard.
  {
    svc::Client client(rc.listen_addr, "t");
    EXPECT_EQ(client.server_name(), "pfem-router");
    EXPECT_EQ(client.server_nranks(), 2);  // relayed from the shards
    for (int i = 0; i < 6; ++i) {
      proto::SolveRequestMsg req = basic_request(shard0);
      proto::SolveResponseMsg resp;
      ASSERT_TRUE(client.solve(req, resp));
      EXPECT_EQ(resp.status, proto::SolveStatus::Completed);
    }
    const svc::Router::Stats st = router.stats();
    EXPECT_EQ(st.forwarded, 6u);
    EXPECT_EQ(st.affinity, 6u);
    EXPECT_EQ(st.spilled, 0u);
    EXPECT_EQ(st.rejected_backpressure, 0u);
    EXPECT_EQ(st.responses, 6u);
    // All six went to ONE shard (the affine one for "op0").
    const std::uint64_t s0 = shard0.server->stats().requests;
    const std::uint64_t s1 = shard1.server->stats().requests;
    EXPECT_EQ(s0 + s1, 6u);
    EXPECT_TRUE(s0 == 6u || s1 == 6u) << "s0=" << s0 << " s1=" << s1;
  }

  // Phase 2: deterministic backpressure. Freeze both services so
  // nothing completes, then pipeline three raw requests for one key:
  // 1st -> affine shard, 2nd -> spill, 3rd -> typed local rejection.
  shard0.service->set_paused(true);
  shard1.service->set_paused(true);

  const int fd = net::connect_to(rc.listen_addr);
  net::ByteBuffer hello;
  proto::encode_hello(hello, proto::HelloMsg{"raw"});
  ASSERT_TRUE(net::write_full(fd, hello.data(), hello.size()));
  unsigned char hdrbuf[proto::kProtoHeaderBytes];
  ASSERT_TRUE(net::read_full(fd, hdrbuf, sizeof hdrbuf));
  proto::ProtoHeader ph;
  ASSERT_EQ(proto::decode_header(hdrbuf, ph), proto::DecodeStatus::Ok);
  std::vector<unsigned char> skip(static_cast<std::size_t>(ph.body_len));
  ASSERT_TRUE(net::read_full(fd, skip.data(), skip.size()));

  const std::uint64_t base_forwarded = router.stats().forwarded;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    proto::SolveRequestMsg req = basic_request(shard0);
    req.req_id = id;
    net::ByteBuffer f;
    proto::encode_solve_request(f, req);
    ASSERT_TRUE(net::write_full(fd, f.data(), f.size()));
  }

  auto read_response = [&](proto::SolveResponseMsg& resp) {
    ASSERT_TRUE(net::read_full(fd, hdrbuf, sizeof hdrbuf));
    ASSERT_EQ(proto::decode_header(hdrbuf, ph), proto::DecodeStatus::Ok);
    ASSERT_EQ(ph.type,
              static_cast<std::uint16_t>(proto::MsgType::SolveResponse));
    std::vector<unsigned char> body(static_cast<std::size_t>(ph.body_len));
    ASSERT_TRUE(net::read_full(fd, body.data(), body.size()));
    ASSERT_EQ(proto::decode_solve_response(body, resp),
              proto::DecodeStatus::Ok);
  };

  // With both shards frozen and capacity 1 each, the 3rd request is
  // shed at the router and its typed rejection is the FIRST response.
  proto::SolveResponseMsg rejected;
  read_response(rejected);
  EXPECT_EQ(rejected.req_id, 3u);
  EXPECT_EQ(rejected.status, proto::SolveStatus::Rejected);
  EXPECT_EQ(rejected.reject_reason,
            static_cast<std::uint32_t>(svc::RejectReason::QueueFull));

  {
    const svc::Router::Stats st = router.stats();
    EXPECT_EQ(st.forwarded - base_forwarded, 2u);  // 1 affine + 1 spill
    EXPECT_EQ(st.spilled, 1u);
    EXPECT_EQ(st.rejected_backpressure, 1u);
  }

  // Unfreeze: the two forwarded requests complete on their shards.
  shard0.service->set_paused(false);
  shard1.service->set_paused(false);
  proto::SolveResponseMsg a;
  proto::SolveResponseMsg b;
  read_response(a);
  read_response(b);
  EXPECT_EQ(a.status, proto::SolveStatus::Completed);
  EXPECT_EQ(b.status, proto::SolveStatus::Completed);
  EXPECT_TRUE((a.req_id == 1 && b.req_id == 2) ||
              (a.req_id == 2 && b.req_id == 1));
  net::close_fd(fd);
  router.stop();
}

TEST(NetRemote, RouterFailsTheRequestsOfAStoppedShardTyped) {
  // A shard whose connection ends with a request in flight: the router
  // answers that request with a typed comm failure, marks the shard
  // down, and a later request for the same key spills to the live
  // shard.
  RemoteRig shard0("down_s0");
  RemoteRig shard1("down_s1");
  svc::RouterConfig rc;
  rc.listen_addr = unique_sock("down_r");
  rc.shard_addrs = {shard0.addr, shard1.addr};
  svc::Router router(rc);
  svc::Client client(rc.listen_addr, "t");

  // Freeze both services so the request stays in flight on its shard.
  shard0.service->set_paused(true);
  shard1.service->set_paused(true);
  proto::SolveRequestMsg req = basic_request(shard0);
  proto::SolveResponseMsg resp;
  auto first =
      std::async(std::launch::async, [&] { return client.solve(req, resp); });
  RemoteRig* dead = &shard0;
  RemoteRig* live = &shard1;
  for (int i = 0; i < 1000; ++i) {
    if (shard1.server->stats().requests == 1) std::swap(dead, live);
    if (dead->server->stats().requests == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(dead->server->stats().requests, 1u);

  // Server::stop waits for the frozen request, so it runs aside; its
  // first act ends the router's connection.
  auto stopper = std::async(std::launch::async, [dead] {
    dead->server->stop();
  });
  const bool answered = first.wait_for(std::chrono::seconds(1)) ==
                        std::future_status::ready;
  if (!answered) router.stop();  // end the client's read: no hang
  EXPECT_TRUE(answered) << "no answer within 1 s of the shard's end";
  EXPECT_TRUE(first.get());
  EXPECT_EQ(resp.status, proto::SolveStatus::Failed);
  EXPECT_TRUE(resp.comm);
  dead->service->set_paused(false);
  stopper.get();
  live->service->set_paused(false);

  if (answered) {
    proto::SolveRequestMsg again = basic_request(shard0);
    proto::SolveResponseMsg resp2;
    ASSERT_TRUE(client.solve(again, resp2));
    EXPECT_EQ(resp2.status, proto::SolveStatus::Completed);
    EXPECT_EQ(live->server->stats().requests, 1u);
    const svc::Router::Stats st = router.stats();
    EXPECT_EQ(st.forwarded, 2u);
    EXPECT_EQ(st.spilled, 1u);
    EXPECT_EQ(st.lost, 1u);
    EXPECT_EQ(st.responses, 1u);
  }
  router.stop();
}

TEST(NetRemote, RouterFailsTheRequestsOfAKilledShardProcessTyped) {
#ifdef PFEM_NO_FORK_TESTS
  GTEST_SKIP() << "fork-based multi-process test skipped under sanitizers";
#else
  // Two shard PROCESSES behind a router.  The key's affine shard holds
  // its request (service paused) and is SIGKILLed: the request must get
  // a typed comm failure within 1 s, and a later request for the key
  // completes on the surviving shard.
  const std::string key = [] {  // the first key affine to shard 0
    for (const char* k : {"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"})
      if (std::hash<std::string>{}(k) % 2 == 0) return std::string(k);
    return std::string();
  }();
  ASSERT_FALSE(key.empty());
  std::vector<std::string> addrs;
  std::vector<pid_t> pids;
  std::vector<int> ctl_w;
  for (int i = 0; i < 2; ++i) {
    addrs.push_back(unique_sock(("kill_s" + std::to_string(i)).c_str()));
    int ready[2], ctl[2];
    ASSERT_EQ(::pipe(ready), 0);
    ASSERT_EQ(::pipe(ctl), 0);
    pids.push_back(net::fork_run([&, i]() -> int {
      ::close(ready[0]);
      ::close(ctl[1]);
      const SolveScene cs = make_scene(2);
      svc::ServiceConfig cfg;
      cfg.nranks = 2;
      svc::Service service(cfg);
      service.register_operator(key, cs.part, cs.poly);
      service.set_paused(i == 0);
      svc::Server server(service, addrs[static_cast<std::size_t>(i)],
                         "kill" + std::to_string(i));
      unsigned char b = 1;
      if (!pipe_write(ready[1], &b, 1)) return 3;
      (void)pipe_read(ctl[0], &b, 1);  // parent closes its end when done
      server.stop();
      service.shutdown(/*drain=*/true);
      return 0;
    }));
    ::close(ready[1]);
    ::close(ctl[0]);
    unsigned char b = 0;
    ASSERT_TRUE(pipe_read(ready[0], &b, 1)) << "shard failed to come up";
    ::close(ready[0]);
    ctl_w.push_back(ctl[1]);
  }

  {
    svc::RouterConfig rc;
    rc.listen_addr = unique_sock("kill_r");
    rc.shard_addrs = addrs;
    svc::Router router(rc);
    svc::Client client(rc.listen_addr, "t");
    const SolveScene s = make_scene(2);
    proto::SolveRequestMsg req;
    req.operator_key = key;
    req.rhs = {s.prob.load};
    proto::SolveResponseMsg resp;
    auto first = std::async(std::launch::async,
                            [&] { return client.solve(req, resp); });
    for (int i = 0; i < 1000 && router.stats().forwarded == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(pids[0], SIGKILL);
    const bool answered = first.wait_for(std::chrono::seconds(1)) ==
                          std::future_status::ready;
    if (!answered) router.stop();  // end the client's read: no hang
    EXPECT_TRUE(answered) << "no answer within 1 s of the shard's death";
    EXPECT_TRUE(first.get());
    EXPECT_EQ(resp.status, proto::SolveStatus::Failed);
    EXPECT_TRUE(resp.comm);
    if (answered) {
      proto::SolveResponseMsg resp2;
      ASSERT_TRUE(client.solve(req, resp2));
      EXPECT_EQ(resp2.status, proto::SolveStatus::Completed);
      const svc::Router::Stats st = router.stats();
      EXPECT_EQ(st.forwarded, 2u);
      EXPECT_EQ(st.spilled, 1u);
      EXPECT_EQ(st.responses + st.lost, st.forwarded);
    }
    router.stop();
  }

  for (const int fd : ctl_w) ::close(fd);
  EXPECT_EQ(net::wait_exit(pids[0]), -1);  // killed
  EXPECT_EQ(net::wait_exit(pids[1]), 0);
#endif
}

// ---------------------------------------------------------------------------
// 7. solve sessions over the wire
// ---------------------------------------------------------------------------

TEST(NetSession, SessionFramesRoundTripEveryField) {
  {
    proto::SessionOpenMsg m{41, "opX"};
    net::ByteBuffer f;
    proto::encode_session_open(f, m);
    std::span<const unsigned char> body;
    const proto::ProtoHeader h = split_frame(f, body);
    EXPECT_EQ(h.type, static_cast<std::uint16_t>(proto::MsgType::SessionOpen));
    proto::SessionOpenMsg d;
    ASSERT_EQ(proto::decode_session_open(body, d), proto::DecodeStatus::Ok);
    EXPECT_EQ(d.req_id, 41u);
    EXPECT_EQ(d.operator_key, "opX");
  }
  {
    proto::SessionCloseMsg m{43, "opX", 7};
    net::ByteBuffer f;
    proto::encode_session_close(f, m);
    std::span<const unsigned char> body;
    const proto::ProtoHeader h = split_frame(f, body);
    EXPECT_EQ(h.type,
              static_cast<std::uint16_t>(proto::MsgType::SessionClose));
    proto::SessionCloseMsg d;
    ASSERT_EQ(proto::decode_session_close(body, d), proto::DecodeStatus::Ok);
    EXPECT_EQ(d.req_id, 43u);
    EXPECT_EQ(d.operator_key, "opX");
    EXPECT_EQ(d.session_id, 7u);
  }
  {
    proto::SessionAckMsg m{44, 0, "operator 'z' is not registered"};
    net::ByteBuffer f;
    proto::encode_session_ack(f, m);
    std::span<const unsigned char> body;
    const proto::ProtoHeader h = split_frame(f, body);
    EXPECT_EQ(h.type, static_cast<std::uint16_t>(proto::MsgType::SessionAck));
    proto::SessionAckMsg d;
    ASSERT_EQ(proto::decode_session_ack(body, d), proto::DecodeStatus::Ok);
    EXPECT_EQ(d.req_id, 44u);
    EXPECT_EQ(d.session_id, 0u);
    EXPECT_EQ(d.detail, "operator 'z' is not registered");
  }
}

TEST(NetSession, OpenSolveCloseRoundTripsOverTheWire) {
  RemoteRig rig("sess");
  svc::Client client(rig.addr, "t");

  EXPECT_EQ(client.open_session("no-such-operator"), 0u);
  const std::uint64_t sid = client.open_session("op0");
  ASSERT_NE(sid, 0u);

  proto::SolveRequestMsg req = basic_request(rig);
  req.session_id = sid;
  proto::SolveResponseMsg resp;
  ASSERT_TRUE(client.solve(req, resp));
  ASSERT_EQ(resp.status, proto::SolveStatus::Completed);
  const int first = resp.items.at(0).iterations;

  // The warm replay of the identical RHS starts at its solution.
  proto::SolveRequestMsg again = basic_request(rig);
  again.session_id = sid;
  proto::SolveResponseMsg resp2;
  ASSERT_TRUE(client.solve(again, resp2));
  ASSERT_EQ(resp2.status, proto::SolveStatus::Completed);
  EXPECT_LT(resp2.items.at(0).iterations, first);

  // An unknown handle is a typed rejection, not a cold fallback.
  proto::SolveRequestMsg unknown = basic_request(rig);
  unknown.session_id = sid + 777;
  proto::SolveResponseMsg resp3;
  ASSERT_TRUE(client.solve(unknown, resp3));
  EXPECT_EQ(resp3.status, proto::SolveStatus::Rejected);
  EXPECT_EQ(resp3.reject_reason,
            static_cast<std::uint32_t>(svc::RejectReason::UnknownSession));

  EXPECT_TRUE(client.close_session("op0", sid));
  EXPECT_FALSE(client.close_session("op0", sid));  // already closed
}

TEST(NetSession, SessionPinnedRoutingAcrossForkedShards) {
#ifdef PFEM_NO_FORK_TESTS
  GTEST_SKIP() << "fork-based multi-process test skipped under sanitizers";
#else
  // Two shard PROCESSES (Service + Server each), both registering the
  // same keys, with a router in front.  A session opened through the
  // router lives in exactly one shard's SessionTable; this test passes
  // only if every frame of the session's traffic is pinned there.
  constexpr int kShardProcs = 2;
  struct ShardProc {
    pid_t pid = -1;
    int ready_r = -1;
    int ctl_w = -1;
  };
  std::vector<std::string> addrs;
  for (int i = 0; i < kShardProcs; ++i)
    addrs.push_back(unique_sock(("pin_s" + std::to_string(i)).c_str()));

  std::vector<ShardProc> procs;
  for (int i = 0; i < kShardProcs; ++i) {
    int ready[2], ctl[2];
    ASSERT_EQ(::pipe(ready), 0);
    ASSERT_EQ(::pipe(ctl), 0);
    const pid_t pid = net::fork_run([&, i]() -> int {
      ::close(ready[0]);
      ::close(ctl[1]);
      const SolveScene cs = make_scene(2);
      svc::ServiceConfig cfg;
      cfg.nranks = 2;
      svc::Service service(cfg);
      service.register_operator("k0", cs.part, cs.poly);
      svc::Server server(service, addrs[static_cast<std::size_t>(i)],
                         "pin" + std::to_string(i));
      unsigned char b = 1;
      if (!pipe_write(ready[1], &b, 1)) return 3;
      (void)pipe_read(ctl[0], &b, 1);  // parent closes its end when done
      server.stop();
      service.shutdown(/*drain=*/true);
      return 0;
    });
    ::close(ready[1]);
    ::close(ctl[0]);
    procs.push_back(ShardProc{pid, ready[0], ctl[1]});
  }
  for (const ShardProc& p : procs) {
    unsigned char b = 0;
    ASSERT_TRUE(pipe_read(p.ready_r, &b, 1)) << "shard failed to come up";
  }

  {
    svc::RouterConfig rc;
    rc.listen_addr = unique_sock("pin_r");
    rc.shard_addrs = {addrs[0], addrs[1]};
    svc::Router router(rc);
    svc::Client client(rc.listen_addr, "t");
    const SolveScene s = make_scene(2);

    const std::uint64_t sid = client.open_session("k0");
    ASSERT_NE(sid, 0u);

    constexpr int kSteps = 3;
    int cold_total = 0, warm_total = 0;
    for (int t = 0; t < kSteps; ++t) {
      Vector f = s.prob.load;
      for (real_t& v : f) v *= 1.0 + 0.01 * t;
      for (const bool warm : {false, true}) {
        proto::SolveRequestMsg req;
        req.operator_key = "k0";
        req.session_id = warm ? sid : 0;
        req.rhs = {f};
        proto::SolveResponseMsg resp;
        ASSERT_TRUE(client.solve(req, resp));
        ASSERT_EQ(resp.status, proto::SolveStatus::Completed);
        (warm ? warm_total : cold_total) += resp.items.at(0).iterations;
      }
    }
    // Warm solves only beat cold if each one found the state deposited
    // by its predecessor — i.e. if all of them landed on the session's
    // shard.
    EXPECT_LT(warm_total, cold_total);
    EXPECT_TRUE(client.close_session("k0", sid));

    const svc::Router::Stats st = router.stats();
    EXPECT_EQ(st.session_frames, 2u);  // open + close
    EXPECT_EQ(st.session_pinned, static_cast<std::uint64_t>(kSteps));
    EXPECT_EQ(st.forwarded, static_cast<std::uint64_t>(2 * kSteps));
    EXPECT_EQ(st.spilled, 0u);
    router.stop();
  }

  for (const ShardProc& p : procs) {
    ::close(p.ctl_w);
    ::close(p.ready_r);
  }
  for (const ShardProc& p : procs) EXPECT_EQ(net::wait_exit(p.pid), 0);
#endif
}

}  // namespace
}  // namespace pfem
