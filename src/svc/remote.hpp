// pfem::svc remote layer — the solve service spoken over a stream
// socket (net::proto), and the shard router that multiplexes many
// clients onto N independent service processes.
//
//   Server — owns a listening socket in front of an existing Service.
//            Per connection: Hello/HelloAck handshake, then SolveRequest
//            frames mapped onto Service::submit and answered in FIFO
//            order per connection.  Any malformed frame closes the
//            connection with a typed reason counted in Stats — the
//            service itself is never exposed to undecoded bytes.
//
//   Client — blocking request/response peer for drivers and tests
//            (pfem_loadgen --connect).  One outstanding request at a
//            time per client; run several clients for concurrency.
//
//   Router — accepts clients like a Server but owns no Service: each
//            SolveRequest frame is forwarded RAW to one of N shard
//            connections with only the req_id rewritten in place (it
//            sits at a fixed offset for exactly this purpose).  Shard
//            choice is operator-cache affinity — hash(operator_key)
//            mod nshards — so repeat keys land on the shard that has
//            the operator built and warm.  A saturated affine shard
//            (>= max_inflight_per_shard in flight) spills to the
//            least-loaded shard; when no live shard has room the
//            router sheds load itself with a typed Rejected{QueueFull}
//            response, mirroring the service's own admission control.
//            Session traffic (SessionOpen/SessionClose, and any
//            SolveRequest carrying a session id) is PINNED to the
//            affine shard and never spills or sheds at the router: the
//            session's warm state lives in exactly one shard's
//            SessionTable, so sending its requests anywhere else would
//            silently run them cold.  When a shard's connection ends,
//            the router marks it down and answers everything pending on
//            it with a typed failure; affine traffic then spills to the
//            live shards, and pinned traffic fails typed at once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/proto.hpp"
#include "svc/service.hpp"

namespace pfem::svc {

/// Map a wire request onto the in-process request type.  The relative
/// deadline_ns budget is re-anchored on this process's steady clock;
/// restart/max_iters/tol land in opts.  Exposed for tests.
[[nodiscard]] SolveRequest to_solve_request(net::proto::SolveRequestMsg&& m);

/// Map a resolved Outcome onto the wire response.  The solution payload
/// is included only when the request asked for it.  Exposed for tests.
[[nodiscard]] net::proto::SolveResponseMsg to_solve_response(
    std::uint64_t req_id, bool want_solution, Outcome&& outcome);

// ---- Server ---------------------------------------------------------------

class Server {
 public:
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t malformed = 0;  ///< connections closed on a bad frame
  };

  /// Listens on "unix:/path" or "tcp:host:port" immediately (throws
  /// pfem::Error when the address cannot be bound).  `svc` must outlive
  /// the server.
  Server(Service& svc, const std::string& listen_addr, std::string name);
  ~Server();  ///< stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stop accepting, close every connection, join all threads.
  /// Outstanding submitted requests still resolve inside the Service;
  /// their responses are dropped.  Idempotent.
  void stop();

  [[nodiscard]] Stats stats() const;

 private:
  struct Conn;

  void accept_loop();
  void conn_reader(const std::shared_ptr<Conn>& c);
  void conn_harvester(const std::shared_ptr<Conn>& c);

  Service& svc_;
  std::string name_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  mutable std::mutex m_;
  std::vector<std::shared_ptr<Conn>> conns_;
  Stats stats_;

  std::thread acceptor_;
};

// ---- Client ---------------------------------------------------------------

class Client {
 public:
  /// Connect (with startup-race retry) and run the Hello handshake.
  /// Throws pfem::Error on connect failure, a malformed handshake, or no
  /// HelloAck within connect_timeout_seconds of the start.
  Client(const std::string& addr, const std::string& client_name,
         double connect_timeout_seconds = 10.0);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] const std::string& server_name() const noexcept {
    return server_name_;
  }
  [[nodiscard]] int server_nranks() const noexcept { return nranks_; }

  /// Blocking request/response.  Assigns a fresh req_id when req.req_id
  /// is 0.  With req.deadline_ns set, the wait for the response ends
  /// that long after the send plus the connect timeout, the grace for
  /// the shard's typed DeadlineExceeded or Cancelled answer; without
  /// one it blocks, because a solve may run long.  Returns false when
  /// the connection dropped, the peer sent a malformed frame or the wait
  /// ran out — the connection is closed then, and every later call
  /// returns false at once.
  [[nodiscard]] bool solve(net::proto::SolveRequestMsg& req,
                           net::proto::SolveResponseMsg& resp);

  /// Open a solve session pinned to `operator_key` (blocking).  Returns
  /// the server-assigned handle for SolveRequestMsg::session_id, or 0
  /// when refused (unknown operator) or on a connection error.
  [[nodiscard]] std::uint64_t open_session(const std::string& operator_key);

  /// Close a session (blocking).  The operator key rides along only for
  /// router affinity.  False on unknown session or connection error.
  bool close_session(const std::string& operator_key,
                     std::uint64_t session_id);

 private:
  /// Write `request`, then read the one response frame: it must be of
  /// type `want` and decode into `response` answering `req_id`.  The read
  /// is bounded by timeout_seconds when that is positive.  Any failure
  /// closes the connection.
  template <class Msg>
  [[nodiscard]] bool round_trip(
      const net::ByteBuffer& request, net::proto::MsgType want,
      net::proto::DecodeStatus (*decode)(std::span<const unsigned char>,
                                         Msg&),
      Msg& response, std::uint64_t req_id, double timeout_seconds);

  int fd_ = -1;
  double connect_timeout_seconds_ = 0.0;
  std::string server_name_;
  int nranks_ = 0;
  std::uint64_t next_id_ = 1;
};

// ---- Router ---------------------------------------------------------------

struct RouterConfig {
  std::string listen_addr;
  std::vector<std::string> shard_addrs;
  /// Per-shard in-flight cap before affinity spills to the least-loaded
  /// shard; with every shard at the cap the router rejects locally.
  std::size_t max_inflight_per_shard = 8;
  std::string name = "pfem-router";
  double connect_timeout_seconds = 10.0;
};

class Router {
 public:
  struct Stats {
    std::uint64_t forwarded = 0;  ///< solve requests sent to some shard
    std::uint64_t affinity = 0;   ///< ... to the hash-affine shard
    std::uint64_t spilled = 0;    ///< ... to another (affine saturated)
    std::uint64_t rejected_backpressure = 0;  ///< shed at the router
    std::uint64_t responses = 0;
    /// SessionOpen/SessionClose frames forwarded (always to the key's
    /// affine shard — that is where the session lives).
    std::uint64_t session_frames = 0;
    /// Solve requests carrying a session id: pinned to the affine shard,
    /// bypassing the spill/shed path (the shard's own admission control
    /// is the backstop) so warm per-session state is never stranded on
    /// the wrong shard.
    std::uint64_t session_pinned = 0;
    /// Routed requests and session frames the router answered itself
    /// (Failed{comm} or a failed ack) because their shard's connection
    /// had ended: in flight when it ended, or routed to it afterwards.
    /// With nothing in flight, forwarded + session_frames = responses +
    /// lost.
    std::uint64_t lost = 0;
  };

  /// Connects to every shard (handshaking as a client) and starts
  /// listening.  Throws pfem::Error when a shard is unreachable or does
  /// not answer the handshake within cfg.connect_timeout_seconds.
  explicit Router(const RouterConfig& cfg);
  ~Router();  ///< stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  void stop();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] int nshards() const noexcept {
    return static_cast<int>(shards_.size());
  }

 private:
  struct Shard;
  struct ClientConn;

  void accept_loop();
  void client_reader(const std::shared_ptr<ClientConn>& c);
  void shard_reader(std::size_t shard_idx);
  /// Affinity-first choice among the live shards under m_; returns npos
  /// when none has room.  Sets `spilled` when the affine shard was
  /// passed over.
  [[nodiscard]] std::size_t pick_shard(const std::string& operator_key,
                                       bool& spilled);

  RouterConfig cfg_;
  int listen_fd_ = -1;
  int advertised_nranks_ = 0;
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Shard>> shards_;

  struct Pending {
    std::shared_ptr<ClientConn> conn;
    std::uint64_t client_req_id = 0;
    std::size_t shard = 0;
    /// True for solve requests (they hold an inflight slot on the
    /// shard); session open/close frames don't count toward load.
    bool counted = true;
  };

  mutable std::mutex m_;
  std::unordered_map<std::uint64_t, Pending> pending_;  ///< by router id
  std::uint64_t next_id_ = 1;
  std::vector<std::shared_ptr<ClientConn>> conns_;
  Stats stats_;

  std::thread acceptor_;
};

}  // namespace pfem::svc
