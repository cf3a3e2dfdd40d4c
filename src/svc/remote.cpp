#include "svc/remote.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <functional>

#include "net/sockets.hpp"

namespace pfem::svc {

namespace proto = net::proto;

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// Detail strings on the wire are bounded well under the decoder's
/// string cap so a pathological error message never poisons a frame.
constexpr std::size_t kMaxDetailBytes = 4096;

void store_u64_le(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

[[nodiscard]] std::uint64_t load_u64_le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

using Deadline = std::chrono::time_point<Clock, std::chrono::duration<double>>;

/// net::read_full, with every wait for bytes bounded by `deadline` when
/// one is given: false on EOF or once the deadline has passed.
[[nodiscard]] bool read_bytes(int fd, unsigned char* p, std::size_t n,
                              const Deadline* deadline) {
  if (deadline == nullptr) return net::read_full(fd, p, n);
  for (std::size_t got = 0; got < n;) {
    const double left_ms =
        std::chrono::duration<double, std::milli>(*deadline - Clock::now())
            .count();
    pollfd readable{fd, POLLIN, 0};
    if (!(left_ms > 0.0) ||
        ::poll(&readable, 1,
               static_cast<int>(std::min(std::ceil(left_ms), 1e9))) != 1)
      return false;
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0)
      got += static_cast<std::size_t>(r);
    else if (r == 0 || errno != EINTR)
      return false;
  }
  return true;
}

/// Read one complete frame, by `deadline` when one is given.  Returns
/// true with st==Ok on success; false with st==Ok on a clean close
/// before the header; false with st!=Ok on anything malformed (bad
/// header, mid-frame EOF, socket error, deadline passed mid-frame) —
/// callers count the latter and close the connection.
[[nodiscard]] bool read_frame(int fd, proto::ProtoHeader& h,
                              std::vector<unsigned char>& body,
                              proto::DecodeStatus& st,
                              const Deadline* deadline = nullptr) {
  st = proto::DecodeStatus::Ok;
  unsigned char hdr[proto::kProtoHeaderBytes];
  try {
    if (!read_bytes(fd, hdr, sizeof hdr, deadline)) return false;
    st = proto::decode_header({hdr, sizeof hdr}, h);
    if (st != proto::DecodeStatus::Ok) return false;
    body.resize(h.body_len);
    if (h.body_len != 0 &&
        !read_bytes(fd, body.data(), body.size(), deadline)) {
      st = proto::DecodeStatus::Truncated;
      return false;
    }
  } catch (const std::exception&) {
    st = proto::DecodeStatus::Truncated;
    return false;
  }
  return true;
}

/// Connect to `addr` and run the Hello/HelloAck handshake as `name`,
/// filling `ack`; returns the connected fd.  connect() succeeds on a
/// peer's listen backlog before the peer ever accepts, so the whole
/// HelloAck read is bounded by what is left of `timeout_seconds` (a
/// peer that stalls mid-frame fails it too); later reads are the
/// caller's to bound, because a solve may run long.  Any failure throws
/// pfem::Error "<what> with <addr> failed".
[[nodiscard]] int handshake(const std::string& addr, const std::string& name,
                            double timeout_seconds, const std::string& what,
                            proto::HelloAckMsg& ack) {
  const Deadline deadline =
      Clock::now() + std::chrono::duration<double>(timeout_seconds);
  const int fd = net::connect_to(addr, timeout_seconds);
  bool ok = false;
  try {
    net::ByteBuffer out;
    proto::encode_hello(out, {name});
    proto::ProtoHeader h;
    std::vector<unsigned char> body;
    proto::DecodeStatus st;
    ok = net::write_full(fd, out.data(), out.size()) &&
         read_frame(fd, h, body, st, &deadline) &&
         static_cast<proto::MsgType>(h.type) == proto::MsgType::HelloAck &&
         proto::decode_hello_ack(body, ack) == proto::DecodeStatus::Ok;
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    net::close_fd(fd);
    throw Error(what + " with " + addr + " failed");
  }
  return fd;
}

/// Serialized write of one encoded frame; false on a dead peer (the
/// caller's reader will notice and unwind — no throw escapes) or on a
/// connection already ended.  `fd` is read under `m`, the lock
/// end_conn retires it under.
[[nodiscard]] bool write_buf(const int& fd, std::mutex& m,
                             const net::ByteBuffer& buf) {
  std::lock_guard<std::mutex> lk(m);
  if (fd < 0) return false;
  try {
    return net::write_full(fd, buf.data(), buf.size());
  } catch (const std::exception&) {
    return false;
  }
}

/// Re-emit a raw frame (header rebuilt around the possibly-rewritten
/// body) — the router's forwarding path.
void emit_raw_frame(net::ByteBuffer& out, std::uint16_t type,
                    const std::vector<unsigned char>& body) {
  out.clear();
  out.reserve(proto::kProtoHeaderBytes + body.size());
  net::put_u32(out, proto::kProtoMagic);
  net::put_u16(out, proto::kProtoVersion);
  net::put_u16(out, type);
  net::put_u64(out, body.size());
  net::put_bytes(out, body.data(), body.size());
}

void clip_detail(std::string& s) {
  if (s.size() > kMaxDetailBytes) s.resize(kMaxDetailBytes);
}

/// The router's own answer to a request whose shard connection ended: a
/// typed comm failure for a solve, a failed ack for a session frame.
void encode_lost(net::ByteBuffer& out, bool is_solve,
                 std::uint64_t client_req_id) {
  out.clear();
  if (is_solve) {
    proto::SolveResponseMsg resp;
    resp.req_id = client_req_id;
    resp.status = proto::SolveStatus::Failed;
    resp.comm = true;
    resp.detail = "router: shard connection lost";
    proto::encode_solve_response(out, resp);
  } else {
    proto::SessionAckMsg ack;
    ack.req_id = client_req_id;
    ack.detail = "router: shard connection lost";
    proto::encode_session_ack(out, ack);
  }
}

/// Close an ended connection's fd and mark it -1 (ended, ready to
/// reap).  Holds the owner's table lock, which stop() holds while it
/// shuts fds down, and the connection's write lock, which every writer
/// holds while it reads fd — so nobody touches the number after the
/// kernel hands it to a new connection.
void end_conn(int& fd, std::mutex& table_m, std::mutex& write_m) {
  std::scoped_lock lk(table_m, write_m);
  net::close_fd(fd);
  fd = -1;
}

/// Join and drop the connections end_conn retired.  Runs on the
/// acceptor before each accept, never on a connection's own thread, so
/// the table holds the live connections and at most a few ended ones.
template <typename Conn>
void reap_ended(std::mutex& table_m,
                std::vector<std::shared_ptr<Conn>>& conns) {
  std::vector<std::shared_ptr<Conn>> ended;
  {
    std::lock_guard<std::mutex> lk(table_m);
    std::erase_if(conns, [&](const std::shared_ptr<Conn>& c) {
      if (c->fd >= 0) return false;
      ended.push_back(c);
      return true;
    });
  }
  for (const auto& c : ended) c->join();
}

}  // namespace

SolveRequest to_solve_request(proto::SolveRequestMsg&& m) {
  SolveRequest req;
  req.operator_key = std::move(m.operator_key);
  req.rhs = std::move(m.rhs);
  req.opts.restart = m.restart;
  req.opts.max_iters = m.max_iters;
  req.opts.tol = m.tol;
  req.priority = m.priority != 0 ? Priority::High : Priority::Normal;
  req.seed = m.seed;
  req.session = m.session_id;
  // Relative budget re-anchored on this process's steady clock: wall
  // clocks of client and server need not agree.
  if (m.deadline_ns != 0)
    req.deadline = Clock::now() + std::chrono::nanoseconds(m.deadline_ns);
  return req;
}

proto::SolveResponseMsg to_solve_response(std::uint64_t req_id,
                                          bool want_solution,
                                          Outcome&& outcome) {
  proto::SolveResponseMsg resp;
  resp.req_id = req_id;
  if (auto* c = std::get_if<Completed>(&outcome)) {
    resp.status = proto::SolveStatus::Completed;
    resp.cache_hit = c->cache_hit;
    resp.queue_seconds = c->queue_seconds;
    resp.solve_seconds = c->solve_seconds;
    resp.items.reserve(c->result.items.size());
    for (const auto& it : c->result.items)
      resp.items.push_back({it.converged, it.breakdown,
                            static_cast<std::int32_t>(it.iterations),
                            it.final_relres});
    if (want_solution) resp.solution = std::move(c->result.x);
  } else if (auto* r = std::get_if<Rejected>(&outcome)) {
    resp.status = proto::SolveStatus::Rejected;
    resp.reject_reason = static_cast<std::uint32_t>(r->reason);
    resp.detail = std::move(r->detail);
  } else if (auto* cc = std::get_if<Cancelled>(&outcome)) {
    resp.status = proto::SolveStatus::Cancelled;
    resp.detail = std::move(cc->detail);
  } else {
    auto& f = std::get<Failed>(outcome);
    resp.status = proto::SolveStatus::Failed;
    resp.detail = std::move(f.error);
    resp.comm = f.comm;
    // The last attempt's per-RHS partial reports ride along as items.
    resp.items.reserve(f.partial.size());
    for (const auto& it : f.partial)
      resp.items.push_back({it.converged, it.breakdown,
                            static_cast<std::int32_t>(it.iterations),
                            it.final_relres});
  }
  clip_detail(resp.detail);
  return resp;
}

// ---- Server ---------------------------------------------------------------

struct Server::Conn {
  int fd = -1;
  std::mutex write_m;

  struct PendingResp {
    std::uint64_t req_id = 0;
    bool want_solution = false;
    std::future<Outcome> fut;
  };
  std::mutex m;
  std::condition_variable cv;
  std::deque<PendingResp> q;  ///< FIFO: response order == request order
  bool closed = false;        ///< reader finished; harvester drains + exits

  std::thread reader;
  std::thread harvester;

  void join() {
    reader.join();
    harvester.join();
  }
};

Server::Server(Service& svc, const std::string& listen_addr,
               std::string name)
    : svc_(svc), name_(std::move(name)) {
  listen_fd_ = net::listen_on(listen_addr);
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    reap_ended(m_, conns_);
    int fd = -1;
    try {
      fd = net::accept_conn(listen_fd_);
    } catch (const std::exception&) {
      break;
    }
    if (fd < 0) break;  // listening socket shut down
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    {
      std::lock_guard<std::mutex> lk(m_);
      if (stopping_.load(std::memory_order_acquire)) {
        net::close_fd(fd);
        break;
      }
      conns_.push_back(c);
      ++stats_.connections;
    }
    c->reader = std::thread([this, c] { conn_reader(c); });
    c->harvester = std::thread([this, c] { conn_harvester(c); });
  }
}

void Server::conn_reader(const std::shared_ptr<Conn>& c) {
  bool malformed = false;
  bool greeted = false;
  for (;;) {
    proto::ProtoHeader h;
    std::vector<unsigned char> body;
    proto::DecodeStatus st;
    if (!read_frame(c->fd, h, body, st)) {
      malformed = st != proto::DecodeStatus::Ok;
      break;
    }
    const auto type = static_cast<proto::MsgType>(h.type);
    if (!greeted) {
      proto::HelloMsg hello;
      if (type != proto::MsgType::Hello ||
          proto::decode_hello(body, hello) != proto::DecodeStatus::Ok) {
        malformed = true;
        break;
      }
      greeted = true;
      net::ByteBuffer out;
      proto::encode_hello_ack(out, {name_, svc_.nranks()});
      if (!write_buf(c->fd, c->write_m, out)) break;
      continue;
    }
    if (type == proto::MsgType::SessionOpen) {
      // Session control frames are handled inline on the reader thread
      // (no solve work, no future): the ack is written directly, and
      // write_m keeps it serialized against the harvester's responses.
      proto::SessionOpenMsg m;
      if (proto::decode_session_open(body, m) != proto::DecodeStatus::Ok) {
        malformed = true;
        break;
      }
      proto::SessionAckMsg ack;
      ack.req_id = m.req_id;
      ack.session_id = svc_.open_session(m.operator_key);
      if (ack.session_id == kNoSession)
        ack.detail = "operator '" + m.operator_key + "' is not registered";
      clip_detail(ack.detail);
      net::ByteBuffer out;
      proto::encode_session_ack(out, ack);
      if (!write_buf(c->fd, c->write_m, out)) break;
      continue;
    }
    if (type == proto::MsgType::SessionClose) {
      proto::SessionCloseMsg m;
      if (proto::decode_session_close(body, m) != proto::DecodeStatus::Ok) {
        malformed = true;
        break;
      }
      proto::SessionAckMsg ack;
      ack.req_id = m.req_id;
      ack.session_id = svc_.close_session(m.session_id) ? m.session_id : 0;
      if (ack.session_id == 0) ack.detail = "unknown session";
      net::ByteBuffer out;
      proto::encode_session_ack(out, ack);
      if (!write_buf(c->fd, c->write_m, out)) break;
      continue;
    }
    if (type != proto::MsgType::SolveRequest) {
      malformed = true;
      break;
    }
    proto::SolveRequestMsg msg;
    if (proto::decode_solve_request(body, msg) != proto::DecodeStatus::Ok) {
      malformed = true;
      break;
    }
    const std::uint64_t req_id = msg.req_id;
    const bool want = msg.want_solution;
    // submit() never blocks and the future always resolves — admission
    // rejections come back pre-resolved and flow out as typed Rejected.
    Service::Submitted sub = svc_.submit(to_solve_request(std::move(msg)));
    {
      std::lock_guard<std::mutex> lk(m_);
      ++stats_.requests;
    }
    {
      std::lock_guard<std::mutex> lk(c->m);
      c->q.push_back({req_id, want, std::move(sub.outcome)});
    }
    c->cv.notify_one();
  }
  if (malformed) {
    std::lock_guard<std::mutex> lk(m_);
    ++stats_.malformed;
  }
  net::shutdown_fd(c->fd);
  {
    std::lock_guard<std::mutex> lk(c->m);
    c->closed = true;
  }
  c->cv.notify_one();
}

void Server::conn_harvester(const std::shared_ptr<Conn>& c) {
  for (;;) {
    Conn::PendingResp p;
    {
      std::unique_lock<std::mutex> lk(c->m);
      c->cv.wait(lk, [&] { return c->closed || !c->q.empty(); });
      if (c->q.empty()) break;  // closed and drained
      p = std::move(c->q.front());
      c->q.pop_front();
    }
    Outcome o = p.fut.get();
    net::ByteBuffer out;
    proto::encode_solve_response(
        out, to_solve_response(p.req_id, p.want_solution, std::move(o)));
    if (write_buf(c->fd, c->write_m, out)) {
      std::lock_guard<std::mutex> lk(m_);
      ++stats_.responses;
    }
  }
  // The reader is done with the fd (it set `closed`): this is its end.
  end_conn(c->fd, m_, c->write_m);
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  net::shutdown_fd(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(m_);
    conns.swap(conns_);
    for (const auto& c : conns) net::shutdown_fd(c->fd);
  }
  // Joins until every submitted request resolved inside the Service —
  // shut the Service down (or drain it) before stopping the Server if
  // you need a bound on this wait.  Each harvester closes its own fd.
  for (const auto& c : conns) c->join();
  net::close_fd(listen_fd_);
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

// ---- Client ---------------------------------------------------------------

Client::Client(const std::string& addr, const std::string& client_name,
               double connect_timeout_seconds)
    : connect_timeout_seconds_(connect_timeout_seconds) {
  proto::HelloAckMsg ack;
  fd_ = handshake(addr, client_name, connect_timeout_seconds,
                  "svc::Client: handshake", ack);
  server_name_ = std::move(ack.server_name);
  nranks_ = ack.nranks;
}

Client::~Client() {
  if (fd_ >= 0) net::close_fd(fd_);
}

template <class Msg>
bool Client::round_trip(
    const net::ByteBuffer& request, proto::MsgType want,
    proto::DecodeStatus (*decode)(std::span<const unsigned char>, Msg&),
    Msg& response, std::uint64_t req_id, double timeout_seconds) {
  if (fd_ < 0) return false;
  const Deadline deadline =
      Clock::now() + std::chrono::duration<double>(timeout_seconds);
  bool ok = false;
  try {
    proto::ProtoHeader h;
    std::vector<unsigned char> body;
    proto::DecodeStatus st;
    // One outstanding request per client: FIFO means the next response
    // is ours; a mismatched id marks the connection unusable.
    ok = net::write_full(fd_, request.data(), request.size()) &&
         read_frame(fd_, h, body, st,
                    timeout_seconds > 0.0 ? &deadline : nullptr) &&
         static_cast<proto::MsgType>(h.type) == want &&
         decode(body, response) == proto::DecodeStatus::Ok &&
         response.req_id == req_id;
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    net::close_fd(fd_);
    fd_ = -1;
  }
  return ok;
}

bool Client::solve(proto::SolveRequestMsg& req,
                   proto::SolveResponseMsg& resp) {
  if (req.req_id == 0) req.req_id = next_id_++;
  net::ByteBuffer out;
  proto::encode_solve_request(out, req);
  const double timeout =
      req.deadline_ns == 0
          ? 0.0
          : 1e-9 * static_cast<double>(req.deadline_ns) +
                connect_timeout_seconds_;
  return round_trip(out, proto::MsgType::SolveResponse,
                    proto::decode_solve_response, resp, req.req_id, timeout);
}

std::uint64_t Client::open_session(const std::string& operator_key) {
  const proto::SessionOpenMsg req{next_id_++, operator_key};
  net::ByteBuffer out;
  proto::encode_session_open(out, req);
  proto::SessionAckMsg ack;
  return round_trip(out, proto::MsgType::SessionAck,
                    proto::decode_session_ack, ack, req.req_id, 0.0)
             ? ack.session_id
             : 0;
}

bool Client::close_session(const std::string& operator_key,
                           std::uint64_t session_id) {
  if (session_id == 0) return false;
  const proto::SessionCloseMsg req{next_id_++, operator_key, session_id};
  net::ByteBuffer out;
  proto::encode_session_close(out, req);
  proto::SessionAckMsg ack;
  return round_trip(out, proto::MsgType::SessionAck,
                    proto::decode_session_ack, ack, req.req_id, 0.0) &&
         ack.session_id == session_id;
}

// ---- Router ---------------------------------------------------------------

struct Router::Shard {
  int fd = -1;
  std::string name;
  int nranks = 0;
  std::mutex write_m;
  std::size_t inflight = 0;  ///< guarded by Router::m_
  bool down = false;         ///< connection ended; guarded by Router::m_
  std::thread reader;
};

struct Router::ClientConn {
  int fd = -1;
  std::mutex write_m;
  std::thread reader;

  void join() { reader.join(); }
};

Router::Router(const RouterConfig& cfg) : cfg_(cfg) {
  PFEM_CHECK_MSG(!cfg_.shard_addrs.empty(), "router needs >= 1 shard");
  PFEM_CHECK_MSG(cfg_.max_inflight_per_shard > 0,
                 "max_inflight_per_shard must be positive");
  for (const std::string& addr : cfg_.shard_addrs) {
    auto sh = std::make_unique<Shard>();
    proto::HelloAckMsg ack;
    try {
      sh->fd = handshake(addr, cfg_.name, cfg_.connect_timeout_seconds,
                         "svc::Router: shard handshake", ack);
    } catch (const Error&) {
      for (const auto& s : shards_) net::close_fd(s->fd);
      throw;
    }
    sh->name = std::move(ack.server_name);
    sh->nranks = ack.nranks;
    shards_.push_back(std::move(sh));
  }
  advertised_nranks_ = shards_.front()->nranks;
  listen_fd_ = net::listen_on(cfg_.listen_addr);
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->reader = std::thread([this, i] { shard_reader(i); });
  acceptor_ = std::thread([this] { accept_loop(); });
}

Router::~Router() { stop(); }

std::size_t Router::pick_shard(const std::string& operator_key,
                               bool& spilled) {
  // Caller holds m_.  Affinity first: repeat keys land on the shard
  // whose OperatorCache already holds the built operator.  Down shards
  // are skipped.
  spilled = false;
  const std::size_t affine =
      std::hash<std::string>{}(operator_key) % shards_.size();
  if (!shards_[affine]->down &&
      shards_[affine]->inflight < cfg_.max_inflight_per_shard)
    return affine;
  std::size_t best = kNoShard;
  std::size_t best_load = cfg_.max_inflight_per_shard;
  for (std::size_t i = 0; i < shards_.size(); ++i)
    if (!shards_[i]->down && shards_[i]->inflight < best_load) {
      best_load = shards_[i]->inflight;
      best = i;
    }
  spilled = best != kNoShard;
  return best;
}

void Router::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    reap_ended(m_, conns_);
    int fd = -1;
    try {
      fd = net::accept_conn(listen_fd_);
    } catch (const std::exception&) {
      break;
    }
    if (fd < 0) break;
    auto c = std::make_shared<ClientConn>();
    c->fd = fd;
    {
      std::lock_guard<std::mutex> lk(m_);
      if (stopping_.load(std::memory_order_acquire)) {
        net::close_fd(fd);
        break;
      }
      conns_.push_back(c);
    }
    c->reader = std::thread([this, c] { client_reader(c); });
  }
}

void Router::client_reader(const std::shared_ptr<ClientConn>& c) {
  bool greeted = false;
  net::ByteBuffer out;
  for (;;) {
    proto::ProtoHeader h;
    std::vector<unsigned char> body;
    proto::DecodeStatus st;
    if (!read_frame(c->fd, h, body, st)) break;
    const auto type = static_cast<proto::MsgType>(h.type);
    if (!greeted) {
      proto::HelloMsg hello;
      if (type != proto::MsgType::Hello ||
          proto::decode_hello(body, hello) != proto::DecodeStatus::Ok)
        break;
      greeted = true;
      out.clear();
      proto::encode_hello_ack(out, {cfg_.name, advertised_nranks_});
      if (!write_buf(c->fd, c->write_m, out)) break;
      continue;
    }
    const bool is_solve = type == proto::MsgType::SolveRequest;
    const bool is_session_frame = type == proto::MsgType::SessionOpen ||
                                  type == proto::MsgType::SessionClose;
    if (!is_solve && !is_session_frame) break;
    // Peek only req_id + operator_key (+ the session id a SolveRequest
    // encodes right after the key); the rest of the body is opaque and
    // forwarded raw.  Every session-capable request type shares this
    // prefix by design.
    net::ByteReader r({body.data(), body.size()});
    std::uint64_t client_id = 0;
    std::uint32_t keylen = 0;
    std::string key;
    if (!r.get_u64(client_id) || !r.get_u32(keylen) ||
        keylen > (1u << 16) || !r.get_string(key, keylen))
      break;
    std::uint64_t session_id = 0;
    if (is_solve && !r.get_u64(session_id)) break;
    // Session traffic is PINNED: the session's warm state lives in the
    // affine shard's SessionTable, so open/close and session solves go
    // there unconditionally — never spilled, never shed at the router
    // (the shard's own admission control is the backstop).  When that
    // shard is down they fail typed at once.
    const bool pinned = is_session_frame || session_id != 0;
    std::size_t shard = kNoShard;
    std::uint64_t rid = 0;
    bool lost = false;
    {
      std::lock_guard<std::mutex> lk(m_);
      bool spilled = false;
      if (pinned)
        shard = std::hash<std::string>{}(key) % shards_.size();
      else
        shard = pick_shard(key, spilled);
      if (shard != kNoShard) {
        lost = shards_[shard]->down;  // only a pinned pick can be down
        if (lost) {
          ++stats_.lost;
        } else {
          rid = next_id_++;
          if (is_solve) ++shards_[shard]->inflight;
          pending_.emplace(rid, Pending{c, client_id, shard, is_solve});
        }
        if (is_solve) {
          ++stats_.forwarded;
          if (spilled)
            ++stats_.spilled;
          else
            ++stats_.affinity;
          if (session_id != 0) ++stats_.session_pinned;
        } else {
          ++stats_.session_frames;
        }
      } else {
        ++stats_.rejected_backpressure;
      }
    }
    if (shard == kNoShard) {
      // Shed load at the router with the same typed rejection the
      // service's admission control would use.
      proto::SolveResponseMsg resp;
      resp.req_id = client_id;
      resp.status = proto::SolveStatus::Rejected;
      resp.reject_reason =
          static_cast<std::uint32_t>(RejectReason::QueueFull);
      resp.detail = "router backpressure: no live shard has room";
      out.clear();
      proto::encode_solve_response(out, resp);
      if (!write_buf(c->fd, c->write_m, out)) break;
      continue;
    }
    if (lost) {
      encode_lost(out, is_solve, client_id);
      if (!write_buf(c->fd, c->write_m, out)) break;
      continue;
    }
    store_u64_le(body.data(), rid);  // in-place req_id rewrite
    emit_raw_frame(out, h.type, body);
    if (!write_buf(shards_[shard]->fd, shards_[shard]->write_m, out)) {
      // Shard connection died: mark it down and, unless its reader has
      // already answered this request, answer with a typed failure.
      {
        std::lock_guard<std::mutex> lk(m_);
        shards_[shard]->down = true;
        lost = pending_.erase(rid) == 1;
        if (lost) {
          if (is_solve) --shards_[shard]->inflight;
          ++stats_.lost;
        }
      }
      if (lost) {
        encode_lost(out, is_solve, client_id);
        if (!write_buf(c->fd, c->write_m, out)) break;
      }
    }
  }
  // Wake a shard reader blocked writing to this client, then end it.
  net::shutdown_fd(c->fd);
  end_conn(c->fd, m_, c->write_m);
}

void Router::shard_reader(std::size_t shard_idx) {
  Shard& sh = *shards_[shard_idx];
  net::ByteBuffer out;
  for (;;) {
    proto::ProtoHeader h;
    std::vector<unsigned char> body;
    proto::DecodeStatus st;
    if (!read_frame(sh.fd, h, body, st)) break;
    const auto type = static_cast<proto::MsgType>(h.type);
    if ((type != proto::MsgType::SolveResponse &&
         type != proto::MsgType::SessionAck) ||
        body.size() < 8)
      break;
    const std::uint64_t rid = load_u64_le(body.data());
    Pending p;
    bool found = false;
    {
      std::lock_guard<std::mutex> lk(m_);
      auto it = pending_.find(rid);
      if (it != pending_.end()) {
        p = std::move(it->second);
        pending_.erase(it);
        if (p.counted) --sh.inflight;
        ++stats_.responses;
        found = true;
      }
    }
    if (!found) continue;  // client vanished and entry was reaped
    store_u64_le(body.data(), p.client_req_id);
    emit_raw_frame(out, h.type, body);
    (void)write_buf(p.conn->fd, p.conn->write_m, out);  // false once ended
  }
  // The connection ended (EOF, error, or a frame no shard sends): mark
  // the shard down and answer what is still pending on it, so no client
  // waits on a shard that is gone.
  std::vector<Pending> orphans;
  {
    std::lock_guard<std::mutex> lk(m_);
    sh.down = true;
    sh.inflight = 0;
    std::erase_if(pending_, [&](auto& kv) {
      if (kv.second.shard != shard_idx) return false;
      orphans.push_back(std::move(kv.second));
      return true;
    });
    stats_.lost += orphans.size();
  }
  for (const Pending& p : orphans) {
    encode_lost(out, p.counted, p.client_req_id);
    (void)write_buf(p.conn->fd, p.conn->write_m, out);  // false once ended
  }
}

void Router::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  net::shutdown_fd(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::shared_ptr<ClientConn>> conns;
  {
    std::lock_guard<std::mutex> lk(m_);
    conns.swap(conns_);
    for (const auto& c : conns) net::shutdown_fd(c->fd);
  }
  for (const auto& c : conns) c->join();  // each reader closes its fd
  for (const auto& sh : shards_) net::shutdown_fd(sh->fd);
  for (const auto& sh : shards_) {
    if (sh->reader.joinable()) sh->reader.join();
    net::close_fd(sh->fd);
  }
  net::close_fd(listen_fd_);
}

Router::Stats Router::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

}  // namespace pfem::svc
