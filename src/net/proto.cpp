#include "net/proto.hpp"

namespace pfem::net::proto {

namespace {

/// Sane caps on repeated fields so a hostile count cannot drive a huge
/// allocation before the payload-size check catches it.
constexpr std::uint32_t kMaxStringBytes = 1u << 16;
constexpr std::uint32_t kMaxVectors = 1u << 12;
constexpr std::uint64_t kMaxVectorDoubles = kMaxBodyBytes / sizeof(real_t);

void begin_frame(ByteBuffer& out, MsgType type) {
  put_u32(out, kProtoMagic);
  put_u16(out, kProtoVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, 0);  // body_len patched in end_frame
}

void end_frame(ByteBuffer& out, std::size_t frame_start) {
  const std::uint64_t body_len =
      out.size() - frame_start - kProtoHeaderBytes;
  for (int i = 0; i < 8; ++i)
    out[frame_start + 8 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>((body_len >> (8 * i)) & 0xff);
}

void put_string(ByteBuffer& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  put_bytes(out, s.data(), s.size());
}

void put_vector(ByteBuffer& out, const Vector& v) {
  put_u64(out, v.size());
  put_bytes(out, v.data(), v.size() * sizeof(real_t));
}

[[nodiscard]] DecodeStatus get_short_string(ByteReader& r, std::string& s) {
  std::uint32_t n;
  if (!r.get_u32(n)) return DecodeStatus::BadBody;
  if (n > kMaxStringBytes) return DecodeStatus::Oversized;  // lying count
  return r.get_string(s, n) ? DecodeStatus::Ok : DecodeStatus::BadBody;
}

[[nodiscard]] DecodeStatus get_vector(ByteReader& r, Vector& v) {
  std::uint64_t n;
  if (!r.get_u64(n)) return DecodeStatus::BadBody;
  if (n > kMaxVectorDoubles) return DecodeStatus::Oversized;  // lying count
  if (n * sizeof(real_t) > r.remaining()) return DecodeStatus::BadBody;
  v.resize(n);
  return r.get_doubles(v.data(), n) ? DecodeStatus::Ok : DecodeStatus::BadBody;
}

/// Bodies are fixed compositions, not streams: leftover bytes mean the
/// peer and we disagree about the layout — structurally invalid.
[[nodiscard]] DecodeStatus finish(const ByteReader& r) {
  return r.remaining() == 0 ? DecodeStatus::Ok : DecodeStatus::BadBody;
}

}  // namespace

void encode_hello(ByteBuffer& out, const HelloMsg& m) {
  const std::size_t start = out.size();
  begin_frame(out, MsgType::Hello);
  put_string(out, m.client_name);
  end_frame(out, start);
}

void encode_hello_ack(ByteBuffer& out, const HelloAckMsg& m) {
  const std::size_t start = out.size();
  begin_frame(out, MsgType::HelloAck);
  put_string(out, m.server_name);
  put_i32(out, m.nranks);
  end_frame(out, start);
}

void encode_solve_request(ByteBuffer& out, const SolveRequestMsg& m) {
  const std::size_t start = out.size();
  begin_frame(out, MsgType::SolveRequest);
  put_u64(out, m.req_id);  // fixed offset kProtoHeaderBytes: router rewrite
  put_string(out, m.operator_key);
  put_u64(out, m.session_id);  // right after the key: router session peek
  put_u32(out, m.priority);
  put_u64(out, m.deadline_ns);
  put_u64(out, m.seed);
  put_u32(out, m.want_solution ? 1 : 0);
  put_i32(out, m.restart);
  put_i32(out, m.max_iters);
  put_f64(out, m.tol);
  put_u32(out, static_cast<std::uint32_t>(m.rhs.size()));
  for (const Vector& v : m.rhs) put_vector(out, v);
  end_frame(out, start);
}

void encode_solve_response(ByteBuffer& out, const SolveResponseMsg& m) {
  const std::size_t start = out.size();
  begin_frame(out, MsgType::SolveResponse);
  put_u64(out, m.req_id);  // fixed offset kProtoHeaderBytes: router rewrite
  put_u32(out, static_cast<std::uint32_t>(m.status));
  put_u32(out, m.reject_reason);
  put_string(out, m.detail);
  put_u32(out, (m.cache_hit ? 1u : 0u) | (m.comm ? 2u : 0u));
  put_f64(out, m.queue_seconds);
  put_f64(out, m.solve_seconds);
  put_u32(out, static_cast<std::uint32_t>(m.items.size()));
  for (const SolveItemMsg& it : m.items) {
    put_u32(out, (it.converged ? 1u : 0u) | (it.breakdown ? 2u : 0u));
    put_i32(out, it.iterations);
    put_f64(out, it.final_relres);
  }
  put_u32(out, static_cast<std::uint32_t>(m.solution.size()));
  for (const Vector& v : m.solution) put_vector(out, v);
  end_frame(out, start);
}

void encode_session_open(ByteBuffer& out, const SessionOpenMsg& m) {
  const std::size_t start = out.size();
  begin_frame(out, MsgType::SessionOpen);
  put_u64(out, m.req_id);  // fixed offset kProtoHeaderBytes: router rewrite
  put_string(out, m.operator_key);
  end_frame(out, start);
}

void encode_session_close(ByteBuffer& out, const SessionCloseMsg& m) {
  const std::size_t start = out.size();
  begin_frame(out, MsgType::SessionClose);
  put_u64(out, m.req_id);  // fixed offset kProtoHeaderBytes: router rewrite
  put_string(out, m.operator_key);
  put_u64(out, m.session_id);
  end_frame(out, start);
}

void encode_session_ack(ByteBuffer& out, const SessionAckMsg& m) {
  const std::size_t start = out.size();
  begin_frame(out, MsgType::SessionAck);
  put_u64(out, m.req_id);  // fixed offset kProtoHeaderBytes: router rewrite
  put_u64(out, m.session_id);
  put_string(out, m.detail);
  end_frame(out, start);
}

DecodeStatus decode_header(std::span<const unsigned char> hdr,
                           ProtoHeader& out) {
  if (hdr.size() < kProtoHeaderBytes) return DecodeStatus::Truncated;
  ByteReader r(hdr);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  (void)r.get_u32(magic);
  (void)r.get_u16(version);
  (void)r.get_u16(out.type);
  (void)r.get_u64(out.body_len);
  if (magic != kProtoMagic) return DecodeStatus::BadMagic;
  if (version != kProtoVersion) return DecodeStatus::BadVersion;
  if (out.type < static_cast<std::uint16_t>(MsgType::Hello) ||
      out.type > static_cast<std::uint16_t>(MsgType::SessionClose))
    return DecodeStatus::BadType;
  if (out.body_len > kMaxBodyBytes) return DecodeStatus::Oversized;
  return DecodeStatus::Ok;
}

DecodeStatus decode_hello(std::span<const unsigned char> body,
                          HelloMsg& out) {
  ByteReader r(body);
  if (const DecodeStatus s = get_short_string(r, out.client_name);
      s != DecodeStatus::Ok)
    return s;
  return finish(r);
}

DecodeStatus decode_hello_ack(std::span<const unsigned char> body,
                              HelloAckMsg& out) {
  ByteReader r(body);
  if (const DecodeStatus s = get_short_string(r, out.server_name);
      s != DecodeStatus::Ok)
    return s;
  if (!r.get_i32(out.nranks)) return DecodeStatus::BadBody;
  return finish(r);
}

DecodeStatus decode_solve_request(std::span<const unsigned char> body,
                                  SolveRequestMsg& out) {
  ByteReader r(body);
  if (!r.get_u64(out.req_id)) return DecodeStatus::BadBody;
  if (const DecodeStatus s = get_short_string(r, out.operator_key);
      s != DecodeStatus::Ok)
    return s;
  std::uint32_t want, nrhs;
  if (!r.get_u64(out.session_id) || !r.get_u32(out.priority) ||
      !r.get_u64(out.deadline_ns) || !r.get_u64(out.seed) ||
      !r.get_u32(want) || !r.get_i32(out.restart) ||
      !r.get_i32(out.max_iters) || !r.get_f64(out.tol) || !r.get_u32(nrhs))
    return DecodeStatus::BadBody;
  if (nrhs > kMaxVectors) return DecodeStatus::Oversized;
  out.want_solution = want != 0;
  out.rhs.resize(nrhs);
  for (Vector& v : out.rhs)
    if (const DecodeStatus s = get_vector(r, v); s != DecodeStatus::Ok)
      return s;
  return finish(r);
}

DecodeStatus decode_solve_response(std::span<const unsigned char> body,
                                   SolveResponseMsg& out) {
  ByteReader r(body);
  std::uint32_t status, flags, nitems;
  if (!r.get_u64(out.req_id) || !r.get_u32(status) ||
      !r.get_u32(out.reject_reason))
    return DecodeStatus::BadBody;
  if (const DecodeStatus s = get_short_string(r, out.detail);
      s != DecodeStatus::Ok)
    return s;
  if (!r.get_u32(flags) || !r.get_f64(out.queue_seconds) ||
      !r.get_f64(out.solve_seconds) || !r.get_u32(nitems))
    return DecodeStatus::BadBody;
  if (status > static_cast<std::uint32_t>(SolveStatus::Failed))
    return DecodeStatus::BadBody;
  if (nitems > kMaxVectors) return DecodeStatus::Oversized;
  out.status = static_cast<SolveStatus>(status);
  out.cache_hit = (flags & 1u) != 0;
  out.comm = (flags & 2u) != 0;
  out.items.resize(nitems);
  for (SolveItemMsg& it : out.items) {
    std::uint32_t f;
    if (!r.get_u32(f) || !r.get_i32(it.iterations) ||
        !r.get_f64(it.final_relres))
      return DecodeStatus::BadBody;
    it.converged = (f & 1u) != 0;
    it.breakdown = (f & 2u) != 0;
  }
  std::uint32_t nsol;
  if (!r.get_u32(nsol)) return DecodeStatus::BadBody;
  if (nsol > kMaxVectors) return DecodeStatus::Oversized;
  out.solution.resize(nsol);
  for (Vector& v : out.solution)
    if (const DecodeStatus s = get_vector(r, v); s != DecodeStatus::Ok)
      return s;
  return finish(r);
}

DecodeStatus decode_session_open(std::span<const unsigned char> body,
                                 SessionOpenMsg& out) {
  ByteReader r(body);
  if (!r.get_u64(out.req_id)) return DecodeStatus::BadBody;
  if (const DecodeStatus s = get_short_string(r, out.operator_key);
      s != DecodeStatus::Ok)
    return s;
  return finish(r);
}

DecodeStatus decode_session_close(std::span<const unsigned char> body,
                                  SessionCloseMsg& out) {
  ByteReader r(body);
  if (!r.get_u64(out.req_id)) return DecodeStatus::BadBody;
  if (const DecodeStatus s = get_short_string(r, out.operator_key);
      s != DecodeStatus::Ok)
    return s;
  if (!r.get_u64(out.session_id)) return DecodeStatus::BadBody;
  return finish(r);
}

DecodeStatus decode_session_ack(std::span<const unsigned char> body,
                                SessionAckMsg& out) {
  ByteReader r(body);
  if (!r.get_u64(out.req_id) || !r.get_u64(out.session_id))
    return DecodeStatus::BadBody;
  if (const DecodeStatus s = get_short_string(r, out.detail);
      s != DecodeStatus::Ok)
    return s;
  return finish(r);
}

}  // namespace pfem::net::proto
