// Stream-socket plumbing for the socket transport and the service
// protocol: address parsing ("unix:/path" and "tcp:host:port"),
// listen/accept/connect (with bounded connect retry for startup
// races), full-buffer read/write, and connected pairs for loopback.
//
// All functions throw pfem::Error on system-call failure; read_full
// returns false on clean EOF so callers can distinguish an orderly
// close from corruption.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/error.hpp"

namespace pfem::net {

/// Bind + listen on "unix:/path" (unlinks a stale socket file first) or
/// "tcp:host:port" (host may be empty for INADDR_ANY).  Returns the
/// listening fd.
[[nodiscard]] int listen_on(const std::string& addr);

/// Connect to an address in the same syntax.  Retries with a short
/// sleep until `timeout_seconds` elapses — servers and clients are
/// launched concurrently, so "connection refused / no such file" during
/// startup is expected, not fatal.
[[nodiscard]] int connect_to(const std::string& addr,
                             double timeout_seconds = 10.0);

/// Accept one connection; returns the connected fd, or -1 when the
/// listening socket was shut down (the orderly stop path).  Out of fds
/// or buffers (EMFILE, ENFILE, ENOBUFS, ENOMEM) or an aborted pending
/// connection, it retries every 10 ms.
[[nodiscard]] int accept_conn(int listen_fd);

/// A connected AF_UNIX stream pair (for in-process loopback and
/// pre-fork parent/child wiring).
[[nodiscard]] std::array<int, 2> stream_pair();

/// Read exactly n bytes.  Returns false on EOF before the first byte
/// OR mid-buffer (caller treats mid-buffer EOF as a truncated frame);
/// throws on errors other than EINTR.
[[nodiscard]] bool read_full(int fd, void* buf, std::size_t n);

/// Write exactly n bytes (SIGPIPE suppressed).  Returns false when the
/// peer has closed; throws on other errors.
[[nodiscard]] bool write_full(int fd, const void* buf, std::size_t n);

void close_fd(int fd) noexcept;

/// shutdown(2) both directions, waking any thread blocked in read —
/// the orderly way to stop reader loops before close.
void shutdown_fd(int fd) noexcept;

}  // namespace pfem::net
