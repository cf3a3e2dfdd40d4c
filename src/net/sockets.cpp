#include "net/sockets.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace pfem::net {

namespace {

struct Parsed {
  bool is_unix = false;
  std::string path;  // unix
  std::string host;  // tcp
  std::string port;  // tcp
};

Parsed parse_addr(const std::string& addr) {
  Parsed p;
  if (addr.rfind("unix:", 0) == 0) {
    p.is_unix = true;
    p.path = addr.substr(5);
    PFEM_CHECK_MSG(!p.path.empty(), "empty unix socket path in " << addr);
    PFEM_CHECK_MSG(p.path.size() < sizeof(sockaddr_un{}.sun_path),
                   "unix socket path too long: " << p.path);
    return p;
  }
  if (addr.rfind("tcp:", 0) == 0) {
    const std::string rest = addr.substr(4);
    const auto colon = rest.rfind(':');
    PFEM_CHECK_MSG(colon != std::string::npos,
                   "tcp address needs host:port, got " << addr);
    p.host = rest.substr(0, colon);
    p.port = rest.substr(colon + 1);
    PFEM_CHECK_MSG(!p.port.empty(), "tcp address needs a port: " << addr);
    return p;
  }
  PFEM_CHECK_MSG(false,
                 "address must be unix:/path or tcp:host:port, got " << addr);
  return p;  // unreachable
}

[[noreturn]] void throw_errno(const char* what, const std::string& detail) {
  PFEM_CHECK_MSG(false, what << " failed (" << std::strerror(errno) << ") "
                             << detail);
  std::abort();  // unreachable; PFEM_CHECK_MSG throws
}

int try_connect_once(const Parsed& p) {
  if (p.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket", p.path);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, p.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0)
      return fd;
    ::close(fd);
    return -1;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const char* host = p.host.empty() ? "127.0.0.1" : p.host.c_str();
  if (::getaddrinfo(host, p.port.c_str(), &hints, &res) != 0) return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

}  // namespace

int listen_on(const std::string& addr) {
  const Parsed p = parse_addr(addr);
  if (p.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket", p.path);
    ::unlink(p.path.c_str());  // stale socket from a previous run
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, p.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0)
      throw_errno("bind", p.path);
    if (::listen(fd, 64) != 0) throw_errno("listen", p.path);
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const char* host = p.host.empty() ? nullptr : p.host.c_str();
  if (::getaddrinfo(host, p.port.c_str(), &hints, &res) != 0)
    throw_errno("getaddrinfo", p.host + ":" + p.port);
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0)
      break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) throw_errno("bind/listen", p.host + ":" + p.port);
  return fd;
}

int connect_to(const std::string& addr, double timeout_seconds) {
  const Parsed p = parse_addr(addr);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    const int fd = try_connect_once(p);
    if (fd >= 0) return fd;
    if (std::chrono::steady_clock::now() >= deadline)
      PFEM_CHECK_MSG(false, "connect to " << addr << " timed out after "
                                          << timeout_seconds << " s");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int accept_conn(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    if (errno == EINTR) continue;
    // Out of fds or buffers, or a client that left the backlog: the
    // pending connection waits until an ended one frees its fd.
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM || errno == ECONNABORTED) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    return -1;  // listening socket closed/shut down: orderly stop
  }
}

std::array<int, 2> stream_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw_errno("socketpair", "");
  return {fds[0], fds[1]};
}

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return false;  // peer died: treat as EOF
    throw_errno("read", "");
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t put = 0;
  while (put < n) {
    const ssize_t w = ::send(fd, p + put, n - put, MSG_NOSIGNAL);
    if (w >= 0) {
      put += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EPIPE || errno == ECONNRESET) return false;
    throw_errno("write", "");
  }
  return true;
}

void close_fd(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

void shutdown_fd(int fd) noexcept {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace pfem::net
