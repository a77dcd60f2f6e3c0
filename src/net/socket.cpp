#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace anchor::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  // Best-effort: a failure here only costs latency, not correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("invalid IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

bool is_resource_exhaustion(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

// ---- TcpStream ---------------------------------------------------------

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  int err = 0;
  TcpStream stream = try_connect(host, port, &err);
  if (!stream.valid()) {
    throw NetError("connect to " + host + ":" + std::to_string(port) + ": " +
                   std::strerror(err));
  }
  return stream;
}

TcpStream TcpStream::try_connect(const std::string& host, std::uint16_t port,
                                 int* err) {
  const sockaddr_in addr = loopback_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *err = errno;
    return TcpStream(-1);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *err = errno;  // before close() can overwrite it
    ::close(fd);
    return TcpStream(-1);
  }
  set_nodelay(fd);
  return TcpStream(fd);
}

void TcpStream::set_io_timeout(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void TcpStream::write_all(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-write surfaces as EPIPE, not
    // a process-killing SIGPIPE.
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw NetError("send timed out (peer not draining)");
      }
      throw_errno("send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool TcpStream::read_exact_or_eof(void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw NetError("recv timed out mid-message");
      }
      throw_errno("recv");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF on a message boundary
      throw NetError("peer closed mid-message (" + std::to_string(got) + "/" +
                     std::to_string(n) + " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void TcpStream::read_exact(void* data, std::size_t n) {
  if (!read_exact_or_eof(data, n)) {
    throw NetError("unexpected EOF");
  }
}

bool TcpStream::wait_readable(int timeout_ms) const {
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return r > 0;
  }
}

// ---- TcpListener -------------------------------------------------------

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener TcpListener::bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr("127.0.0.1", port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw NetError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  return TcpListener(fd, ntohs(addr.sin_port));
}

TcpStream TcpListener::accept(int timeout_ms) {
  // A closed listener yields "no connection" rather than EBADF, so an
  // accept loop that raced a stop/close exits via its own stop flag.
  if (fd_ < 0) return TcpStream(-1);
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (r == 0) return TcpStream(-1);  // timeout
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (is_resource_exhaustion(errno)) {
        // The connection stays in the backlog, so poll would report it
        // ready again at once: pause instead of spinning, and let the
        // caller retry once a descriptor or buffer frees up.
        constexpr int kExhaustedPauseMs = 10;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            timeout_ms < 0 ? kExhaustedPauseMs
                           : std::min(timeout_ms, kExhaustedPauseMs)));
        return TcpStream(-1);
      }
      throw_errno("accept");
    }
    set_nodelay(conn);
    return TcpStream(conn);
  }
}

}  // namespace anchor::net
