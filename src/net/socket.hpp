// Minimal RAII TCP sockets for the serving front-end (POSIX, loopback-
// oriented). Just enough surface for a length-prefixed RPC protocol:
// bind/listen/accept with a pollable timeout, connect, and exact-count
// read/write. No TLS, no non-blocking writes — out-of-process consumers on
// the same host (or a trusted LAN) are the target, per ROADMAP's RPC rung.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace anchor::net {

/// Thrown on socket-level failures (connect refused, peer reset, EOF mid-
/// message). Protocol-level failures throw WireError/RpcError instead.
struct NetError : std::runtime_error {
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// True for the errno values (EMFILE, ENFILE, ENOBUFS, ENOMEM) that report
/// this process or host out of descriptors or buffers: a local condition
/// that says nothing about the peer.
bool is_resource_exhaustion(int err);

/// A connected TCP stream. Move-constructible, not assignable; closes on
/// destruction.
class TcpStream {
 public:
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();
  TcpStream(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"). Throws
  /// NetError on failure.
  static TcpStream connect(const std::string& host, std::uint16_t port);

  /// connect() that reports a failed socket()/connect() as an invalid
  /// stream with its errno in *err instead of throwing, so a caller can
  /// tell a local failure from a refusing peer. Still throws NetError on a
  /// malformed host.
  static TcpStream try_connect(const std::string& host, std::uint16_t port,
                               int* err);

  /// Writes exactly `n` bytes (TCP_NODELAY is set at construction, so
  /// frames flush immediately). Throws NetError on any short write.
  void write_all(const void* data, std::size_t n);

  /// Reads exactly `n` bytes. Throws NetError on EOF or error.
  void read_exact(void* data, std::size_t n);

  /// Like read_exact, but a clean EOF *before the first byte* returns
  /// false (peer closed between messages — the normal way a connection
  /// ends). EOF mid-buffer still throws.
  bool read_exact_or_eof(void* data, std::size_t n);

  /// Blocks until the stream is readable or `timeout_ms` elapsed. Lets a
  /// server poll a stop flag while idle connections sit open.
  bool wait_readable(int timeout_ms) const;

  /// Bounds every individual recv/send wait: a peer that stalls
  /// mid-message (accepted the length prefix, never sends the payload;
  /// stops draining a reply) surfaces as NetError after `ms` instead of
  /// blocking the handler thread forever. Any byte of progress restarts
  /// the clock, so slow-but-live peers are unaffected. 0 disables.
  void set_io_timeout(int ms);

  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// A listening socket bound to 127.0.0.1. Neither copyable nor movable;
/// closes on destruction.
class TcpListener {
 public:
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on 127.0.0.1:`port`; port 0 picks an ephemeral port
  /// (read it back with port()). Throws NetError on failure.
  static TcpListener bind_loopback(std::uint16_t port);

  std::uint16_t port() const { return port_; }

  /// Accepts one connection, waiting at most `timeout_ms` (-1 = forever).
  /// Returns an invalid stream on timeout; throws NetError on failure.
  /// The accept loop polls with a finite timeout so a stop flag set by
  /// another thread is observed promptly. Running out of descriptors or
  /// socket memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) is not a failure:
  /// the connection stays queued, and the call pauses up to 10 ms and
  /// returns an invalid stream, as on a timeout.
  TcpStream accept(int timeout_ms);

  void close();

 private:
  explicit TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace anchor::net
