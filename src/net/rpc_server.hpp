// The RPC server core shared by both daemons (anchor_served's net::Server
// and anchor_router's cluster::Router): a loopback listener, one accept
// thread, one blocking handler thread per connection (joined as they
// finish), the stop-aware frame loop, the receive-stage trace span, and a
// handler table keyed by MsgType. The core answers PING and SHUTDOWN; a
// daemon registers one handler per other request type it serves, and any
// other type is answered with an Error frame.
//
// Error phases. A handler decodes its request first, with one
// decode<T>(&call.reader). An exception before that decode completes
// closes the connection without a reply, because the peer speaks a
// layout this process does not. An exception after it is a serving
// failure (unknown version, empty store, a reply over the frame cap): the
// core answers it with an Error frame and keeps the connection. A
// NetError always closes the connection: the stream framing is gone.
//
// Descriptor reserve. start() sizes a connection cap from RLIMIT_NOFILE
// less the descriptors open at that moment and kDescriptorReserve; while
// that many connections are open the accept loop accepts none, and new
// connections wait in the backlog until one closes. The reserve keeps a
// few descriptors free for what else the process opens (a handler's
// outbound socket, a metrics scrape, a sanitizer runtime's probe pipe).
// Should the process run out anyway, new connections wait in the backlog
// the same way (see TcpListener::accept). Other accept failures, and a new
// connection no thread can be started for, drop that connection and back
// off, with one stderr line per run of failures; the daemon keeps serving
// the connections it has.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace anchor::net {

/// Answers the current request with an Error frame carrying `message`.
void reply_error(TcpStream& stream, const std::string& message);

/// One request frame as a handler sees it.
struct RpcCall {
  TcpStream& stream;               // the reply goes here
  WireReader& reader;              // over the request payload
  const obs::TraceContext& trace;  // invalid when untraced
};

class RpcServer {
 public:
  /// Descriptors the accept loop leaves free (see the header comment).
  static constexpr std::size_t kDescriptorReserve = 16;

  /// Serves one request and returns false to close the connection.
  using Handler = std::function<bool(RpcCall& call)>;

  /// Binds 127.0.0.1:port (0 = ephemeral). Sampled requests record one
  /// `recv_stage` span from frame parsed to reply written; `frames`, when
  /// set, counts every request frame dispatched.
  RpcServer(std::uint16_t port, int poll_interval_ms, int io_timeout_ms,
            obs::TraceStage recv_stage, obs::Counter* frames = nullptr);
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Registers (or replaces) the handler for `type`. Call before start().
  void handle(MsgType type, Handler handler);
  /// Registers a query: a request with an empty payload, answered by a
  /// reply_type(type) frame carrying the payload `reply()` returns.
  template <class F>
  void handle_query(MsgType type, F reply) {
    handle(type, [type, reply = std::move(reply)](RpcCall& call) {
      decode<Empty>(&call.reader);
      write_message(call.stream, reply_type(type), reply());
      return true;
    });
  }

  /// Sizes the connection cap, then serves on a background thread;
  /// returns immediately.
  void start();

  /// Connections served at once: RLIMIT_NOFILE less the descriptors open
  /// when start() ran and kDescriptorReserve (at least 1; SIZE_MAX with no
  /// finite limit). 0 before start().
  std::size_t max_connections() const { return max_connections_; }

  /// Stops accepting, joins every connection thread, and closes the
  /// listener. Idempotent; safe from any thread but a handler's own.
  void stop();
  /// The SHUTDOWN handler, for a daemon that replaces it to do more first:
  /// shutdown_requested() turns true before the reply goes out, then the
  /// accept loop and every idle connection stop within one poll interval.
  /// The daemon still calls stop() to join.
  bool shutdown(RpcCall& call);

  bool stopping() const { return stop_.load(std::memory_order_acquire); }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // set by the handler as it exits
  };

  void accept_loop();
  void serve_connection(TcpStream stream);
  /// Joins finished connection threads (every accept iteration, so a
  /// long-running daemon keeps no dead thread per connection ever
  /// served); `all` joins the rest too. Returns how many remain.
  std::size_t reap_connections(bool all);

  const int poll_interval_ms_;
  const int io_timeout_ms_;
  const obs::TraceStage recv_stage_;
  obs::Counter* const frames_;
  TcpListener listener_;
  std::array<Handler, 256> handlers_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::size_t max_connections_ = 0;  // set by start() before the thread
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace anchor::net
