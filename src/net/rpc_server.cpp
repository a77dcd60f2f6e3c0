#include "net/rpc_server.hpp"

#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <utility>

namespace anchor::net {

namespace {

/// Pause after a failed accept. Retrying at once would spin when the
/// failure repeats; this retries 100 times a second.
constexpr std::chrono::milliseconds kAcceptBackoff{10};

/// RLIMIT_NOFILE less the descriptors open now and `reserve`, at least 1;
/// SIZE_MAX when the limit is infinite or unreadable. Open descriptors are
/// counted in /proc/self/fd (the listing's own descriptor included, which
/// keeps one more free); without /proc only the reserve is held back.
std::size_t connection_cap(std::size_t reserve) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0 ||
      lim.rlim_cur == RLIM_INFINITY) {
    return std::numeric_limits<std::size_t>::max();
  }
  std::size_t open = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc/self/fd", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++open;
  }
  const std::size_t held = open + reserve;
  const std::size_t limit = static_cast<std::size_t>(lim.rlim_cur);
  return limit > held ? limit - held : 1;
}

}  // namespace

void reply_error(TcpStream& stream, const std::string& message) {
  write_message(stream, MsgType::kError, message);
}

RpcServer::RpcServer(std::uint16_t port, int poll_interval_ms,
                     int io_timeout_ms, obs::TraceStage recv_stage,
                     obs::Counter* frames)
    : poll_interval_ms_(poll_interval_ms),
      io_timeout_ms_(io_timeout_ms),
      recv_stage_(recv_stage),
      frames_(frames),
      listener_(TcpListener::bind_loopback(port)) {
  handle_query(MsgType::kPing, [] { return Empty{}; });
  handle(MsgType::kShutdown, [this](RpcCall& call) { return shutdown(call); });
}

RpcServer::~RpcServer() { stop(); }

void RpcServer::handle(MsgType type, Handler handler) {
  handlers_[static_cast<std::uint8_t>(type)] = std::move(handler);
}

void RpcServer::start() {
  max_connections_ = connection_cap(kDescriptorReserve);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

bool RpcServer::shutdown(RpcCall& call) {
  decode<Empty>(&call.reader);
  // Flags first, reply second: a client that received the reply must
  // observe shutdown_requested() as true.
  shutdown_requested_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  write_message(call.stream, MsgType::kShutdownReply, Empty{});
  return false;  // this connection closes; stop() joins the others
}

void RpcServer::stop() {
  stop_.store(true, std::memory_order_release);
  // Joining the accept thread first means no connection is pushed after
  // the final reap and the listener is never closed mid-accept.
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_connections(/*all=*/true);
  listener_.close();
}

std::size_t RpcServer::reap_connections(bool all) {
  std::vector<std::unique_ptr<Connection>> to_join;
  std::size_t remaining = 0;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (all) {
      to_join.swap(connections_);
    } else {
      for (std::size_t i = 0; i < connections_.size();) {
        if (connections_[i]->done.load(std::memory_order_acquire)) {
          to_join.push_back(std::move(connections_[i]));
          connections_[i] = std::move(connections_.back());
          connections_.pop_back();
        } else {
          ++i;
        }
      }
    }
    remaining = connections_.size();
  }
  for (auto& conn : to_join) conn->thread.join();
  return remaining;
}

void RpcServer::accept_loop() {
  bool failing = false;  // logs once per run of failures, not per retry
  while (!stop_.load(std::memory_order_acquire)) {
    if (reap_connections(/*all=*/false) >= max_connections_) {
      // One more would eat into the descriptor reserve: leave new
      // connections in the backlog until one of these closes.
      std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    try {
      TcpStream conn = listener_.accept(poll_interval_ms_);
      if (!conn.valid()) continue;  // poll timeout — recheck stop flag
      auto connection = std::make_unique<Connection>();
      Connection* raw = connection.get();
      // When no thread can be made, std::system_error unwinds the lambda
      // and its stream: that one connection is closed unanswered.
      raw->thread =
          std::thread([this, raw, stream = std::move(conn)]() mutable {
            serve_connection(std::move(stream));
            raw->done.store(true, std::memory_order_release);
          });
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(connection));
      failing = false;
    } catch (const std::exception& e) {
      // NetError from accept or std::system_error from std::thread.
      // (Running out of descriptors is not an error here: accept()
      // pauses and returns no connection, see TcpListener::accept.)
      if (!failing) {
        std::cerr << "port " << port() << ": " << e.what()
                  << "; retrying every " << kAcceptBackoff.count()
                  << " ms\n";
      }
      failing = true;
      std::this_thread::sleep_for(kAcceptBackoff);
    }
  }
}

void RpcServer::serve_connection(TcpStream stream) {
  stream.set_io_timeout(io_timeout_ms_);
  MsgType type{};
  std::vector<std::uint8_t> payload;
  obs::TraceContext trace;
  try {
    while (!stop_.load(std::memory_order_acquire)) {
      // Poll so a stop issued while the client is idle is honored within
      // one interval instead of blocking in recv forever.
      if (!stream.wait_readable(poll_interval_ms_)) continue;
      if (!read_frame(stream, &type, &payload, &trace)) break;  // went away
      const std::uint64_t recv_ns =
          trace.sampled() ? obs::Tracer::now_ns() : 0;
      if (frames_ != nullptr) frames_->inc();
      WireReader reader(payload);
      RpcCall call{stream, reader, trace};
      const Handler& handler = handlers_[static_cast<std::uint8_t>(type)];
      bool keep = true;
      try {
        if (handler) {
          keep = handler(call);
        } else {
          reply_error(stream, "unknown request type " +
                                  std::to_string(static_cast<int>(type)));
        }
      } catch (const NetError&) {
        throw;
      } catch (const std::exception& e) {
        if (!reader.decoded()) throw;  // malformed request: close
        reply_error(stream, e.what());  // serving failure: answer it
      }
      if (trace.sampled()) {
        obs::Tracer::instance().record(trace, recv_stage_, recv_ns,
                                       obs::Tracer::now_ns());
      }
      if (!keep) break;
    }
  } catch (const WireError&) {
    // Malformed framing or payload: the stream position is unrecoverable,
    // so close without a reply (an error frame could land mid-garbage
    // anyway).
  } catch (const NetError&) {
    // Peer reset, vanished or stalled mid-message; nothing left to answer.
  } catch (const std::exception& e) {
    // A handler bug; close this connection rather than the daemon.
    std::cerr << "port " << port() << ": closing a connection: " << e.what()
              << "\n";
  }
}

}  // namespace anchor::net
