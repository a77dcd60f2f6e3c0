// Blocking RPC client for the serving daemon. One connection, one request
// in flight at a time — the server-side batcher provides the concurrency,
// coalescing requests from many such clients into shared batches.
//
// Results come back as the same serve-layer structs in-process callers
// get (LookupResult, GateReport), so code can swap between the in-process
// LookupService and a remote daemon without changing its downstream types.
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/lookup_service.hpp"

namespace anchor::net {

/// The server answered with an error frame (e.g. unknown candidate
/// version). The connection remains usable.
struct RpcError : std::runtime_error {
  explicit RpcError(const std::string& what) : std::runtime_error(what) {}
};

class Client {
 public:
  /// Connects to the daemon; throws NetError when nothing is listening.
  /// `rpc_timeout_ms` bounds every subsequent send/recv on the connection
  /// (0 = wait forever, the pre-deadline behavior): a backend that
  /// accepts the request and then hangs surfaces as a NetError the caller
  /// can retry, instead of wedging the calling thread for good.
  Client(const std::string& host, std::uint16_t port, int rpc_timeout_ms = 0);

  /// Re-arms the per-operation deadline on the live connection.
  void set_rpc_timeout(int timeout_ms) { stream_.set_io_timeout(timeout_ms); }

  /// Batched lookups, mirroring LookupService's entry points.
  serve::LookupResult lookup_ids(const std::vector<std::size_t>& ids);
  serve::LookupResult lookup_words(const std::vector<std::string>& words);
  /// Single-key convenience (still one RPC; the server coalesces).
  serve::LookupResult lookup_id(std::size_t id);

  /// Approximate nearest-neighbor search against the server's live
  /// IVF-PQ index (the TOPK RPC). The by-id / by-word forms resolve the
  /// query row server-side through the batcher; the raw form carries the
  /// vector. nprobe/rerank 0 = server defaults. Throws RpcError when the
  /// server has TOPK disabled or no live version.
  ann::TopKResult topk_id(std::uint64_t id, std::size_t k,
                          std::size_t nprobe = 0, std::size_t rerank = 0);
  ann::TopKResult topk_word(const std::string& word, std::size_t k,
                            std::size_t nprobe = 0, std::size_t rerank = 0);
  ann::TopKResult topk_vector(const std::vector<float>& query, std::size_t k,
                              std::size_t nprobe = 0, std::size_t rerank = 0);
  /// Raw request form (what the cluster router uses for candidates-mode
  /// fan-out); the three conveniences above wrap it.
  ann::TopKResult topk(const TopKRequest& req);

  /// Gates + promotes `candidate` on the server. Throws RpcError when the
  /// version is unknown there. `force` bypasses the instability gate and
  /// flips live directly (still audited, still refused while a canary
  /// runs) — the escape hatch a rollback needs when the near-threshold
  /// gate would refuse the reverse direction; not for routine promotes.
  serve::GateReport try_promote(const std::string& candidate,
                                bool force = false);

  /// Starts a two-phase canaried promotion of `candidate` on the server:
  /// offline gate first, then online shadow-traffic agreement (the server
  /// auto-promotes/auto-rolls-back; poll canary_status()). fraction /
  /// shadow_rate ≤ 0 use the server's configured defaults. Throws
  /// RpcError when the version is unknown or a canary is already running.
  CanaryStatusReport canary_start(const std::string& candidate,
                                  double fraction = 0.0,
                                  double shadow_rate = 0.0);
  /// State + online measurements of the current (or last) canary.
  CanaryStatusReport canary_status();
  /// Aborts a running canary (incumbent stays live); returns the
  /// resulting status. No-op when none is running. With `drain` the
  /// server finishes scoring in-flight shadows first, so the returned
  /// status is the final measured word on the candidate.
  CanaryStatusReport canary_abort(bool drain = false);

  /// Cluster-router RPCs (anchor_router answers these; a plain backend
  /// replies with an Error frame). rollout_start kicks off a shard-by-
  /// shard promotion of `candidate`: mode 0 = offline gated promote per
  /// shard, mode 1 = per-shard canary (fraction / shadow_rate ≤ 0 use the
  /// backend's configured defaults). The reply is the rollout's state at
  /// that instant; poll rollout_status() until report.terminal().
  RolloutStatusReport rollout_start(const std::string& candidate,
                                    std::uint8_t mode = 0,
                                    double fraction = 0.0,
                                    double shadow_rate = 0.0);
  RolloutStatusReport rollout_status();
  /// Stops a running rollout between shards (draining an in-flight
  /// canary) and rolls already-promoted shards back.
  RolloutStatusReport rollout_abort(bool drain = true);
  /// The router's ShardMap in its serialized text form
  /// (cluster::ShardMap::parse round-trips it).
  std::string shard_map();

  /// Installs (spec != "") or clears (spec == "") a fault-injection
  /// config on the backend — FaultConfig text form, e.g.
  /// "delay=0.2:50,drop=0.05". Returns the canonical form the server
  /// echoed. Throws RpcError when the backend was not started with
  /// --fault-inject.
  std::string fault_set(const std::string& spec);

  ServerStatsReport stats();
  /// The server's metrics registry (counters, gauges, histograms) — what
  /// `anchor_cli metrics` renders. Both daemons answer this.
  obs::MetricsReport metrics();
  /// The server's load/heat telemetry: windowed request rates, the
  /// heavy-hitter sketch, and the range heat map. Against a router this
  /// returns the fleet merge in global id space.
  HeatReport heat();
  void ping();
  /// Asks the daemon to exit its serving loop. The reply is confirmed
  /// before returning, so a scripted caller can wait(1) on the daemon pid.
  void shutdown_server();

  // ---- request tracing --------------------------------------------------
  // A traced request carries a TraceContext in its frame extension; every
  // stage along the path (server dispatch, batcher, lookup, and — through
  // a router — scatter/gather and per-shard RTTs) records spans into its
  // process's obs::Tracer. The client itself records the end-to-end
  // kClientSend span and triggers the slow-request log.

  /// Fraction of requests to trace (0 = off, 1 = all). Sampled per
  /// request with fresh trace ids.
  void set_trace_sampling(double rate) { trace_sampling_ = rate; }
  /// Forces the NEXT request (only) to carry exactly `ctx` — how tests
  /// and `anchor_cli` pin a known trace id.
  void set_next_trace(const obs::TraceContext& ctx) { next_trace_ = ctx; }
  /// The context the most recent request carried (invalid when untraced).
  const obs::TraceContext& last_trace() const { return last_trace_; }

 private:
  /// Sends one frame, reads one reply. Throws RpcError on kError replies,
  /// WireError when the reply type is not reply_type(request).
  std::vector<std::uint8_t> roundtrip(MsgType request, const WireWriter& body);
  /// One RPC: encodes `request`, decodes the reply payload as a Reply.
  template <class Reply, class Request>
  Reply call(MsgType type, const Request& request);

  TcpStream stream_;
  double trace_sampling_ = 0.0;
  obs::TraceContext next_trace_;
  obs::TraceContext last_trace_;
  std::mt19937_64 sample_rng_{std::random_device{}()};
};

}  // namespace anchor::net
