// Stateless shard-routing front-end: one TCP server speaking the standard
// wire protocol to unmodified net::Clients, fanned out over N
// anchor_served backends by a ShardMap. Connections are accepted and
// served by the RPC core anchor_served also runs (net/rpc_server.hpp):
// one handler thread per client connection; this class registers one
// handler per request type.
//
// Data plane: all connection handlers share one round-robin POOL of
// mutex-guarded ClusterClients (cluster/client_pool.hpp), so backend
// fan-in is bounded by the pool size and every lookup feeds the same
// shared ClusterHealth (per-replica liveness + in-flight load) and
// HedgePolicy (per-shard RTT histograms). A background probe loop pings
// every REPLICA per interval, so a dead backend degrades requests for at
// most one exchange before everyone routes around it — and with a second
// replica per shard, "routes around it" means failover, not degradation:
// the degraded flag only fires when a shard's whole replica set is down.
//
// Control plane — coordinated rollout: ROLLOUT_START walks the shards IN
// ORDER, promoting the candidate on shard i+1 only after shard i's
// decision landed (offline gated promote, or a full per-shard canary the
// router polls to its terminal state). On the first failing shard the
// rollout stops and rolls the already-promoted shards BACK to their
// incumbents, so the cluster never converges on a bad refresh and never
// serves a mixed-version majority longer than one in-flight shard
// decision. ROLLOUT_STATUS reports the per-shard state machine;
// ROLLOUT_ABORT stops between shards (draining an in-flight canary) and
// rolls back. Every per-shard outcome appends to the router's own audit
// CSV (same format as the gate's).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client_pool.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/shard_map.hpp"
#include "net/rpc_server.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/windowed.hpp"

namespace anchor::cluster {

struct RouterConfig {
  /// 0 = ephemeral; read the bound port back with Router::port().
  std::uint16_t port = 0;
  ShardMap map;
  /// Accept/handler poll granularity (bounds stop() latency).
  int poll_interval_ms = 100;
  /// Client-facing per-recv/send stall bound (same role as ServerConfig's).
  int io_timeout_ms = 2000;
  /// Backend-facing stall bound: how long a lookup waits on a hung shard
  /// before its rows degrade.
  int backend_io_timeout_ms = 2000;
  /// Health-probe cadence; 0 disables the probe loop (tests drive health
  /// by hand).
  int probe_interval_ms = 500;
  /// Poll cadence for a per-shard canary during a rollout.
  int rollout_poll_ms = 50;
  /// Data-plane ClusterClient pool size: concurrent scatter-gathers are
  /// capped here (excess handlers queue), and each backend replica sees
  /// at most this many router connections.
  std::size_t pool_size = 4;
  /// Failover budget per shard per lookup (see ClusterConfig).
  int max_attempts = 3;
  /// Hedged reads on/off plus the p99-derived delay policy.
  bool hedge = true;
  HedgePolicy::Config hedge_policy;
  /// Forward a client kShutdown to every backend before stopping — lets
  /// one RPC tear down a whole demo/CI cluster.
  bool forward_shutdown = false;
  /// Per-shard rollout outcomes append here (append_audit_csv format).
  std::filesystem::path audit_log;
  /// Windowed-telemetry ring shape for the router's own rolling view
  /// (one record per LOOKUP_IDS / LOOKUP_WORDS the router serves).
  obs::WindowedConfig windowed;
  /// SLO burn-rate policy over the router window (`--slo-p99-us`,
  /// `--slo-error-budget` on the daemon).
  obs::SloConfig slo;
  /// Router-side heavy-hitter sketch budget over GLOBAL ids (`--hot-keys`);
  /// 0 disables router key-load attribution (HEAT still proxies the
  /// backends' merged view).
  std::size_t hot_key_capacity = 512;
  /// Router heat-map fanout over [0, map.total_rows()) (`--heat-buckets`).
  std::size_t heat_buckets = 256;
};

class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::uint16_t port() const { return rpc_.port(); }

  void start();  // serve on a background thread
  void stop();   // idempotent; joins every thread

  bool shutdown_requested() const { return rpc_.shutdown_requested(); }

  const ShardMap& map() const { return config_.map; }
  const ClusterHealth& health() const { return *health_; }
  /// Shared hedge policy (per-shard RTT histograms the hedge delay is
  /// derived from) and availability counters — for tests/monitoring.
  const HedgePolicy& hedge_policy() const { return *hedge_; }
  const ClusterCounters& counters() const { return *counters_; }
  net::RolloutStatusReport rollout_status() const;

  /// The router's own metrics plane: scatter-gather latency histogram,
  /// request/degradation counters, shards-alive and rollout-state gauges.
  /// The kMetrics RPC and the daemon's Prometheus endpoint render
  /// snapshots of this (disjoint from the backends' registries — scrape
  /// each process separately, or merge histograms downstream).
  obs::MetricsRegistry& metrics_registry() { return metrics_; }
  /// The router's own windowed view: one record per LOOKUP_IDS /
  /// LOOKUP_WORDS it served (degraded lookups count as errors).
  const obs::WindowedStats& windowed() const { return windowed_; }

 private:
  void probe_loop();
  void register_handlers();
  void register_metrics();

  /// Starts the rollout thread; returns a non-empty error when one is
  /// already running or the request is malformed.
  std::string start_rollout(const std::string& candidate, std::uint8_t mode,
                            double fraction, double shadow_rate);
  void rollout_body(std::string candidate, std::uint8_t mode, double fraction,
                    double shadow_rate);
  /// Gated or canaried promote of `candidate` on one shard; fills
  /// *old_version with the incumbent it displaced on success.
  bool rollout_shard(std::size_t shard, const std::string& candidate,
                     std::uint8_t mode, double fraction, double shadow_rate,
                     std::string* old_version, std::string* detail);
  void set_shard_state(std::size_t shard, net::ShardRolloutState state,
                       const std::string& detail);
  /// `candidate` is passed through (not re-read from rollout_) so the
  /// terminal audit row can never pick up a successor rollout's
  /// candidate if ROLLOUT_START lands between the state write and the
  /// audit append.
  void finish_rollout(net::RolloutState terminal, const std::string& candidate,
                      const std::string& reason);
  void audit_shard(std::size_t shard, const std::string& candidate,
                   bool promoted, const std::string& detail);

  RouterConfig config_;
  std::shared_ptr<ClusterHealth> health_;
  std::shared_ptr<HedgePolicy> hedge_;
  std::shared_ptr<ClusterCounters> counters_;
  /// The router's lookup recorder: its total backs the
  /// anchor_router_{lookups_total,degraded_lookups_total,
  /// lookup_latency_us} series and its ring the router window.
  obs::WindowedStats windowed_;
  /// Global-id key-load attribution, fed by the pooled clients (declared
  /// before pool_, whose ClusterConfig carries a pointer in).
  std::unique_ptr<obs::KeyLoadRecorder> load_;
  obs::SloMonitor slo_;
  std::unique_ptr<ClusterClientPool> pool_;
  /// Declared before rpc_, which counts request frames into it.
  obs::MetricsRegistry metrics_;
  net::RpcServer rpc_;
  /// Owned TOPK metrics (registry references are stable for its
  /// lifetime; handlers update them lock-free). The latency histogram's
  /// count is the TOPK request count.
  obs::Counter* topk_partial_ = nullptr;
  obs::LogHistogram* topk_latency_ = nullptr;

  std::thread probe_thread_;

  /// Rollout state machine, mutex-guarded (control-plane-rare). The
  /// report is the single source of truth ROLLOUT_STATUS serializes.
  mutable std::mutex rollout_mu_;
  net::RolloutStatusReport rollout_;
  std::atomic<bool> rollout_abort_{false};
  std::thread rollout_thread_;
};

}  // namespace anchor::cluster
