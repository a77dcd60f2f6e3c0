#include "cluster/router.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "net/client.hpp"
#include "obs/load_plane.hpp"
#include "serve/deployment_gate.hpp"
#include "util/check.hpp"

namespace anchor::cluster {

namespace {

bool canary_terminal(serve::CanaryState s) {
  return s == serve::CanaryState::kPromoted ||
         s == serve::CanaryState::kRolledBack ||
         s == serve::CanaryState::kAborted ||
         s == serve::CanaryState::kOfflineRejected;
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      windowed_(config_.windowed),
      load_(obs::make_key_load_recorder(config_.hot_key_capacity,
                                        config_.map.total_rows(),
                                        config_.heat_buckets)),
      slo_(config_.slo),
      rpc_(config_.port, config_.poll_interval_ms, config_.io_timeout_ms,
           obs::TraceStage::kRouterRecv,
           &metrics_.counter(
               "anchor_router_requests_total",
               "Request frames dispatched by the router (all types)")) {
  // Fail at construction, not at the first connection: an empty map
  // would otherwise throw from a handler thread (outside its try block)
  // and std::terminate the process.
  ANCHOR_CHECK_MSG(config_.map.num_shards() > 0,
                   "Router needs a non-empty ShardMap");
  health_ = std::make_shared<ClusterHealth>(config_.map);
  hedge_ = std::make_shared<HedgePolicy>(config_.map.num_shards(),
                                         config_.hedge_policy);
  counters_ = std::make_shared<ClusterCounters>();
  ClusterConfig cc_config;
  cc_config.map = config_.map;
  cc_config.io_timeout_ms = config_.backend_io_timeout_ms;
  cc_config.max_attempts = config_.max_attempts;
  cc_config.hedge = config_.hedge;
  // The pooled clients all record into the router's global-id key-load
  // recorders (thread-safe).
  cc_config.load = load_.get();
  // hedge_ is shared even when hedging is off (ClusterConfig::hedge
  // gates the behavior): the per-shard RTT histograms are still the
  // router's latency signal worth recording.
  pool_ = std::make_unique<ClusterClientPool>(
      std::max<std::size_t>(config_.pool_size, 1), cc_config, health_,
      hedge_, counters_);
  rollout_.shards.assign(config_.map.num_shards(), {});
  register_metrics();
  register_handlers();
}

void Router::register_metrics() {
  metrics_.register_histogram(
      "anchor_router_lookup_latency_us",
      "End-to-end scatter-gather lookup latency as the router sees it "
      "(microseconds)",
      [this] { return windowed_.totals().latency; });
  topk_partial_ = &metrics_.counter(
      "anchor_router_topk_partial_total",
      "TOPK searches merged from fewer than all shards (partial flag set)");
  topk_latency_ = &metrics_.histogram(
      "anchor_router_topk_latency_us",
      "End-to-end scatter-gather TOPK latency as the router sees it "
      "(microseconds)");
  metrics_.on_collect([this](obs::MetricsRegistry& r) {
    // Lookup counters are views over the recorder's all-time total; the
    // TOPK count is the TOPK latency histogram's.
    const obs::WindowedTotals lookups = windowed_.totals();
    r.counter("anchor_router_lookups_total",
              "Scatter-gather lookups executed (ids + words)")
        .set(lookups.requests);
    r.counter("anchor_router_degraded_lookups_total",
              "Lookups that returned at least one degraded (zeroed+flagged) "
              "row")
        .set(lookups.errors);
    r.counter("anchor_router_topk_total",
              "Cluster TOPK searches scatter-gathered and merged by the "
              "router")
        .set(topk_latency_->count());
    r.gauge("anchor_router_shards_alive",
            "Shards with at least one live replica")
        .set(static_cast<double>(health_->alive()));
    r.gauge("anchor_router_shards_total", "Shards in the shard map")
        .set(static_cast<double>(config_.map.num_shards()));
    r.gauge("anchor_router_replicas_alive",
            "Backend replicas currently marked healthy")
        .set(static_cast<double>(health_->replicas_alive()));
    r.gauge("anchor_router_replicas_total",
            "Backend replicas across all shards")
        .set(static_cast<double>(health_->replicas_total()));
    // Availability counters the pooled clients bump on the data plane.
    r.counter("anchor_router_hedges_total",
              "Hedge sub-requests sent to a second replica")
        .set(counters_->hedges.load(std::memory_order_relaxed));
    r.counter("anchor_router_hedge_wins_total",
              "Hedged replica answered before the straggler")
        .set(counters_->hedge_wins.load(std::memory_order_relaxed));
    r.counter("anchor_router_retries_total",
              "Lookup sub-request re-attempts after a replica failure")
        .set(counters_->retries.load(std::memory_order_relaxed));
    r.counter("anchor_router_failovers_total",
              "Sub-requests moved to a different replica than first chosen")
        .set(counters_->failovers.load(std::memory_order_relaxed));
    // Per-replica health and per-shard hedge delay, labeled series.
    for (std::size_t b = 0; b < config_.map.num_shards(); ++b) {
      const ShardSpec& spec = config_.map.shard(b);
      for (std::size_t rep = 0; rep < spec.num_replicas(); ++rep) {
        r.gauge("anchor_router_replica_up{shard=\"" + std::to_string(b) +
                    "\",replica=\"" +
                    obs::escape_label_value(spec.address(rep)) + "\"}",
                "1 = replica marked healthy, 0 = down")
            .set(health_->healthy(b, rep) ? 1.0 : 0.0);
      }
      r.gauge("anchor_router_hedge_delay_us{shard=\"" + std::to_string(b) +
                  "\"}",
              "Current hedge delay: p99 of the shard's merged RTT "
              "histogram x multiplier, clamped (default until "
              "min_samples)")
          .set(hedge_->hedge_delay_us(b));
    }
    // RolloutState numeric: 0 idle, 1 running, 2 completed, 3 rolled
    // back, 4 aborted (net/wire.hpp enum order).
    r.gauge("anchor_router_rollout_state",
            "Coordinated rollout state (0=idle 1=running 2=completed "
            "3=rolled_back 4=aborted)")
        .set(static_cast<double>(
            static_cast<int>(rollout_status().state)));
    r.counter("anchor_trace_spans_total",
              "Trace spans recorded into this process's span ring")
        .set(obs::Tracer::instance().spans_recorded());
  });
  // The router's own windowed plane: rolling lookup rates (degraded
  // lookups count as errors), SLO burn, and global-id heavy hitters.
  obs::export_load_plane(metrics_, "anchor_router_", windowed_, slo_,
                         load_.get());
  obs::export_process_metrics(metrics_);
}

Router::~Router() { stop(); }

void Router::start() {
  if (config_.probe_interval_ms > 0) {
    probe_thread_ = std::thread([this] { probe_loop(); });
  }
  rpc_.start();
}

void Router::stop() {
  rollout_abort_.store(true, std::memory_order_release);
  rpc_.stop();
  if (probe_thread_.joinable()) probe_thread_.join();
  // The rollout thread is replaced only under rollout_mu_ while not
  // running, so joining the current handle here races nothing.
  std::thread rollout;
  {
    std::lock_guard<std::mutex> lock(rollout_mu_);
    rollout.swap(rollout_thread_);
  }
  if (rollout.joinable()) rollout.join();
}

void Router::probe_loop() {
  // First sweep runs immediately so a router started against a dead
  // backend knows within one probe, not one interval. Probes are per
  // REPLICA: one dead member of a replica set must not take the shard's
  // live members out of rotation.
  while (!rpc_.stopping()) {
    for (std::size_t b = 0; b < config_.map.num_shards(); ++b) {
      const ShardSpec& spec = config_.map.shard(b);
      for (std::size_t rep = 0; rep < spec.num_replicas(); ++rep) {
        if (rpc_.stopping()) return;
        const Endpoint& ep = spec.replica(rep);
        const auto result = ClusterClient::probe(
            ep.host, ep.port, config_.backend_io_timeout_ms);
        // kUnknown: the router is out of descriptors, not the replica out
        // of service; its health stays as it was.
        if (result != ClusterClient::ProbeResult::kUnknown) {
          health_->mark(b, rep, result == ClusterClient::ProbeResult::kUp);
        }
      }
    }
    // Stop-responsive sleep between sweeps.
    for (int waited = 0;
         waited < config_.probe_interval_ms && !rpc_.stopping();
         waited += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void Router::register_handlers() {
  using net::MsgType;
  using net::RpcCall;
  // Runs one scatter-gather lookup `body(cc)` on a pooled client,
  // records it once into the router's recorder (a degraded result counts
  // as an error) and releases the slot before the reply is written back —
  // a slow client draining its reply must not hold a pool slot. A sampled
  // `trace` joins the scatter / per-shard RTT / merge spans and the
  // backends' frames to the request's trace.
  const auto timed_lookup = [this](const obs::TraceContext& trace,
                                   const auto& body) {
    const auto start = std::chrono::system_clock::now();
    bool degraded = false;
    pool_->with_client([&](ClusterClient& cc) {
      if (trace.sampled()) cc.set_trace(trace);
      body(cc);
      degraded = cc.last_degraded();
    });
    windowed_.record_since(start, 1, degraded ? 1 : 0);
  };
  rpc_.handle(MsgType::kLookupIds, [timed_lookup](RpcCall& call) {
    const auto req = net::decode<net::LookupIdsRequest>(&call.reader);
    serve::LookupResult merged;
    timed_lookup(call.trace,
                 [&](ClusterClient& cc) { merged = cc.lookup_ids(req.ids); });
    net::write_message(call.stream, MsgType::kLookupIdsReply, merged);
    return true;
  });
  rpc_.handle(MsgType::kLookupWords, [timed_lookup](RpcCall& call) {
    const auto req = net::decode<net::LookupWordsRequest>(&call.reader);
    serve::LookupResult merged;
    timed_lookup(call.trace, [&](ClusterClient& cc) {
      merged = cc.lookup_words(req.words);
    });
    net::write_message(call.stream, MsgType::kLookupWordsReply, merged);
    return true;
  });
  rpc_.handle(MsgType::kTopK, [this](RpcCall& call) {
    // The router always answers FINAL mode: per-shard candidates are an
    // internal protocol between ClusterClient and the backends, and a
    // router-of-routers would need per-shard row offsets it doesn't have.
    // req.mode is therefore ignored here.
    const auto req = net::decode<net::TopKRequest>(&call.reader);
    ann::TopKResult merged;
    const auto start = std::chrono::steady_clock::now();
    pool_->with_client([&](ClusterClient& cc) {
      if (call.trace.sampled()) cc.set_trace(call.trace);
      switch (req.kind) {
        case net::kTopKKindId:
          merged = cc.topk_id(req.id, req.k, req.nprobe, req.rerank);
          break;
        case net::kTopKKindWord:
          merged = cc.topk_word(req.word, req.k, req.nprobe, req.rerank);
          break;
        default:
          merged = cc.topk_vector(req.vector, req.k, req.nprobe, req.rerank);
          break;
      }
    });
    if (merged.flags & ann::kTopKFlagPartial) topk_partial_->inc();
    topk_latency_->record(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count());
    net::write_message(call.stream, MsgType::kTopKReply, merged);
    return true;
  });
  rpc_.handle(MsgType::kRolloutStart, [this](RpcCall& call) {
    const auto req = net::decode<net::RolloutStartRequest>(&call.reader);
    const std::string error = start_rollout(req.candidate, req.mode,
                                            req.fraction, req.shadow_rate);
    if (!error.empty()) {
      net::reply_error(call.stream, error);
      return true;
    }
    net::write_message(call.stream, MsgType::kRolloutStartReply,
                       rollout_status());
    return true;
  });
  rpc_.handle(MsgType::kRolloutAbort, [this](RpcCall& call) {
    // Drain byte optional, mirroring kCanaryAbort; the rollout thread
    // always drains in-flight canaries. The abort itself is observed by
    // the rollout thread between shards / canary polls; the reply reports
    // the state at this instant (poll for terminal).
    net::decode<net::AbortRequest>(&call.reader);
    rollout_abort_.store(true, std::memory_order_release);
    net::write_message(call.stream, MsgType::kRolloutAbortReply,
                       rollout_status());
    return true;
  });
  rpc_.handle(MsgType::kTryPromote, [](RpcCall& call) {
    net::decode<net::PromoteRequest>(&call.reader);
    net::reply_error(call.stream,
                     "anchor_router does not serve single-shard promotes; "
                     "use ROLLOUT_START for a coordinated shard-by-shard "
                     "rollout");
    return true;
  });
  for (const MsgType type : {MsgType::kCanaryStart, MsgType::kCanaryStatus,
                             MsgType::kCanaryAbort}) {
    rpc_.handle(type, [](RpcCall& call) {
      net::reply_error(
          call.stream,
          "canaries run per-shard behind the router; start one through "
          "ROLLOUT_START mode 1 (canary), or address a backend directly");
      return true;
    });
  }
  if (config_.forward_shutdown) {
    rpc_.handle(MsgType::kShutdown, [this](RpcCall& call) {
      net::decode<net::Empty>(&call.reader);
      pool_->shutdown_backends();
      return rpc_.shutdown(call);
    });
  }
  rpc_.handle_query(MsgType::kMetrics, [this] { return metrics_.snapshot(); });
  rpc_.handle_query(MsgType::kStats, [this] {
    return pool_->with_client([](ClusterClient& cc) { return cc.stats(); })
        .aggregate;
  });
  // Pure backend merge, lifted to global id space by the borrowed client:
  // the reply is bit-identical to a client merging the backends' own HEAT
  // replies itself (pinned by cluster_test). The router's own windowed /
  // key-load view is deliberately NOT mixed in — it is exported via this
  // process's Prometheus plane instead.
  rpc_.handle_query(MsgType::kHeat, [this] {
    return pool_->with_client([](ClusterClient& cc) { return cc.heat(); });
  });
  rpc_.handle_query(MsgType::kShardMap,
                    [this] { return config_.map.serialize(); });
  rpc_.handle_query(MsgType::kRolloutStatus,
                    [this] { return rollout_status(); });
}

// ---- rollout -----------------------------------------------------------

net::RolloutStatusReport Router::rollout_status() const {
  std::lock_guard<std::mutex> lock(rollout_mu_);
  return rollout_;
}

void Router::set_shard_state(std::size_t shard, net::ShardRolloutState state,
                             const std::string& detail) {
  std::lock_guard<std::mutex> lock(rollout_mu_);
  rollout_.shards[shard].state = state;
  rollout_.shards[shard].detail = detail;
}

void Router::finish_rollout(net::RolloutState terminal,
                            const std::string& candidate,
                            const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(rollout_mu_);
    rollout_.state = terminal;
    rollout_.reason = reason;
  }
  if (!config_.audit_log.empty()) {
    serve::GateReport row;
    row.new_version = candidate;
    row.decision = terminal == net::RolloutState::kCompleted
                       ? serve::GateDecision::kAdmit
                       : serve::GateDecision::kReject;
    row.promoted = terminal == net::RolloutState::kCompleted;
    row.reason = "rollout " + net::rollout_state_name(terminal) + ": " + reason;
    serve::append_audit_csv(config_.audit_log, row);
  }
}

void Router::audit_shard(std::size_t shard, const std::string& candidate,
                         bool promoted, const std::string& detail) {
  if (config_.audit_log.empty()) return;
  serve::GateReport row;
  row.new_version = candidate;
  row.decision =
      promoted ? serve::GateDecision::kAdmit : serve::GateDecision::kReject;
  row.promoted = promoted;
  std::ostringstream os;
  os << "rollout shard " << (shard + 1) << "/" << config_.map.num_shards()
     << " (" << config_.map.shard(shard).address() << "): " << detail;
  row.reason = os.str();
  serve::append_audit_csv(config_.audit_log, row);
}

std::string Router::start_rollout(const std::string& candidate,
                                  std::uint8_t mode, double fraction,
                                  double shadow_rate) {
  if (candidate.empty()) return "empty candidate version";
  if (mode > 1) {
    return "unknown rollout mode " + std::to_string(mode) +
           " (0 = gated, 1 = canary)";
  }
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(rollout_mu_);
    if (rollout_.state == net::RolloutState::kRunning) {
      return "a rollout is already running (candidate '" +
             rollout_.candidate + "'); abort it first";
    }
    previous.swap(rollout_thread_);  // terminal predecessor, join below
    rollout_ = net::RolloutStatusReport{};
    rollout_.state = net::RolloutState::kRunning;
    rollout_.candidate = candidate;
    rollout_.mode = mode;
    rollout_.map_version = config_.map.version();
    rollout_.shards.assign(config_.map.num_shards(), {});
    rollout_abort_.store(false, std::memory_order_release);
    rollout_thread_ = std::thread([this, candidate, mode, fraction,
                                   shadow_rate] {
      rollout_body(candidate, mode, fraction, shadow_rate);
    });
  }
  if (previous.joinable()) previous.join();
  return "";
}

void Router::rollout_body(std::string candidate, std::uint8_t mode,
                          double fraction, double shadow_rate) {
  const std::size_t n = config_.map.num_shards();
  // Incumbent displaced per promoted shard — what a rollback restores.
  std::vector<std::string> old_versions(n);
  std::vector<std::uint8_t> promoted(n, 0);

  const auto rollback_all = [&] {
    // Reverse order: the most recently flipped shard reverts first, so a
    // concurrent observer sees the promoted prefix only ever shrink.
    // EVERY replica of a promoted shard flipped, so every replica rolls
    // back — a best-effort sweep that keeps going past one dead replica
    // (it rejoins on the incumbent it never left... or gets caught by
    // the version check the next rollout runs).
    for (std::size_t j = n; j-- > 0;) {
      if (!promoted[j]) continue;
      const ShardSpec& spec = config_.map.shard(j);
      std::size_t reverted = 0;
      std::string first_error;
      for (std::size_t rep = 0; rep < spec.num_replicas(); ++rep) {
        const Endpoint& ep = spec.replica(rep);
        try {
          // Forced: the incumbent being restored was serving traffic
          // moments ago, and a near-threshold gate re-run in the reverse
          // direction must not be able to refuse the restore and strand
          // this replica on the rolled-back candidate.
          net::Client client(ep.host, ep.port,
                             config_.backend_io_timeout_ms);
          const serve::GateReport rr =
              client.try_promote(old_versions[j], /*force=*/true);
          if (rr.promoted) {
            ++reverted;
          } else if (first_error.empty()) {
            first_error = ep.address() + " refused: " + rr.reason;
          }
        } catch (const std::exception& e) {
          if (first_error.empty()) {
            first_error = ep.address() + ": " + e.what();
          }
        }
      }
      const bool complete = reverted == spec.num_replicas();
      std::string detail =
          "rolled back " + std::to_string(reverted) + "/" +
          std::to_string(spec.num_replicas()) + " replicas to '" +
          old_versions[j] + "'";
      if (!complete) detail += " (" + first_error + ")";
      set_shard_state(j,
                      complete ? net::ShardRolloutState::kRolledBack
                               : net::ShardRolloutState::kFailed,
                      detail);
      audit_shard(j, candidate, /*promoted=*/false, detail);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (rpc_.stopping() ||
        rollout_abort_.load(std::memory_order_acquire)) {
      rollback_all();
      finish_rollout(net::RolloutState::kAborted, candidate,
                     "rollout aborted by operator before shard " +
                         std::to_string(i + 1));
      return;
    }
    set_shard_state(i, net::ShardRolloutState::kInProgress,
                    mode == 0 ? "gated promote" : "canary");
    std::string detail;
    if (rollout_shard(i, candidate, mode, fraction, shadow_rate,
                      &old_versions[i], &detail)) {
      promoted[i] = 1;
      set_shard_state(i, net::ShardRolloutState::kPromoted, detail);
      audit_shard(i, candidate, /*promoted=*/true, detail);
      continue;
    }
    // Shard i said no (or died): stop here, restore the promoted prefix.
    set_shard_state(i, net::ShardRolloutState::kFailed, detail);
    audit_shard(i, candidate, /*promoted=*/false, detail);
    promoted[i] = 0;
    rollback_all();
    const bool aborted = rollout_abort_.load(std::memory_order_acquire);
    finish_rollout(aborted ? net::RolloutState::kAborted
                           : net::RolloutState::kRolledBack,
                   candidate,
                   "shard " + std::to_string(i + 1) + "/" +
                       std::to_string(n) + " (" +
                       config_.map.shard(i).address() + ") " +
                       (aborted ? "aborted" : "refused") + ": " + detail);
    return;
  }
  finish_rollout(net::RolloutState::kCompleted, candidate,
                 "candidate '" + candidate + "' live on all " +
                     std::to_string(n) + " shards");
}

bool Router::rollout_shard(std::size_t shard, const std::string& candidate,
                           std::uint8_t mode, double fraction,
                           double shadow_rate, std::string* old_version,
                           std::string* detail) {
  // A shard's replica set moves as ONE unit: the gate/canary decision
  // runs once, on the primary (replica 0) — its traffic sample and audit
  // trail speak for the identically-sliced followers — and only if it
  // admits does the candidate flip on every follower (forced: the
  // decision is already made; a follower re-running a near-threshold
  // gate must not be able to split the replica set across versions). A
  // follower that cannot flip fails the WHOLE shard, and the replicas
  // flipped so far revert, so a replica set is never left mixed.
  const ShardSpec& spec = config_.map.shard(shard);
  const Endpoint& primary = spec.replica(0);
  // Best-effort kill switch for the failure paths below: a canary left
  // RUNNING on a shard the rollout has given up on would keep measuring
  // and could later promote the candidate BY ITSELF — one shard quietly
  // converging on the version the rollout rolled back everywhere else.
  // A fresh connection (the original one may be the thing that broke).
  // Only fires for a canary THIS rollout started (never an operator's
  // pre-existing one, whose "already running" error lands in the catch
  // below with canary_started still false).
  bool canary_started = false;
  const auto abort_shard_canary = [&] {
    if (!canary_started) return;
    try {
      net::Client(primary.host, primary.port, config_.backend_io_timeout_ms)
          .canary_abort(/*drain=*/true);
    } catch (const std::exception&) {
      // Unreachable shard: nothing to abort from here; the canary dies
      // with the backend or decides on its own — surfaced via detail.
    }
  };
  // Phase 2 of the unit move: flip the followers, reverting this shard's
  // already-flipped replicas (primary included) if one refuses.
  const auto flip_followers = [&]() -> bool {
    for (std::size_t rep = 1; rep < spec.num_replicas(); ++rep) {
      const Endpoint& ep = spec.replica(rep);
      std::string error;
      try {
        net::Client follower(ep.host, ep.port,
                             config_.backend_io_timeout_ms);
        const serve::GateReport rr =
            follower.try_promote(candidate, /*force=*/true);
        if (rr.promoted) continue;
        error = "follower " + ep.address() + " refused: " + rr.reason;
      } catch (const std::exception& e) {
        error = "follower " + ep.address() + ": " + e.what();
        health_->mark(shard, rep, false);
      }
      // Revert primary + the followers flipped before this one.
      for (std::size_t back = 0; back < rep; ++back) {
        const Endpoint& bep = spec.replica(back);
        try {
          net::Client(bep.host, bep.port, config_.backend_io_timeout_ms)
              .try_promote(*old_version, /*force=*/true);
        } catch (const std::exception&) {
        }
      }
      *detail += "; " + error;
      return false;
    }
    if (spec.num_replicas() > 1) {
      *detail += " (+" + std::to_string(spec.num_replicas() - 1) +
                 " replicas)";
    }
    return true;
  };
  try {
    net::Client client(primary.host, primary.port,
                       config_.backend_io_timeout_ms);
    if (mode == 0) {
      const serve::GateReport rep = client.try_promote(candidate);
      *detail = rep.reason;
      if (!rep.promoted) return false;
      *old_version = rep.old_version;
      return flip_followers();
    }
    // Canary mode: start it, then poll this shard to its own terminal
    // decision — the per-shard Hoeffding machinery is exactly the single-
    // node canary, the router only sequences it.
    net::CanaryStatusReport st =
        client.canary_start(candidate, fraction, shadow_rate);
    canary_started = st.state == serve::CanaryState::kRunning;
    while (!canary_terminal(st.state) &&
           st.state != serve::CanaryState::kNone) {
      if (rpc_.stopping() ||
          rollout_abort_.load(std::memory_order_acquire)) {
        st = client.canary_abort(/*drain=*/true);
        *detail = "canary aborted by rollout abort; " + st.online.summary();
        return false;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.rollout_poll_ms));
      st = client.canary_status();
    }
    *detail =
        st.reason.empty() ? serve::canary_state_name(st.state) : st.reason;
    if (st.state == serve::CanaryState::kPromoted) {
      *old_version = st.incumbent;
      return flip_followers();
    }
    if (st.state == serve::CanaryState::kNone && st.offline.promoted) {
      // No incumbent on this shard: promoted outright without a canary.
      *old_version = st.offline.old_version;
      return flip_followers();
    }
    return false;
  } catch (const net::NetError& e) {
    *detail = e.what();
    // One fresh-connection abort attempt before declaring the shard
    // down: a single dropped reply must not orphan a running canary that
    // could later promote the rolled-back candidate on this shard alone.
    abort_shard_canary();
    health_->mark(shard, 0, false);  // unreachable primary control plane
    return false;
  } catch (const std::exception& e) {
    // RpcError / WireError: the shard answered (it is alive), it just
    // refused or mangled the control-plane exchange.
    *detail = e.what();
    abort_shard_canary();
    return false;
  }
}

}  // namespace anchor::cluster
