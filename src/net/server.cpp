#include "net/server.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/wire.hpp"
#include "obs/load_plane.hpp"

namespace anchor::net {

Server::Server(serve::EmbeddingStore& store, ServerConfig config)
    : store_(store),
      config_(config),
      // No window export reads the service view, so it keeps the
      // smallest ring.
      service_stats_(std::make_shared<obs::WindowedStats>(
          obs::WindowedConfig{config.windowed.slice_us, 2})),
      batcher_stats_(std::make_shared<obs::WindowedStats>(config.windowed)),
      windowed_(config.windowed),
      load_(obs::make_key_load_recorder(
          config.hot_key_capacity,
          [&]() -> std::uint64_t {
            const serve::SnapshotPtr live = store.live();
            return live ? live->vocab_size() : 0;
          }(),
          config.heat_buckets)),
      slo_(config.slo),
      // The services get pointers into the recorders above, which is why
      // those are declared (and therefore constructed) first.
      service_(store,
               [&] {
                 serve::LookupConfig lc = config.lookup;
                 lc.load = load_.get();
                 return lc;
               }(),
               service_stats_),
      async_(service_, config.batcher, batcher_stats_),
      gate_(config.gate),
      rpc_(config.port, config.poll_interval_ms, config.io_timeout_ms,
           obs::TraceStage::kBackendRecv),
      faults_(config.fault_seed) {
  if (config_.fault_inject) faults_.configure(config_.faults);
  if (config_.ann_enable) {
    ann_ = std::make_unique<ann::AnnService>(store_, config_.ann);
  }
  // Pin the drift reference against whatever is live now; one immediate
  // run seeds the gauges at their no-drift baseline.
  drift_ = std::make_unique<obs::DriftProbe>(store_, config_.drift);
  register_metrics();
  register_handlers();
  drift_->register_metrics(metrics_);
  drift_->run_once();
  drift_->start();
}

HeatReport Server::heat_report() {
  // The RPC-level window only: the batcher's window counts coalesced
  // *keys*, a different unit, and is exported via Prometheus instead of
  // merged into the fleet's request-rate view.
  HeatReport report;
  report.windowed = windowed_.snapshot();
  if (load_ != nullptr) {
    report.sketch = load_->sketch.snapshot();
    report.heat = load_->heat.snapshot();
  }
  return report;
}

void Server::register_metrics() {
  // The serve-layer series are views over the two recorders' all-time
  // totals, read at snapshot time (no double counting, no hot-path
  // changes); the latency histograms are live LogHistogram snapshots, so
  // the exported _bucket series merge exactly across processes.
  metrics_.register_histogram(
      "anchor_service_latency_us",
      "Per executed lookup batch latency (LookupService view)",
      [this] { return service_stats_->totals().latency; });
  metrics_.register_histogram(
      "anchor_batcher_latency_us",
      "Per coalesced batch latency, oldest enqueue to scatter "
      "(client-observed view)",
      [this] { return batcher_stats_->totals().latency; });
  if (ann_) {
    topk_latency_us_ = &metrics_.histogram(
        "anchor_topk_latency_us",
        "IVF-PQ search latency per TOPK request (probe+ADC+re-rank)");
    topk_cells_probed_ = &metrics_.histogram(
        "anchor_topk_cells_probed", "Coarse cells probed per TOPK request");
    topk_shortlist_ = &metrics_.histogram(
        "anchor_topk_shortlist_size",
        "ADC shortlist size re-ranked exactly per TOPK request");
  }
  // Remembers the previously exported version label so a hot swap zeroes
  // the stale series instead of leaving two versions claiming live.
  auto last_version = std::make_shared<std::string>();
  auto last_encoding = std::make_shared<std::string>();
  metrics_.on_collect([this, last_version,
                       last_encoding](obs::MetricsRegistry& reg) {
    const obs::WindowedTotals service = service_stats_->totals();
    const obs::WindowedTotals batcher = batcher_stats_->totals();
    reg.counter("anchor_lookup_requests_total",
                "Vectors served (client-observed, batcher view)")
        .set(batcher.requests);
    reg.counter("anchor_batches_total", "Coalesced batches executed")
        .set(batcher.records);
    reg.counter("anchor_service_lookups_total",
                "Vectors served by the underlying LookupService "
                "(canary traffic included)")
        .set(service.requests);
    reg.counter("anchor_oov_fallbacks_total",
                "Lookups answered via subword synthesis")
        .set(service.errors);
    reg.gauge("anchor_batch_occupancy",
              "Mean keys per coalesced batch since start/reset")
        .set(batcher.records > 0
                 ? static_cast<double>(batcher.requests) /
                       static_cast<double>(batcher.records)
                 : 0.0);
    reg.gauge("anchor_batcher_pending", "Requests queued, not yet flushed")
        .set(static_cast<double>(async_.pending()));
    reg.counter("anchor_trace_spans_total",
                "Trace spans recorded into this process's span ring")
        .set(obs::Tracer::instance().spans_recorded());
    if (ann_) {
      reg.counter("anchor_topk_requests_total",
                  "TOPK searches served against the live IVF-PQ index")
          .set(topk_latency_us_->count());
      reg.counter("anchor_topk_index_builds_total",
                  "IVF-PQ index builds (one per snapshot version served)")
          .set(ann_->builds());
    }
    const std::string version = store_.live_version();
    if (!version.empty()) {
      const std::string name = "anchor_live_version_info{version=\"" +
                               obs::escape_label_value(version) + "\"}";
      if (*last_version != name) {
        if (!last_version->empty()) {
          reg.gauge(*last_version, "Live embedding version (1 = live)")
              .set(0.0);
        }
        *last_version = name;
      }
      reg.gauge(name, "Live embedding version (1 = live)").set(1.0);
    }
    // Row-encoding identity + resident footprint: the capacity story. The
    // label swap mirrors anchor_live_version_info so a rollout to a
    // differently-encoded snapshot zeroes the stale series.
    if (const serve::SnapshotPtr live = store_.live()) {
      const std::string enc_name =
          "anchor_snapshot_encoding_info{encoding=\"" +
          obs::escape_label_value(live->encoding()) + "\"}";
      if (*last_encoding != enc_name) {
        if (!last_encoding->empty()) {
          reg.gauge(*last_encoding,
                    "Live snapshot row encoding (1 = active)")
              .set(0.0);
        }
        *last_encoding = enc_name;
      }
      reg.gauge(enc_name, "Live snapshot row encoding (1 = active)").set(1.0);
    }
    reg.gauge("anchor_store_memory_bytes",
              "Resident bytes across all registered snapshot versions "
              "(row storage + PQ codebooks + OOV tables)")
        .set(static_cast<double>(store_.total_memory_bytes()));
    const CanaryStatusReport canary = canary_status_report();
    reg.gauge("anchor_canary_state",
              "CanaryState enum value (0 none, 1 offline-rejected, "
              "2 running, 3 promoted, 4 rolled-back, 5 aborted)")
        .set(static_cast<double>(canary.state));
    reg.counter("anchor_canary_shadows_total",
                "Shadow lookups scored by the current/last canary")
        .set(canary.online.shadows);
    // Chaos must be observable too: how many replies each injected fault
    // class has perturbed (all zero on an unarmed server).
    reg.counter("anchor_fault_injected_total{fault=\"delay\"}",
                "Replies delayed by the fault injector")
        .set(faults_.injected_delays());
    reg.counter("anchor_fault_injected_total{fault=\"drop\"}",
                "Replies swallowed by the fault injector")
        .set(faults_.injected_drops());
    reg.counter("anchor_fault_injected_total{fault=\"close\"}",
                "Connections closed by the fault injector")
        .set(faults_.injected_closes());
    reg.counter("anchor_fault_injected_total{fault=\"truncate\"}",
                "Replies truncated mid-frame by the fault injector")
        .set(faults_.injected_truncates());
  });
  // The windowed plane: rolling rates, SLO burn, heavy hitters, heat.
  obs::export_load_plane(metrics_, "anchor_", windowed_, slo_, load_.get());
  obs::export_process_metrics(metrics_);
  metrics_.on_collect([this](obs::MetricsRegistry& reg) {
    reg.gauge("anchor_batcher_window_keys_per_s_1m",
              "Coalesced lookup keys/s over the last 60 s")
        .set(batcher_stats_->snapshot().qps(60'000'000ull));
  });
}

Server::~Server() { stop(); }

void Server::start() { rpc_.start(); }

void Server::stop() {
  if (drift_) drift_->stop();
  rpc_.stop();
  // Graceful-shutdown drain: every handler has exited (their in-flight
  // batches are answered), so all that can still be mid-work is the
  // canary's shadow scorer — wait for it rather than tearing the process
  // down under a half-scored comparison window (abort is a no-op unless
  // the canary runs).
  if (const auto c = canary()) c->abort(/*drain=*/true);
}

bool Server::send_data_reply(TcpStream& stream, MsgType type,
                             const WireWriter& reply) {
  if (config_.fault_inject) {
    const FaultInjector::Verdict v = faults_.next_action();
    if (v.delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(v.delay_ms));
    }
    switch (v.action) {
      case FaultInjector::Action::kDrop:
        // Accepted the request, never answers: the client's read must
        // hit its deadline, not an error frame.
        return true;
      case FaultInjector::Action::kClose:
        return false;  // handler exits; the socket closes with it
      case FaultInjector::Action::kTruncate: {
        // A strict prefix of a well-formed frame — the length prefix
        // promises more bytes than ever arrive, then the connection
        // dies: the crash-mid-send failure mode.
        const std::vector<std::uint8_t> frame =
            encode_frame(type, reply, obs::TraceContext{});
        try {
          stream.write_all(frame.data(), frame.size() / 2);
        } catch (const NetError&) {
        }
        return false;
      }
      case FaultInjector::Action::kNone:
        break;
    }
  }
  write_frame(stream, type, reply);
  return true;
}

namespace {

constexpr const char* kBatchTooLarge =
    "batch too large: reply would exceed the frame cap";

/// Records one data-plane request into a windowed ring on scope exit:
/// wall latency from construction (two clock reads, through
/// record_since); counted as an error unless the handler cleared the flag
/// after putting a clean reply on the wire, so malformed frames, serving
/// errors, and injected drops all burn budget.
struct WindowedScope {
  explicit WindowedScope(obs::WindowedStats& w) : w_(w) {}
  ~WindowedScope() { w_.record_since(start_, 1, error ? 1 : 0); }
  WindowedScope(const WindowedScope&) = delete;
  WindowedScope& operator=(const WindowedScope&) = delete;

  obs::WindowedStats& w_;
  std::chrono::system_clock::time_point start_ =
      std::chrono::system_clock::now();
  bool error = true;
};

/// Upper bound on keys whose lookup reply still fits the frame cap: each
/// reply row costs dim f32s plus an oov byte. Uses the live snapshot's dim;
/// a concurrent hot swap to a different dim is caught by write_frame's own
/// cap check (kError reply, no crash).
std::uint64_t max_reply_keys(const serve::EmbeddingStore& store) {
  const serve::SnapshotPtr live = store.live();
  const std::uint64_t row_bytes = live ? live->dim() * sizeof(float) + 1 : 1;
  return (kMaxFrameBytes - 1024) / row_bytes;
}

}  // namespace

void Server::register_handlers() {
  // Lookup requests whose reply could not fit the frame cap are refused
  // before the lookup runs, instead of allocating gigabytes and failing at
  // send time; the refusal keeps the connection like any serving error.
  rpc_.handle(MsgType::kLookupIds, [this](RpcCall& call) {
    WindowedScope wscope(windowed_);
    LookupIdsRequest req = decode<LookupIdsRequest>(&call.reader);
    if (req.ids.size() > max_reply_keys(store_)) {
      reply_error(call.stream, kBatchTooLarge);
      return true;
    }
    WireWriter reply;
    if (const auto canary = active_canary()) {
      // Canary data plane: the router hash-splits the keys between
      // incumbent and candidate (and mirrors the shadow sample), then
      // merges back into request order.
      serve::LookupResult merged;
      canary->lookup_ids_into(req.ids, &merged);
      encode(merged, &reply);
    } else {
      encode(LookupRows::of(
                 async_.lookup_ids(std::move(req.ids), call.trace).get()),
             &reply);
    }
    wscope.error =
        !send_data_reply(call.stream, MsgType::kLookupIdsReply, reply);
    return !wscope.error;
  });
  rpc_.handle(MsgType::kLookupWords, [this](RpcCall& call) {
    WindowedScope wscope(windowed_);
    LookupWordsRequest req = decode<LookupWordsRequest>(&call.reader);
    if (req.words.size() > max_reply_keys(store_)) {
      reply_error(call.stream, kBatchTooLarge);
      return true;
    }
    WireWriter reply;
    if (const auto canary = active_canary()) {
      serve::LookupResult merged;
      canary->lookup_words_into(req.words, &merged);
      encode(merged, &reply);
    } else {
      encode(LookupRows::of(
                 async_.lookup_words(std::move(req.words), call.trace).get()),
             &reply);
    }
    wscope.error =
        !send_data_reply(call.stream, MsgType::kLookupWordsReply, reply);
    return !wscope.error;
  });
  rpc_.handle(MsgType::kTopK, [this](RpcCall& call) {
    WindowedScope wscope(windowed_);
    TopKRequest req = decode<TopKRequest>(&call.reader);
    if (!ann_) {
      reply_error(call.stream, "TOPK serving is disabled on this server");
      return true;
    }
    // Resolve the query vector. Id/word queries ride the batcher like
    // any lookup, so TOPK resolution coalesces with concurrent lookup
    // traffic instead of bypassing the serving path (and OOV words
    // search from their synthesized vector, same as a lookup).
    std::vector<float> query;
    if (req.kind == kTopKKindVector) {
      query = std::move(req.vector);
    } else {
      const serve::ResultSlice slice =
          req.kind == kTopKKindId
              ? async_.lookup_id(static_cast<std::size_t>(req.id)).get()
              : async_.lookup_word(std::move(req.word)).get();
      if (slice.size() != 1) {
        throw std::runtime_error("topk query resolution failed");
      }
      query.assign(slice.row(0), slice.row(0) + slice.dim());
    }
    const ann::IvfPqIndexPtr index = ann_->index_for_live();
    if (!index) throw std::runtime_error("no live version to search");
    if (query.size() != index->dim()) {
      throw std::runtime_error(
          "topk query dim " + std::to_string(query.size()) +
          " != index dim " + std::to_string(index->dim()));
    }
    const std::uint64_t t0 = obs::Tracer::now_ns();
    const ann::TopKResult result =
        req.mode == kTopKModeCandidates
            ? index->candidates(query.data(), req.rerank, req.nprobe)
            : index->search(query.data(), req.k, req.nprobe, req.rerank);
    const std::uint64_t t1 = obs::Tracer::now_ns();
    if (call.trace.sampled()) {
      obs::Tracer::instance().record(call.trace,
                                     obs::TraceStage::kTopkSearch, t0, t1);
    }
    topk_latency_us_->record(static_cast<double>(t1 - t0) / 1000.0);
    topk_cells_probed_->record(static_cast<double>(result.cells_probed));
    topk_shortlist_->record(static_cast<double>(result.shortlist));
    WireWriter reply;
    encode(result, &reply);
    wscope.error = !send_data_reply(call.stream, MsgType::kTopKReply, reply);
    return !wscope.error;
  });
  rpc_.handle(MsgType::kTryPromote, [this](RpcCall& call) {
    // `force` bypasses the gate and flips live directly — the rollout
    // rollback path, where re-running a near-threshold gate in the
    // reverse direction could refuse to restore the incumbent and strand
    // a mixed-version cluster.
    const auto req = decode<PromoteRequest>(&call.reader);
    write_message(call.stream, MsgType::kTryPromoteReply,
                  try_promote(req.candidate, req.force));
    return true;
  });
  rpc_.handle(MsgType::kCanaryStart, [this](RpcCall& call) {
    const auto req = decode<CanaryStartRequest>(&call.reader);
    write_message(call.stream, MsgType::kCanaryStartReply,
                  start_canary(req.candidate, req.fraction, req.shadow_rate));
    return true;
  });
  rpc_.handle(MsgType::kCanaryAbort, [this](RpcCall& call) {
    // An empty payload (older client) means a plain immediate abort.
    const auto req = decode<AbortRequest>(&call.reader);
    // Deliberately NOT under promote_mu_: a drained abort can wait up to
    // the drain timeout on in-flight lookups, and holding the promote lock
    // that long would stall every other control-plane RPC. Safe without
    // it: abort() decides at most once under its own mutex, and the
    // kRunning guards keep promotes out until the canary (draining
    // included) reaches a terminal state.
    if (const auto c = canary()) c->abort(req.drain);  // no-op unless running
    write_message(call.stream, MsgType::kCanaryAbortReply,
                  canary_status_report());
    return true;
  });
  rpc_.handle(MsgType::kFaultSet, [this](RpcCall& call) {
    const auto req = decode<FaultSetRequest>(&call.reader);
    if (!config_.fault_inject) {
      reply_error(call.stream,
                  "fault injection is not armed (start with --fault-inject)");
      return true;
    }
    faults_.configure(FaultConfig::parse(req.spec));
    // Echo the canonical form so the orchestrator can log what took
    // effect ("" = faults cleared).
    write_message(call.stream, MsgType::kFaultSetReply,
                  faults_.config().serialize());
    return true;
  });
  // Control-plane queries. No fault injection and no windowed
  // self-recording: chaos must not blind the chaos orchestrator, and the
  // telemetry RPCs must not perturb the telemetry they report.
  rpc_.handle_query(MsgType::kStats, [this] {
    ServerStatsReport report;
    report.live_version = store_.live_version();
    if (const serve::SnapshotPtr live = store_.live()) {
      report.encoding = live->encoding();
    }
    report.service = serve::stats_snapshot(*service_stats_);
    report.batcher = serve::stats_snapshot(*batcher_stats_);
    return report;
  });
  rpc_.handle_query(MsgType::kMetrics, [this] { return metrics_.snapshot(); });
  rpc_.handle_query(MsgType::kHeat, [this] { return heat_report(); });
  rpc_.handle_query(MsgType::kCanaryStatus,
                    [this] { return canary_status_report(); });
}

serve::GateReport Server::try_promote(const std::string& candidate,
                                      bool force) {
  // Promotions are serialized: concurrent handlers would interleave
  // appends to the gate's audit CSV (and gate two candidates against the
  // same incumbent at once, promoting both).
  std::lock_guard<std::mutex> lock(promote_mu_);
  {
    // An offline promote under a running canary would flip the incumbent
    // out from under the router mid-measurement (and the canary's own
    // decision could later silently override it). state()==kRunning, not
    // active(): a DRAINING canary has active()==false but is still
    // measuring and about to write its own terminal decision — flipping
    // under it is just as wrong.
    std::lock_guard<std::mutex> clock(canary_mu_);
    if (canary_ && canary_->state() == serve::CanaryState::kRunning) {
      throw std::runtime_error("a canary is running (candidate '" +
                               canary_->candidate_version() +
                               "'); abort it before an offline promote");
    }
  }
  const auto audit = [this](const serve::GateReport& report) {
    if (!config_.gate.audit_log.empty()) {
      serve::append_audit_csv(config_.gate.audit_log, report);
    }
  };
  // Online churn gate: before the offline measures run, check what TOPK
  // clients would actually observe across the swap — mean served top-k
  // churn between the incumbent's and the candidate's indexes. Off by
  // default (threshold 0); forced promotes (the rollout-rollback path)
  // bypass it like they bypass the gate.
  if (!force && ann_ && config_.topk_churn_reject > 0.0) {
    const serve::SnapshotPtr incumbent = store_.live();
    const serve::SnapshotPtr cand = store_.snapshot(candidate);
    if (incumbent && cand && incumbent->epoch() != cand->epoch()) {
      const double churn =
          ann_->topk_churn(incumbent, cand, config_.topk_churn_queries,
                           config_.topk_churn_k);
      if (churn > config_.topk_churn_reject) {
        serve::GateReport rejected;
        rejected.old_version = incumbent->version();
        rejected.new_version = candidate;
        rejected.decision = serve::GateDecision::kReject;
        rejected.reason = "topk churn " + std::to_string(churn) +
                          " exceeds threshold " +
                          std::to_string(config_.topk_churn_reject);
        audit(rejected);
        return rejected;
      }
    }
  }
  if (!force) return gate_.try_promote(store_, candidate);
  const serve::SnapshotPtr snap = store_.snapshot(candidate);
  if (snap == nullptr) {
    throw std::runtime_error("unknown candidate version '" + candidate + "'");
  }
  serve::GateReport report;
  report.old_version = store_.live_version();
  report.new_version = candidate;
  report.decision = serve::GateDecision::kAdmit;
  report.promoted = store_.set_live_snapshot(snap);
  report.reason = report.promoted ? "forced promote (gate bypassed)"
                                  : "forced promote aborted: candidate was "
                                    "re-registered during the request";
  audit(report);
  return report;
}

CanaryStatusReport Server::start_canary(const std::string& candidate,
                                        double fraction, double shadow_rate) {
  std::lock_guard<std::mutex> lock(promote_mu_);
  {
    // Same state()==kRunning rationale as try_promote: a draining canary
    // still owns the decision slot until it writes its terminal state.
    std::lock_guard<std::mutex> clock(canary_mu_);
    if (canary_ && canary_->state() == serve::CanaryState::kRunning) {
      throw std::runtime_error("a canary is already running (candidate '" +
                               canary_->candidate_version() +
                               "'); abort it first");
    }
  }
  serve::CanaryConfig ccfg = config_.canary;
  // Per-request overrides; out-of-range values mean "server default" so a
  // thin client can pass zeros.
  if (fraction > 0.0 && fraction <= 1.0) ccfg.fraction = fraction;
  if (shadow_rate > 0.0 && shadow_rate <= 1.0) ccfg.shadow_rate = shadow_rate;
  // Candidate-side traffic counts into the server's own recorders, so
  // STATS and METRICS do not under-report while the canary runs.
  ccfg.candidate_service_stats = service_stats_;
  ccfg.candidate_batcher_stats = batcher_stats_;
  // Same rationale for key-load attribution: the candidate stack serves a
  // slice of real traffic, so its keys feed the same sketch/heat map and
  // the HEAT view stays whole-traffic.
  ccfg.candidate_lookup.load = load_.get();
  serve::GateReport offline;
  const auto router =
      gate_.try_promote(store_, candidate, async_, ccfg, &offline);
  {
    std::lock_guard<std::mutex> clock(canary_mu_);
    canary_ = router;
    if (!router) {
      // Phase 1 decided everything (reject, no incumbent, or already
      // live); keep its report for status queries.
      last_canary_status_ = CanaryStatusReport{};
      last_canary_status_.state =
          offline.decision == serve::GateDecision::kReject
              ? serve::CanaryState::kOfflineRejected
              : serve::CanaryState::kNone;
      last_canary_status_.incumbent = offline.old_version;
      last_canary_status_.candidate = offline.new_version;
      last_canary_status_.offline = offline;
      last_canary_status_.reason = offline.reason;
    }
  }
  return canary_status_report();
}

std::shared_ptr<serve::CanaryRouter> Server::canary() const {
  std::lock_guard<std::mutex> lock(canary_mu_);
  return canary_;
}

std::shared_ptr<serve::CanaryRouter> Server::active_canary() const {
  std::lock_guard<std::mutex> lock(canary_mu_);
  if (canary_ && canary_->active()) return canary_;
  return nullptr;
}

CanaryStatusReport Server::canary_status_report() const {
  std::shared_ptr<serve::CanaryRouter> canary;
  {
    std::lock_guard<std::mutex> lock(canary_mu_);
    if (!canary_) return last_canary_status_;
    canary = canary_;
  }
  CanaryStatusReport s;
  s.state = canary->state();
  s.incumbent = canary->incumbent_version();
  s.candidate = canary->candidate_version();
  s.fraction = canary->config().fraction;
  s.shadow_rate = canary->config().shadow_rate;
  s.offline = canary->offline_report();
  s.online = canary->stats();
  s.reason = canary->decision_reason();
  return s;
}

}  // namespace anchor::net
