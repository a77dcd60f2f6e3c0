#include "net/server.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "net/wire.hpp"

namespace anchor::net {

Server::Server(serve::EmbeddingStore& store, ServerConfig config)
    : store_(store),
      config_(config),
      service_stats_(std::make_shared<serve::ServeStats>()),
      batcher_stats_(std::make_shared<serve::ServeStats>()),
      windowed_(config.windowed),
      batch_windowed_(config.windowed),
      load_([&]() -> std::unique_ptr<obs::KeyLoadRecorder> {
        if (config.hot_key_capacity == 0) return nullptr;
        obs::SpaceSavingSketch::Config sketch;
        sketch.capacity = config.hot_key_capacity;
        obs::RangeHeatMap::Config heat;
        heat.row_begin = 0;
        const serve::SnapshotPtr live = store.live();
        heat.row_end = live ? live->vocab_size() : 0;
        heat.buckets = config.heat_buckets != 0 ? config.heat_buckets : 1;
        return std::make_unique<obs::KeyLoadRecorder>(sketch, heat);
      }()),
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
      async_(service_,
             [&] {
               serve::BatcherConfig bc = config.batcher;
               bc.windowed = &batch_windowed_;
               return bc;
             }(),
             batcher_stats_),
      gate_(config.gate),
      listener_(TcpListener::bind_loopback(config.port)),
      faults_(config.fault_seed) {
  if (config_.fault_inject) faults_.configure(config_.faults);
  if (config_.ann_enable) {
    ann_ = std::make_unique<ann::AnnService>(store_, config_.ann);
  }
  // Pin the drift reference against whatever is live now; one immediate
  // run seeds the gauges at their no-drift baseline.
  drift_ = std::make_unique<obs::DriftProbe>(store_, config_.drift);
  register_metrics();
  drift_->register_metrics(metrics_);
  drift_->run_once();
  drift_->start();
}

HeatReport Server::heat_report() {
  // The RPC-level window only: batch_windowed_ counts coalesced *keys*,
  // a different unit, and is exported via Prometheus instead of merged
  // into the fleet's request-rate view.
  HeatReport report;
  report.windowed = windowed_.snapshot();
  if (load_ != nullptr) {
    report.sketch = load_->sketch.snapshot();
    report.heat = load_->heat.snapshot();
  }
  return report;
}

void Server::register_metrics() {
  // Counter/gauge values are bridged at snapshot time from the serve
  // layer's own atomics (no double counting, no hot-path changes); the
  // latency histograms are live LogHistogram snapshots, so the exported
  // _bucket series merge exactly across processes.
  metrics_.register_histogram(
      "anchor_service_latency_us",
      "Per executed lookup batch latency (LookupService view)",
      [this] { return service_stats_->latency_histogram(); });
  metrics_.register_histogram(
      "anchor_batcher_latency_us",
      "Per coalesced batch latency, oldest enqueue to scatter "
      "(client-observed view)",
      [this] { return batcher_stats_->latency_histogram(); });
  if (ann_) {
    metrics_.register_histogram(
        "anchor_topk_latency_us",
        "IVF-PQ search latency per TOPK request (probe+ADC+re-rank)",
        [this] { return topk_latency_us_.snapshot(); });
    metrics_.register_histogram(
        "anchor_topk_cells_probed",
        "Coarse cells probed per TOPK request",
        [this] { return topk_cells_probed_.snapshot(); });
    metrics_.register_histogram(
        "anchor_topk_shortlist_size",
        "ADC shortlist size re-ranked exactly per TOPK request",
        [this] { return topk_shortlist_.snapshot(); });
  }
  // Remembers the previously exported version label so a hot swap zeroes
  // the stale series instead of leaving two versions claiming live.
  auto last_version = std::make_shared<std::string>();
  auto last_encoding = std::make_shared<std::string>();
  metrics_.on_collect([this, last_version,
                       last_encoding](obs::MetricsRegistry& reg) {
    const serve::StatsSnapshot service = service_stats_->snapshot();
    const serve::StatsSnapshot batcher = batcher_stats_->snapshot();
    reg.counter("anchor_lookup_requests_total",
                "Vectors served (client-observed, batcher view)")
        .set(batcher.lookups);
    reg.counter("anchor_batches_total", "Coalesced batches executed")
        .set(batcher.batches);
    reg.counter("anchor_service_lookups_total",
                "Vectors served by the underlying LookupService "
                "(canary traffic included)")
        .set(service.lookups);
    reg.counter("anchor_oov_fallbacks_total",
                "Lookups answered via subword synthesis")
        .set(service.oov_fallbacks);
    reg.gauge("anchor_batch_occupancy",
              "Mean keys per coalesced batch since start/reset")
        .set(batcher.batches > 0
                 ? static_cast<double>(batcher.lookups) /
                       static_cast<double>(batcher.batches)
                 : 0.0);
    reg.gauge("anchor_batcher_pending", "Requests queued, not yet flushed")
        .set(static_cast<double>(async_.pending()));
    reg.counter("anchor_trace_spans_total",
                "Trace spans recorded into this process's span ring")
        .set(obs::Tracer::instance().spans_recorded());
    if (ann_) {
      reg.counter("anchor_topk_requests_total",
                  "TOPK searches served against the live IVF-PQ index")
          .set(topk_requests_.load(std::memory_order_relaxed));
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
  // Top-key series are rank-labeled with the key id as a second label;
  // when a rank's id changes between scrapes the stale series is zeroed,
  // the same discipline as the live-version info gauge.
  auto last_top = std::make_shared<std::vector<std::string>>();
  metrics_.on_collect([this, last_top](obs::MetricsRegistry& reg) {
    const obs::WindowedSnapshot w = windowed_.snapshot();
    reg.gauge("anchor_window_qps_10s", "RPC requests/s over the last 10 s")
        .set(w.qps(10'000'000ull));
    reg.gauge("anchor_window_qps_1m", "RPC requests/s over the last 60 s")
        .set(w.qps(60'000'000ull));
    reg.gauge("anchor_window_error_rate_1m",
              "RPC error fraction over the last 60 s")
        .set(w.error_rate(60'000'000ull));
    reg.gauge("anchor_window_p99_us_1m",
              "RPC p99 latency (µs) over the last 60 s")
        .set(w.latency_in(60'000'000ull).quantile(0.99));
    const obs::WindowedSnapshot bw = batch_windowed_.snapshot();
    reg.gauge("anchor_batcher_window_keys_per_s_1m",
              "Coalesced lookup keys/s over the last 60 s")
        .set(bw.qps(60'000'000ull));
    const obs::SloState slo = slo_.evaluate(w);
    reg.gauge("anchor_slo_burn_short",
              "SLO burn rate over the short window (1.0 = exactly on "
              "budget)")
        .set(slo.short_burn);
    reg.gauge("anchor_slo_burn_long", "SLO burn rate over the long window")
        .set(slo.long_burn);
    reg.gauge("anchor_slo_alert_state",
              "Multi-window burn-rate alert (0 ok, 1 warn, 2 page)")
        .set(static_cast<double>(slo.alert));
    if (load_ != nullptr) {
      const obs::SketchSnapshot sketch = load_->sketch.snapshot();
      reg.counter("anchor_key_load_records_total",
                  "Key occurrences offered to the heavy-hitter sketch")
          .set(sketch.total);
      constexpr std::size_t kExportRanks = 8;
      const std::vector<obs::HeavyHitter> top = sketch.top(kExportRanks);
      last_top->resize(kExportRanks);
      for (std::size_t r = 0; r < kExportRanks; ++r) {
        std::string name;
        if (r < top.size()) {
          name = "anchor_top_key_count{rank=\"" + std::to_string(r) +
                 "\",id=\"" + std::to_string(top[r].key) + "\"}";
        }
        if ((*last_top)[r] != name && !(*last_top)[r].empty()) {
          reg.gauge((*last_top)[r],
                    "Sketch count of the rank-N hottest key")
              .set(0.0);
        }
        (*last_top)[r] = name;
        if (!name.empty()) {
          reg.gauge(name, "Sketch count of the rank-N hottest key")
              .set(static_cast<double>(top[r].count));
        }
      }
      // Heat buckets are cumulative (never reset), so only the populated
      // ones need series — a bucket that ever counted stays nonzero.
      const obs::HeatMapSnapshot heat = load_->heat.snapshot();
      std::size_t populated = 0;
      for (const obs::HeatRange& range : heat.ranges) {
        for (std::size_t b = 0; b < range.buckets.size(); ++b) {
          if (range.buckets[b] == 0) continue;
          ++populated;
          reg.counter("anchor_heat_bucket_total{bucket=\"" +
                          std::to_string(b) + "\"}",
                      "Key-load records landing in this id-range bucket")
              .set(range.buckets[b]);
        }
      }
      reg.gauge("anchor_heat_buckets_populated",
                "Heat-map buckets that have recorded any load")
          .set(static_cast<double>(populated));
    }
  });
}

Server::~Server() { stop(); }

void Server::run() { accept_loop(); }

void Server::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  if (drift_) drift_->stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  // run() callers drive the accept loop on their own thread; wait for it
  // to observe the stop flag (bounded by poll_interval_ms) so the
  // listener is never closed mid-accept and no connection is pushed
  // after the final reap.
  while (accept_running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reap_connections(/*all=*/true);
  // Graceful-shutdown drain: every handler has exited (their in-flight
  // batches are answered), so all that can still be mid-work is the
  // canary's shadow scorer — wait for it rather than tearing the process
  // down under a half-scored comparison window.
  const auto canary = [this] {
    std::lock_guard<std::mutex> lock(canary_mu_);
    return canary_;
  }();
  if (canary) canary->abort(/*drain=*/true);  // no-op unless running
  listener_.close();
}

void Server::reap_connections(bool all) {
  std::vector<std::unique_ptr<Connection>> to_join;
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
  }
  for (auto& conn : to_join) conn->thread.join();
}

void Server::accept_loop() {
  accept_running_.store(true, std::memory_order_release);
  while (!stop_.load(std::memory_order_acquire)) {
    reap_connections(/*all=*/false);
    TcpStream conn = listener_.accept(config_.poll_interval_ms);
    if (!conn.valid()) continue;  // poll timeout — recheck stop flag
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->thread =
        std::thread([this, raw, stream = std::move(conn)]() mutable {
          handle_connection(std::move(stream));
          raw->done.store(true, std::memory_order_release);
        });
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.push_back(std::move(connection));
  }
  accept_running_.store(false, std::memory_order_release);
}

void Server::handle_connection(TcpStream stream) {
  stream.set_io_timeout(config_.io_timeout_ms);
  MsgType type{};
  std::vector<std::uint8_t> payload;
  obs::TraceContext trace;
  try {
    while (!stop_.load(std::memory_order_acquire)) {
      // Poll so a stop() issued while the client is idle is honored within
      // one interval instead of blocking in recv forever.
      if (!stream.wait_readable(config_.poll_interval_ms)) continue;
      if (!read_frame(stream, &type, &payload, &trace)) break;  // went away
      // backend_recv brackets the whole server-side handling: frame
      // parsed → reply written.
      const std::uint64_t recv_ns =
          trace.sampled() ? obs::Tracer::now_ns() : 0;
      const bool keep = dispatch(stream, type, payload, trace);
      if (trace.sampled()) {
        obs::Tracer::instance().record(trace, obs::TraceStage::kBackendRecv,
                                       recv_ns, obs::Tracer::now_ns());
      }
      if (!keep) break;
    }
  } catch (const WireError&) {
    // Malformed framing: the stream position is unrecoverable, so close
    // without a reply (an error frame could land mid-garbage anyway).
  } catch (const NetError&) {
    // Peer reset or vanished mid-message; nothing left to answer.
  }
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

/// Records one data-plane request into a windowed ring on scope exit:
/// wall latency from construction; counted as an error unless the
/// handler cleared the flag after putting a clean reply on the wire, so
/// malformed frames, serving errors, and injected drops all burn budget.
struct WindowedScope {
  explicit WindowedScope(obs::WindowedStats& w) : w_(w) {}
  ~WindowedScope() {
    w_.record(static_cast<double>(obs::Tracer::now_ns() - t0_) / 1000.0,
              error);
  }
  WindowedScope(const WindowedScope&) = delete;
  WindowedScope& operator=(const WindowedScope&) = delete;

  obs::WindowedStats& w_;
  std::uint64_t t0_ = obs::Tracer::now_ns();
  bool error = true;
};

}  // namespace

bool Server::dispatch(TcpStream& stream, MsgType type,
                      const std::vector<std::uint8_t>& payload,
                      const obs::TraceContext& trace) {
  WireReader reader(payload);
  WireWriter reply;
  // Upper bound on keys whose REPLY still fits the frame cap: each row
  // costs dim f32s plus an oov byte. Checked before running a lookup, so
  // an oversized-but-well-formed request is refused with an error frame
  // instead of allocating gigabytes and failing at send time. Uses the
  // live snapshot's dim; a concurrent hot swap to a different dim is
  // caught by write_frame's own cap check (kError reply, no crash).
  const auto max_reply_keys = [this]() -> std::uint64_t {
    const serve::SnapshotPtr live = store_.live();
    const std::uint64_t row_bytes =
        live ? live->dim() * sizeof(float) + 1 : 1;
    return (kMaxFrameBytes - 1024) / row_bytes;
  };
  // Payload decode errors (WireError) propagate to handle_connection and
  // close the connection — the stream itself is fine but the peer speaks a
  // different layout. Serving errors (unknown version, empty store) keep
  // the connection and answer kError instead.
  switch (type) {
    case MsgType::kLookupIds: {
      WindowedScope wscope(windowed_);
      const std::uint32_t n = reader.u32();
      // Each id occupies 8 payload bytes, so a count the payload cannot
      // hold is malformed — reject before allocating n slots.
      if (n > reader.remaining() / sizeof(std::uint64_t)) {
        throw WireError("id count exceeds payload");
      }
      if (n > max_reply_keys()) {
        WireWriter err;
        err.str("batch too large: reply would exceed the frame cap");
        write_frame(stream, MsgType::kError, err);
        return true;
      }
      std::vector<std::size_t> ids(n);
      for (auto& id : ids) id = static_cast<std::size_t>(reader.u64());
      reader.expect_done();
      try {
        if (const auto canary = active_canary()) {
          // Canary data plane: the router hash-splits the keys between
          // incumbent and candidate (and mirrors the shadow sample),
          // then merges back into request order.
          serve::LookupResult merged;
          canary->lookup_ids_into(ids, &merged);
          encode_lookup_result(merged, &reply);
          const bool sent =
              send_data_reply(stream, MsgType::kLookupIdsReply, reply);
          wscope.error = !sent;
          return sent;
        }
        // Single keys ride the allocation-free ring fast path; bigger
        // requests coalesce on the general path. Traced requests always
        // take the general path — the ring's slots carry no trace, and a
        // sampled request is rare enough that the span fidelity is worth
        // more than the fast path.
        const serve::ResultSlice slice =
            trace.sampled() ? async_.lookup_ids(std::move(ids), trace).get()
            : ids.size() == 1 ? async_.lookup_id(ids[0]).get()
                              : async_.lookup_ids(std::move(ids)).get();
        encode_result_slice(slice, &reply);
        if (!send_data_reply(stream, MsgType::kLookupIdsReply, reply)) {
          return false;
        }
        wscope.error = false;
      } catch (const NetError&) {
        // Transport failure, possibly mid-reply: the stream framing is
        // gone; close the connection instead of appending an error frame
        // onto a truncated reply.
        throw;
      } catch (const std::exception& e) {
        WireWriter err;
        err.str(e.what());
        write_frame(stream, MsgType::kError, err);
      }
      return true;
    }
    case MsgType::kLookupWords: {
      WindowedScope wscope(windowed_);
      const std::uint32_t n = reader.u32();
      // Every word carries at least its 4-byte length prefix.
      if (n > reader.remaining() / sizeof(std::uint32_t)) {
        throw WireError("word count exceeds payload");
      }
      if (n > max_reply_keys()) {
        WireWriter err;
        err.str("batch too large: reply would exceed the frame cap");
        write_frame(stream, MsgType::kError, err);
        return true;
      }
      std::vector<std::string> words(n);
      for (auto& word : words) word = reader.str();
      reader.expect_done();
      try {
        if (const auto canary = active_canary()) {
          serve::LookupResult merged;
          canary->lookup_words_into(words, &merged);
          encode_lookup_result(merged, &reply);
          const bool sent =
              send_data_reply(stream, MsgType::kLookupWordsReply, reply);
          wscope.error = !sent;
          return sent;
        }
        const serve::ResultSlice slice =
            trace.sampled()
                ? async_.lookup_words(std::move(words), trace).get()
                : async_.lookup_words(std::move(words)).get();
        encode_result_slice(slice, &reply);
        if (!send_data_reply(stream, MsgType::kLookupWordsReply, reply)) {
          return false;
        }
        wscope.error = false;
      } catch (const NetError&) {
        throw;  // transport failure mid-reply: close, don't answer
      } catch (const std::exception& e) {
        WireWriter err;
        err.str(e.what());
        write_frame(stream, MsgType::kError, err);
      }
      return true;
    }
    case MsgType::kTopK: {
      WindowedScope wscope(windowed_);
      TopKRequest req = decode_topk_request(&reader);
      reader.expect_done();
      if (!ann_) {
        WireWriter err;
        err.str("TOPK serving is disabled on this server");
        write_frame(stream, MsgType::kError, err);
        return true;
      }
      try {
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
        if (trace.sampled()) {
          obs::Tracer::instance().record(trace, obs::TraceStage::kTopkSearch,
                                         t0, t1);
        }
        topk_requests_.fetch_add(1, std::memory_order_relaxed);
        topk_latency_us_.record(static_cast<double>(t1 - t0) / 1000.0);
        topk_cells_probed_.record(static_cast<double>(result.cells_probed));
        topk_shortlist_.record(static_cast<double>(result.shortlist));
        encode_topk_result(result, &reply);
        const bool sent = send_data_reply(stream, MsgType::kTopKReply, reply);
        wscope.error = !sent;
        return sent;
      } catch (const NetError&) {
        throw;  // transport failure mid-reply: close, don't answer
      } catch (const std::exception& e) {
        WireWriter err;
        err.str(e.what());
        write_frame(stream, MsgType::kError, err);
      }
      return true;
    }
    case MsgType::kTryPromote: {
      const std::string candidate = reader.str();
      // Optional byte (older clients omit it): bypass the gate and flip
      // live directly — the rollout rollback path, where re-running a
      // near-threshold gate in the reverse direction could refuse to
      // restore the incumbent and strand a mixed-version cluster.
      const bool force = reader.remaining() > 0 && reader.u8() != 0;
      reader.expect_done();
      try {
        // Promotions are serialized: concurrent handlers would interleave
        // appends to the gate's audit CSV (and gate two candidates
        // against the same incumbent at once, promoting both).
        std::lock_guard<std::mutex> lock(promote_mu_);
        {
          // An offline promote under a running canary would flip the
          // incumbent out from under the router mid-measurement (and the
          // canary's own decision could later silently override it).
          // state()==kRunning, not active(): a DRAINING canary has
          // active()==false but is still measuring and about to write
          // its own terminal decision — flipping under it is just as
          // wrong.
          std::lock_guard<std::mutex> clock(canary_mu_);
          if (canary_ &&
              canary_->state() == serve::CanaryState::kRunning) {
            throw std::runtime_error(
                "a canary is running (candidate '" +
                canary_->candidate_version() +
                "'); abort it before an offline promote");
          }
        }
        // Online churn gate: before the offline measures run, check what
        // TOPK clients would actually observe across the swap — mean
        // served top-k churn between the incumbent's and the candidate's
        // indexes. Off by default (threshold 0); forced promotes (the
        // rollout-rollback path) bypass it like they bypass the gate.
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
              rejected.reason =
                  "topk churn " + std::to_string(churn) +
                  " exceeds threshold " +
                  std::to_string(config_.topk_churn_reject);
              if (!config_.gate.audit_log.empty()) {
                serve::append_audit_csv(config_.gate.audit_log, rejected);
              }
              encode_gate_report(rejected, &reply);
              write_frame(stream, MsgType::kTryPromoteReply, reply);
              return true;
            }
          }
        }
        serve::GateReport report;
        if (force) {
          const serve::SnapshotPtr snap = store_.snapshot(candidate);
          if (snap == nullptr) {
            throw std::runtime_error("unknown candidate version '" +
                                     candidate + "'");
          }
          report.old_version = store_.live_version();
          report.new_version = candidate;
          report.decision = serve::GateDecision::kAdmit;
          report.promoted = store_.set_live_snapshot(snap);
          report.reason = report.promoted
                              ? "forced promote (gate bypassed)"
                              : "forced promote aborted: candidate was "
                                "re-registered during the request";
          if (!config_.gate.audit_log.empty()) {
            serve::append_audit_csv(config_.gate.audit_log, report);
          }
        } else {
          report = gate_.try_promote(store_, candidate);
        }
        encode_gate_report(report, &reply);
        write_frame(stream, MsgType::kTryPromoteReply, reply);
      } catch (const NetError&) {
        throw;  // transport failure mid-reply: close, don't answer
      } catch (const std::exception& e) {
        WireWriter err;
        err.str(e.what());
        write_frame(stream, MsgType::kError, err);
      }
      return true;
    }
    case MsgType::kStats: {
      reader.expect_done();
      ServerStatsReport report;
      report.live_version = store_.live_version();
      if (const serve::SnapshotPtr live = store_.live()) {
        report.encoding = live->encoding();
      }
      report.service = service_.stats().snapshot();
      report.batcher = async_.stats().snapshot();
      encode_server_stats(report, &reply);
      write_frame(stream, MsgType::kStatsReply, reply);
      return true;
    }
    case MsgType::kPing: {
      reader.expect_done();
      write_frame(stream, MsgType::kPong, reply);
      return true;
    }
    case MsgType::kMetrics: {
      reader.expect_done();
      encode_metrics_report(metrics_.snapshot(), &reply);
      write_frame(stream, MsgType::kMetricsReply, reply);
      return true;
    }
    case MsgType::kHeat: {
      reader.expect_done();
      // Control plane, like kStats/kMetrics: no fault injection, no
      // windowed self-recording — the telemetry RPC must not perturb the
      // telemetry it reports.
      encode_heat_report(heat_report(), &reply);
      write_frame(stream, MsgType::kHeatReply, reply);
      return true;
    }
    case MsgType::kCanaryStart: {
      const std::string candidate = reader.str();
      const double fraction = reader.f64();
      const double shadow_rate = reader.f64();
      reader.expect_done();
      try {
        std::lock_guard<std::mutex> lock(promote_mu_);
        {
          // Same state()==kRunning rationale as kTryPromote: a draining
          // canary still owns the decision slot until it writes its
          // terminal state.
          std::lock_guard<std::mutex> clock(canary_mu_);
          if (canary_ &&
              canary_->state() == serve::CanaryState::kRunning) {
            throw std::runtime_error(
                "a canary is already running (candidate '" +
                canary_->candidate_version() + "'); abort it first");
          }
        }
        serve::CanaryConfig ccfg = config_.canary;
        // Per-request overrides; out-of-range values mean "server
        // default" so a thin client can pass zeros.
        if (fraction > 0.0 && fraction <= 1.0) ccfg.fraction = fraction;
        if (shadow_rate > 0.0 && shadow_rate <= 1.0) {
          ccfg.shadow_rate = shadow_rate;
        }
        // Candidate-side traffic counts into the server's own stats, so
        // kStats does not under-report while the canary runs.
        ccfg.candidate_service_stats = service_stats_;
        ccfg.candidate_batcher_stats = batcher_stats_;
        // Same rationale for key-load attribution: the candidate stack
        // serves a slice of real traffic, so its keys feed the same
        // sketch/heat map and the HEAT view stays whole-traffic.
        ccfg.candidate_lookup.load = load_.get();
        ccfg.candidate_batcher.windowed = &batch_windowed_;
        serve::GateReport offline;
        const auto router =
            gate_.try_promote(store_, candidate, async_, ccfg, &offline);
        {
          std::lock_guard<std::mutex> clock(canary_mu_);
          canary_ = router;
          if (!router) {
            // Phase 1 decided everything (reject, no incumbent, or
            // already live); keep its report for status queries.
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
        encode_canary_status(canary_status_report(), &reply);
        write_frame(stream, MsgType::kCanaryStartReply, reply);
      } catch (const NetError&) {
        throw;  // transport failure mid-reply: close, don't answer
      } catch (const std::exception& e) {
        WireWriter err;
        err.str(e.what());
        write_frame(stream, MsgType::kError, err);
      }
      return true;
    }
    case MsgType::kCanaryStatus: {
      reader.expect_done();
      encode_canary_status(canary_status_report(), &reply);
      write_frame(stream, MsgType::kCanaryStatusReply, reply);
      return true;
    }
    case MsgType::kCanaryAbort: {
      // The drain byte is optional: an empty payload (older client) means
      // a plain immediate abort.
      const bool drain = reader.remaining() > 0 && reader.u8() != 0;
      reader.expect_done();
      {
        // Deliberately NOT under promote_mu_: a drained abort can wait
        // up to the drain timeout on in-flight lookups, and holding the
        // promote lock that long would stall every other control-plane
        // RPC. Safe without it: abort() decides at most once under its
        // own mutex, and the kRunning guards above keep promotes out
        // until the canary (draining included) reaches a terminal
        // state.
        const auto canary = [this] {
          std::lock_guard<std::mutex> clock(canary_mu_);
          return canary_;
        }();
        if (canary) canary->abort(drain);  // no-op unless running
      }
      encode_canary_status(canary_status_report(), &reply);
      write_frame(stream, MsgType::kCanaryAbortReply, reply);
      return true;
    }
    case MsgType::kFaultSet: {
      const std::string spec = reader.str();
      reader.expect_done();
      if (!config_.fault_inject) {
        WireWriter err;
        err.str("fault injection is not armed (start with --fault-inject)");
        write_frame(stream, MsgType::kError, err);
        return true;
      }
      try {
        faults_.configure(FaultConfig::parse(spec));
      } catch (const std::exception& e) {
        WireWriter err;
        err.str(e.what());
        write_frame(stream, MsgType::kError, err);
        return true;
      }
      // Echo the canonical form so the orchestrator can log what took
      // effect ("" = faults cleared).
      reply.str(faults_.config().serialize());
      write_frame(stream, MsgType::kFaultSetReply, reply);
      return true;
    }
    case MsgType::kShutdown: {
      reader.expect_done();
      // Flags first, reply second: a client that received the reply must
      // observe shutdown_requested() as true. The accept loop stops;
      // stop() (daemon main / destructor) joins the other handlers, and
      // this handler just closes its own connection.
      shutdown_requested_.store(true, std::memory_order_release);
      stop_.store(true, std::memory_order_release);
      write_frame(stream, MsgType::kShutdownReply, reply);
      return false;
    }
    default:
      WireWriter err;
      err.str("unknown request type " +
              std::to_string(static_cast<int>(type)));
      write_frame(stream, MsgType::kError, err);
      return true;
  }
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
