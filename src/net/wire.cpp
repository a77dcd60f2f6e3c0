#include "net/wire.hpp"

#include "net/socket.hpp"
#include "util/check.hpp"

namespace anchor::net {

std::vector<std::uint8_t> encode_frame(MsgType type, const WireWriter& payload,
                                       const obs::TraceContext& trace) {
  const std::vector<std::uint8_t>& body = payload.buffer();
  const std::uint8_t ext_len = trace.valid() ? kTraceExtBytes : 0;
  ANCHOR_CHECK_MSG(body.size() + 4 + ext_len <= kMaxFrameBytes,
                   "frame too large");
  // One contiguous buffer per frame: a single send() keeps small RPCs in
  // one TCP segment (TCP_NODELAY would otherwise split prefix and body).
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + 4 + ext_len + body.size());
  const std::uint32_t len =
      static_cast<std::uint32_t>(4 + ext_len + body.size());
  const auto* lp = reinterpret_cast<const std::uint8_t*>(&len);
  frame.insert(frame.end(), lp, lp + 4);
  frame.push_back(kWireMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<std::uint8_t>(type));
  frame.push_back(ext_len);
  if (ext_len != 0) {
    const auto* tp = reinterpret_cast<const std::uint8_t*>(&trace.trace_id);
    frame.insert(frame.end(), tp, tp + 8);
    const auto* sp = reinterpret_cast<const std::uint8_t*>(&trace.span_id);
    frame.insert(frame.end(), sp, sp + 8);
    frame.push_back(trace.flags);
  }
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

void write_frame(TcpStream& stream, MsgType type, const WireWriter& payload,
                 const obs::TraceContext& trace) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload, trace);
  stream.write_all(frame.data(), frame.size());
}

void write_frame(TcpStream& stream, MsgType type, const WireWriter& payload) {
  write_frame(stream, type, payload, obs::TraceContext{});
}

bool read_frame(TcpStream& stream, MsgType* type,
                std::vector<std::uint8_t>* payload,
                obs::TraceContext* trace) {
  if (trace != nullptr) *trace = obs::TraceContext{};
  std::uint32_t len = 0;
  if (!stream.read_exact_or_eof(&len, sizeof(len))) return false;
  if (len < 4 || len > kMaxFrameBytes) {
    throw WireError("bad frame length: " + std::to_string(len));
  }
  std::uint8_t header[4];
  stream.read_exact(header, sizeof(header));
  if (header[0] != kWireMagic) throw WireError("bad magic byte");
  if (header[1] != kWireVersion) {
    throw WireError("unsupported protocol version " +
                    std::to_string(header[1]));
  }
  *type = static_cast<MsgType>(header[2]);
  const std::uint8_t ext_len = header[3];
  if (ext_len > len - 4) {
    throw WireError("extension length exceeds frame");
  }
  if (ext_len != 0) {
    std::uint8_t ext[255];
    stream.read_exact(ext, ext_len);
    // A trace extension needs all 17 bytes; anything shorter (or any
    // bytes beyond them) is an extension this version does not know and
    // skips — that forward-compat hole is the point of ext_len.
    if (ext_len >= kTraceExtBytes && trace != nullptr) {
      std::memcpy(&trace->trace_id, ext, 8);
      std::memcpy(&trace->span_id, ext + 8, 8);
      trace->flags = ext[16];
    }
  }
  payload->resize(len - 4 - ext_len);
  if (!payload->empty()) stream.read_exact(payload->data(), payload->size());
  return true;
}

// ---- LookupResult ------------------------------------------------------

void encode_lookup_result_slice(const serve::LookupResult& result,
                                std::size_t first, std::size_t count,
                                WireWriter* w) {
  ANCHOR_CHECK_LE(first + count, result.size());
  w->str(result.version);
  w->u32(static_cast<std::uint32_t>(count));
  w->u32(static_cast<std::uint32_t>(result.dim));
  w->f32s(result.vectors.data() + first * result.dim, count * result.dim);
  w->bytes(result.oov.data() + first, count);
}

void encode_lookup_result(const serve::LookupResult& result, WireWriter* w) {
  encode_lookup_result_slice(result, 0, result.size(), w);
}

void encode_result_slice(const serve::ResultSlice& slice, WireWriter* w) {
  if (slice.batch() == nullptr) {
    w->str("");
    w->u32(0);
    w->u32(0);
    return;
  }
  encode_lookup_result_slice(*slice.batch(), slice.first(), slice.size(), w);
}

serve::LookupResult decode_lookup_result(WireReader* r) {
  serve::LookupResult result;
  result.version = r->str();
  const std::uint32_t n = r->u32();
  result.dim = r->u32();
  // Guard the sizes before resizing: both fields are attacker-controlled
  // in principle and the frame cap alone does not bound n·dim. Every row
  // carries at least its oov byte, so n beyond the remaining payload is
  // malformed even at dim == 0 — without this, n=2^32-1, dim=0 would ask
  // for a 4 GiB oov vector from a 13-byte frame.
  if (n > r->remaining() ||
      (result.dim > 0 && n > kMaxFrameBytes / sizeof(float) / result.dim)) {
    throw WireError("lookup result dimensions overflow frame cap");
  }
  result.vectors.resize(static_cast<std::size_t>(n) * result.dim);
  result.oov.resize(n);
  r->f32s(result.vectors.data(), result.vectors.size());
  r->bytes(result.oov.data(), result.oov.size());
  return result;
}

// ---- GateReport --------------------------------------------------------

void encode_gate_report(const serve::GateReport& report, WireWriter* w) {
  w->str(report.old_version);
  w->str(report.new_version);
  w->u8(static_cast<std::uint8_t>(report.decision));
  w->u8(report.promoted ? 1 : 0);
  w->f64(report.eis);
  w->f64(report.one_minus_knn);
  w->u64(report.rows_compared);
  w->str(report.reason);
}

serve::GateReport decode_gate_report(WireReader* r) {
  serve::GateReport report;
  report.old_version = r->str();
  report.new_version = r->str();
  const std::uint8_t decision = r->u8();
  if (decision > static_cast<std::uint8_t>(serve::GateDecision::kReject)) {
    throw WireError("bad gate decision code");
  }
  report.decision = static_cast<serve::GateDecision>(decision);
  report.promoted = r->u8() != 0;
  report.eis = r->f64();
  report.one_minus_knn = r->f64();
  report.rows_compared = r->u64();
  report.reason = r->str();
  return report;
}

// ---- histograms --------------------------------------------------------

void encode_histogram(const obs::HistogramSnapshot& h, WireWriter* w) {
  w->u64(h.count);
  w->u64(h.sum_units);
  w->u64(h.min_units);
  w->u64(h.max_units);
  std::uint32_t nonzero = 0;
  for (const std::uint64_t c : h.counts) {
    if (c != 0) ++nonzero;
  }
  w->u32(nonzero);
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] != 0) {
      w->u16(static_cast<std::uint16_t>(i));
      w->u64(h.counts[i]);
    }
  }
}

obs::HistogramSnapshot decode_histogram(WireReader* r) {
  obs::HistogramSnapshot h;
  h.count = r->u64();
  h.sum_units = r->u64();
  h.min_units = r->u64();
  h.max_units = r->u64();
  const std::uint32_t nonzero = r->u32();
  // Each entry is 10 payload bytes; same overrun discipline as
  // decode_lookup_result.
  if (nonzero > r->remaining() / 10) {
    throw WireError("histogram entry count exceeds payload");
  }
  if (nonzero != 0) {
    h.counts.assign(obs::LogHistogram::kNumBuckets, 0);
    for (std::uint32_t i = 0; i < nonzero; ++i) {
      const std::uint16_t idx = r->u16();
      if (idx >= obs::LogHistogram::kNumBuckets) {
        throw WireError("histogram bucket index out of range");
      }
      h.counts[idx] = r->u64();
    }
  }
  return h;
}

// ---- StatsSnapshot -----------------------------------------------------

void encode_stats_snapshot(const serve::StatsSnapshot& s, WireWriter* w) {
  w->u64(s.lookups);
  w->u64(s.batches);
  // Two reserved slots (PROTOCOL.md): written as 0, ignored on read, so
  // the v4 layout is unchanged for every peer.
  w->u64(0);
  w->u64(0);
  w->u64(s.oov_fallbacks);
  w->f64(s.elapsed_seconds);
  w->f64(s.qps);
  w->f64(s.p50_latency_us);
  w->f64(s.p99_latency_us);
  // v3: the full histogram follows, so aggregators can MERGE latency
  // distributions instead of comparing percentile scalars.
  encode_histogram(s.latency, w);
}

serve::StatsSnapshot decode_stats_snapshot(WireReader* r) {
  serve::StatsSnapshot s;
  s.lookups = r->u64();
  s.batches = r->u64();
  r->u64();  // reserved: older peers may send nonzero values here
  r->u64();  // reserved
  s.oov_fallbacks = r->u64();
  s.elapsed_seconds = r->f64();
  s.qps = r->f64();
  s.p50_latency_us = r->f64();
  s.p99_latency_us = r->f64();
  s.latency = decode_histogram(r);
  return s;
}

// ---- metrics -----------------------------------------------------------

void encode_metrics_report(const obs::MetricsReport& m, WireWriter* w) {
  w->u32(static_cast<std::uint32_t>(m.metrics.size()));
  for (const obs::MetricValue& v : m.metrics) {
    w->u8(static_cast<std::uint8_t>(v.kind));
    w->str(v.name);
    w->str(v.help);
    switch (v.kind) {
      case obs::MetricKind::kCounter:
        w->u64(v.counter);
        break;
      case obs::MetricKind::kGauge:
        w->f64(v.gauge);
        break;
      case obs::MetricKind::kHistogram:
        encode_histogram(v.hist, w);
        break;
    }
  }
}

obs::MetricsReport decode_metrics_report(WireReader* r) {
  obs::MetricsReport m;
  const std::uint32_t n = r->u32();
  // Minimum metric entry: kind byte + two empty strings = 9 bytes.
  if (n > r->remaining() / 9) {
    throw WireError("metric count exceeds payload");
  }
  m.metrics.resize(n);
  for (obs::MetricValue& v : m.metrics) {
    const std::uint8_t kind = r->u8();
    if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
      throw WireError("bad metric kind code");
    }
    v.kind = static_cast<obs::MetricKind>(kind);
    v.name = r->str();
    v.help = r->str();
    switch (v.kind) {
      case obs::MetricKind::kCounter:
        v.counter = r->u64();
        break;
      case obs::MetricKind::kGauge:
        v.gauge = r->f64();
        break;
      case obs::MetricKind::kHistogram:
        v.hist = decode_histogram(r);
        break;
    }
  }
  return m;
}

void encode_server_stats(const ServerStatsReport& s, WireWriter* w) {
  w->str(s.live_version);
  encode_stats_snapshot(s.service, w);
  encode_stats_snapshot(s.batcher, w);
  w->str(s.encoding);
}

ServerStatsReport decode_server_stats(WireReader* r) {
  ServerStatsReport s;
  s.live_version = r->str();
  s.service = decode_stats_snapshot(r);
  s.batcher = decode_stats_snapshot(r);
  // Trailing v4 field: absent in a v3 peer's reply, so only read it when
  // bytes remain (the call sites' expect_done() still rejects junk beyond).
  if (r->remaining() > 0) s.encoding = r->str();
  return s;
}

// ---- Canary ------------------------------------------------------------

void encode_canary_stats(const serve::CanaryStatsSnapshot& s, WireWriter* w) {
  w->u64(s.candidate_lookups);
  w->u64(s.incumbent_lookups);
  w->u64(s.shadows);
  w->f64(s.mean_agreement);
  w->f64(s.agreement_lower);
  w->f64(s.agreement_upper);
  w->f64(s.mean_displacement);
  w->f64(s.mean_latency_delta_us);
  w->f64(s.p50_agreement);
  w->f64(s.p50_displacement);
  w->u32(static_cast<std::uint32_t>(s.worst_keys.size()));
  for (const serve::CanaryWorstKey& k : s.worst_keys) {
    w->u64(k.key);
    w->f64(k.displacement);
  }
}

serve::CanaryStatsSnapshot decode_canary_stats(WireReader* r) {
  serve::CanaryStatsSnapshot s;
  s.candidate_lookups = r->u64();
  s.incumbent_lookups = r->u64();
  s.shadows = r->u64();
  s.mean_agreement = r->f64();
  s.agreement_lower = r->f64();
  s.agreement_upper = r->f64();
  s.mean_displacement = r->f64();
  s.mean_latency_delta_us = r->f64();
  s.p50_agreement = r->f64();
  s.p50_displacement = r->f64();
  const std::uint32_t n_worst = r->u32();
  // Each entry is 16 payload bytes; a count the payload cannot hold is
  // malformed (same overrun discipline as decode_lookup_result).
  if (n_worst > r->remaining() / 16) {
    throw WireError("worst-key count exceeds payload");
  }
  s.worst_keys.resize(n_worst);
  for (serve::CanaryWorstKey& k : s.worst_keys) {
    k.key = r->u64();
    k.displacement = r->f64();
  }
  return s;
}

void encode_canary_status(const CanaryStatusReport& s, WireWriter* w) {
  w->u8(static_cast<std::uint8_t>(s.state));
  w->str(s.incumbent);
  w->str(s.candidate);
  w->f64(s.fraction);
  w->f64(s.shadow_rate);
  encode_gate_report(s.offline, w);
  encode_canary_stats(s.online, w);
  w->str(s.reason);
}

CanaryStatusReport decode_canary_status(WireReader* r) {
  CanaryStatusReport s;
  const std::uint8_t state = r->u8();
  if (state > static_cast<std::uint8_t>(serve::CanaryState::kAborted)) {
    throw WireError("bad canary state code");
  }
  s.state = static_cast<serve::CanaryState>(state);
  s.incumbent = r->str();
  s.candidate = r->str();
  s.fraction = r->f64();
  s.shadow_rate = r->f64();
  s.offline = decode_gate_report(r);
  s.online = decode_canary_stats(r);
  s.reason = r->str();
  return s;
}

// ---- cluster rollout ----------------------------------------------------

std::string rollout_state_name(RolloutState s) {
  switch (s) {
    case RolloutState::kIdle:
      return "idle";
    case RolloutState::kRunning:
      return "running";
    case RolloutState::kCompleted:
      return "completed";
    case RolloutState::kRolledBack:
      return "rolled-back";
    case RolloutState::kAborted:
      return "aborted";
  }
  ANCHOR_CHECK_MSG(false, "unknown RolloutState");
  return "";
}

std::string shard_rollout_state_name(ShardRolloutState s) {
  switch (s) {
    case ShardRolloutState::kPending:
      return "pending";
    case ShardRolloutState::kInProgress:
      return "in-progress";
    case ShardRolloutState::kPromoted:
      return "promoted";
    case ShardRolloutState::kFailed:
      return "failed";
    case ShardRolloutState::kRolledBack:
      return "rolled-back";
  }
  ANCHOR_CHECK_MSG(false, "unknown ShardRolloutState");
  return "";
}

void encode_rollout_status(const RolloutStatusReport& s, WireWriter* w) {
  w->u8(static_cast<std::uint8_t>(s.state));
  w->str(s.candidate);
  w->u8(s.mode);
  w->u64(s.map_version);
  w->u32(static_cast<std::uint32_t>(s.shards.size()));
  for (const ShardRolloutStatus& shard : s.shards) {
    w->u8(static_cast<std::uint8_t>(shard.state));
    w->str(shard.detail);
  }
  w->str(s.reason);
}

RolloutStatusReport decode_rollout_status(WireReader* r) {
  RolloutStatusReport s;
  const std::uint8_t state = r->u8();
  if (state > static_cast<std::uint8_t>(RolloutState::kAborted)) {
    throw WireError("bad rollout state code");
  }
  s.state = static_cast<RolloutState>(state);
  s.candidate = r->str();
  s.mode = r->u8();
  s.map_version = r->u64();
  const std::uint32_t n = r->u32();
  // Every shard entry carries at least its state byte + detail length.
  if (n > r->remaining() / 5) {
    throw WireError("shard count exceeds payload");
  }
  s.shards.resize(n);
  for (ShardRolloutStatus& shard : s.shards) {
    const std::uint8_t ss = r->u8();
    if (ss > static_cast<std::uint8_t>(ShardRolloutState::kRolledBack)) {
      throw WireError("bad shard rollout state code");
    }
    shard.state = static_cast<ShardRolloutState>(ss);
    shard.detail = r->str();
  }
  s.reason = r->str();
  return s;
}

void encode_topk_request(const TopKRequest& req, WireWriter* w) {
  w->u32(req.k);
  w->u32(req.nprobe);
  w->u32(req.rerank);
  w->u8(req.mode);
  w->u8(req.kind);
  switch (req.kind) {
    case kTopKKindId:
      w->u64(req.id);
      break;
    case kTopKKindWord:
      w->str(req.word);
      break;
    case kTopKKindVector:
      w->u32(static_cast<std::uint32_t>(req.vector.size()));
      w->f32s(req.vector.data(), req.vector.size());
      break;
    default:
      throw WireError("bad topk query kind");
  }
}

TopKRequest decode_topk_request(WireReader* r) {
  TopKRequest req;
  req.k = r->u32();
  req.nprobe = r->u32();
  req.rerank = r->u32();
  req.mode = r->u8();
  if (req.mode > kTopKModeCandidates) throw WireError("bad topk mode");
  req.kind = r->u8();
  switch (req.kind) {
    case kTopKKindId:
      req.id = r->u64();
      break;
    case kTopKKindWord:
      req.word = r->str();
      break;
    case kTopKKindVector: {
      const std::uint32_t dim = r->u32();
      if (dim > r->remaining() / sizeof(float)) {
        throw WireError("topk vector dim exceeds payload");
      }
      req.vector.resize(dim);
      r->f32s(req.vector.data(), dim);
      break;
    }
    default:
      throw WireError("bad topk query kind");
  }
  return req;
}

void encode_topk_result(const ann::TopKResult& result, WireWriter* w) {
  w->reserve(result.version.size() + 18 + result.hits.size() * 16);
  w->str(result.version);
  w->u32(result.cells_probed);
  w->u32(result.shortlist);
  w->u8(result.flags);
  w->u32(static_cast<std::uint32_t>(result.hits.size()));
  for (const ann::TopKHit& h : result.hits) {
    w->u64(h.id);
    w->f32(h.exact);
    w->f32(h.adc);
  }
}

ann::TopKResult decode_topk_result(WireReader* r) {
  ann::TopKResult result;
  result.version = r->str();
  result.cells_probed = r->u32();
  result.shortlist = r->u32();
  result.flags = r->u8();
  const std::uint32_t n = r->u32();
  // Each hit is exactly 16 bytes on the wire.
  if (n > r->remaining() / 16) {
    throw WireError("topk hit count exceeds payload");
  }
  result.hits.resize(n);
  for (ann::TopKHit& h : result.hits) {
    h.id = r->u64();
    h.exact = r->f32();
    h.adc = r->f32();
  }
  return result;
}

// ---- load & drift telemetry (HEAT) --------------------------------------

void encode_windowed_snapshot(const obs::WindowedSnapshot& w,
                              WireWriter* out) {
  out->u64(w.slice_us);
  out->u64(w.now_us);
  out->u32(static_cast<std::uint32_t>(w.slices.size()));
  for (const obs::WindowSlice& s : w.slices) {
    out->u64(s.epoch);
    out->u64(s.requests);
    out->u64(s.errors);
    encode_histogram(s.latency, out);
  }
}

obs::WindowedSnapshot decode_windowed_snapshot(WireReader* r) {
  obs::WindowedSnapshot w;
  w.slice_us = r->u64();
  w.now_us = r->u64();
  const std::uint32_t n = r->u32();
  // An all-empty snapshot may carry slice_us 0 (nothing recorded yet);
  // actual slices without a slice width are undecodable nonsense.
  if (n != 0 && w.slice_us == 0) {
    throw WireError("windowed slice width is zero");
  }
  // Every slice carries three u64 counters plus a histogram whose fixed
  // aggregates alone are 36 bytes.
  if (n > r->remaining() / 60) {
    throw WireError("windowed slice count exceeds payload");
  }
  w.slices.resize(n);
  std::uint64_t prev_epoch = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    obs::WindowSlice& s = w.slices[i];
    s.epoch = r->u64();
    if (i != 0 && s.epoch <= prev_epoch) {
      // The merge contract requires strictly ascending epochs; a hostile
      // frame must not smuggle duplicates past it.
      throw WireError("windowed slices out of order");
    }
    prev_epoch = s.epoch;
    s.requests = r->u64();
    s.errors = r->u64();
    s.latency = decode_histogram(r);
  }
  return w;
}

void encode_sketch_snapshot(const obs::SketchSnapshot& s, WireWriter* out) {
  out->reserve(20 + s.entries.size() * 24);
  out->u64(s.capacity);
  out->u64(s.total);
  out->u32(static_cast<std::uint32_t>(s.entries.size()));
  for (const obs::HeavyHitter& e : s.entries) {
    out->u64(e.key);
    out->u64(e.count);
    out->u64(e.error);
  }
}

obs::SketchSnapshot decode_sketch_snapshot(WireReader* r) {
  obs::SketchSnapshot s;
  s.capacity = r->u64();
  s.total = r->u64();
  const std::uint32_t n = r->u32();
  // Each entry is exactly 24 bytes on the wire.
  if (n > r->remaining() / 24) {
    throw WireError("sketch entry count exceeds payload");
  }
  s.entries.resize(n);
  for (obs::HeavyHitter& e : s.entries) {
    e.key = r->u64();
    e.count = r->u64();
    e.error = r->u64();
  }
  return s;
}

void encode_heat_map(const obs::HeatMapSnapshot& h, WireWriter* out) {
  out->u64(h.total);
  out->u64(h.elapsed_us);
  out->u32(static_cast<std::uint32_t>(h.ranges.size()));
  for (const obs::HeatRange& rg : h.ranges) {
    out->u64(rg.row_begin);
    out->u64(rg.row_end);
    out->u32(static_cast<std::uint32_t>(rg.buckets.size()));
    for (const std::uint64_t b : rg.buckets) out->u64(b);
  }
}

obs::HeatMapSnapshot decode_heat_map(WireReader* r) {
  obs::HeatMapSnapshot h;
  h.total = r->u64();
  h.elapsed_us = r->u64();
  const std::uint32_t n = r->u32();
  // Every range carries its two bounds plus a bucket count.
  if (n > r->remaining() / 20) {
    throw WireError("heat range count exceeds payload");
  }
  h.ranges.resize(n);
  for (obs::HeatRange& rg : h.ranges) {
    rg.row_begin = r->u64();
    rg.row_end = r->u64();
    if (rg.row_end < rg.row_begin) {
      throw WireError("heat range bounds inverted");
    }
    const std::uint32_t nb = r->u32();
    if (nb > r->remaining() / 8) {
      throw WireError("heat bucket count exceeds payload");
    }
    rg.buckets.resize(nb);
    for (std::uint64_t& b : rg.buckets) b = r->u64();
  }
  return h;
}

void encode_heat_report(const HeatReport& h, WireWriter* out) {
  encode_windowed_snapshot(h.windowed, out);
  encode_sketch_snapshot(h.sketch, out);
  encode_heat_map(h.heat, out);
}

HeatReport decode_heat_report(WireReader* r) {
  HeatReport h;
  h.windowed = decode_windowed_snapshot(r);
  h.sketch = decode_sketch_snapshot(r);
  h.heat = decode_heat_map(r);
  return h;
}

}  // namespace anchor::net
