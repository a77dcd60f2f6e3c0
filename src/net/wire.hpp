// Length-prefixed binary wire protocol for the serving front-end.
//
// Every message is one frame: a u32 payload length, then a 4-byte header
// (magic, protocol version, message type, extension length), then
// `ext_len` extension bytes, then a type-specific payload. The extension
// carries the optional TraceContext (17 bytes; see PROTOCOL.md) — peers
// skip extension bytes they do not understand, so tracing rides along
// without perturbing any payload layout. All integers and floats are
// little-endian (x86 native; see PROTOCOL.md for the normative layout).
//
// One field list per payload. Every payload type T has exactly one
// `template <class A> void fields(A& a, T& v)` that names its fields in
// wire order; WireWriter, WireReader, the minimum-size walk behind every
// count guard, and the fuzz mutator in net_test all walk that same list
// (the Archive idiom of SNIPPETS.md Snippet 2). encode(v, &w) and
// decode<T>(&r) are the only codec entry points; decode always ends with
// the trailing-bytes check. Reply payloads reuse the serve-layer structs
// verbatim — a lookup reply IS a serialized serve::LookupResult, a promote
// reply IS a serialized serve::GateReport — so clients decode straight
// into the types in-process callers use.
//
// Adding a message type: add the MsgType pair, a struct per payload that
// is not one already, and its field list below — fixed-width scalars
// (their C++ type is their wire width), std::string, std::vector, enums
// through a.tag(), nested field-list types; a.trailing() for a field
// older peers omit, a.check() for a condition a reader must reject. The
// round-trip and fuzz tests in net_test pick the type up from their list.
//
// The reader is bounds-checked on every read and a violation throws
// WireError, so a malformed or truncated frame can never read out of
// bounds; every length prefix is checked against the bytes left before
// anything is allocated.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "ann/ivf_pq.hpp"
#include "obs/heavy_hitters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/windowed.hpp"
#include "serve/batcher.hpp"
#include "serve/canary.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/lookup_service.hpp"

namespace anchor::net {

class TcpStream;

/// Thrown on malformed frames/payloads (bad magic, truncated field,
/// oversized frame). A connection that produced one is not trustworthy and
/// should be closed.
struct WireError : std::runtime_error {
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint8_t kWireMagic = 0xA7;
/// v2: CanaryStatus payloads carry the worst-k displacement keys (an
/// insertion before trailing fields — not decodable as v1), CanaryAbort
/// grew an optional drain byte, and the cluster router types 0x0A–0x0D
/// were added.
/// v3: the frame header grew a fourth byte (extension length) so frames
/// can carry an optional TraceContext; StatsSnapshot payloads append the
/// full latency histogram; the METRICS pair 0x0E/0x8E was added. Mixed
/// v2/v3 peers disconnect cleanly on the version byte instead of
/// tripping over the layout mid-payload.
inline constexpr std::uint8_t kWireVersion = 3;
/// Byte size of the TraceContext frame extension (u64 trace id, u64 span
/// id, u8 flags). An ext_len ≥ this carries a trace; extension bytes
/// beyond the first 17 are skipped (room for future extensions within
/// v3).
inline constexpr std::uint8_t kTraceExtBytes = 17;
/// Frames above this are rejected before allocation — a garbage length
/// prefix must not become a multi-gigabyte resize.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;  // 64 MiB

enum class MsgType : std::uint8_t {
  // Requests.
  kLookupIds = 0x01,
  kLookupWords = 0x02,
  kTryPromote = 0x03,
  kStats = 0x04,
  kPing = 0x05,
  kShutdown = 0x06,
  kCanaryStart = 0x07,
  kCanaryStatus = 0x08,
  kCanaryAbort = 0x09,
  // Cluster-router requests (answered by anchor_router; a plain backend
  // answers them with an Error frame like any unknown type).
  kRolloutStart = 0x0A,
  kRolloutStatus = 0x0B,
  kRolloutAbort = 0x0C,
  kShardMap = 0x0D,
  // Answered by daemon AND router: a MetricsReport of the process's
  // metrics registry.
  kMetrics = 0x0E,
  // Installs (or clears, with an empty spec) a fault-injection config on
  // the receiving backend at runtime — the chaos harness's control knob.
  // Only honored when the daemon was started with --fault-inject (arming
  // the subsystem); otherwise answered with an Error frame.
  kFaultSet = 0x0F,
  // Approximate top-k search against the live IVF-PQ index (answered by
  // daemon AND router; the router fans a candidates-mode request out to
  // every shard and merges). Added in protocol v3 as a new type pair —
  // v3 peers that predate it answer with an Error frame, which clients
  // surface as "TOPK unsupported" rather than a protocol failure.
  kTopK = 0x10,
  // Load & drift telemetry snapshot (answered by daemon AND router): a
  // HeatReport of windowed request stats, the heavy-hitter key sketch,
  // and the per-range heat map. The router fans the request out to every
  // live replica of every shard and merges — replica data adds within a
  // shard, shard data is lifted into global id space and concatenated.
  // Added within protocol v3 as a new type pair, same compatibility
  // stance as TOPK: older peers answer with an Error frame, which
  // clients surface as "HEAT unsupported".
  kHeat = 0x11,
  // Responses: request type | 0x80.
  kLookupIdsReply = 0x81,
  kLookupWordsReply = 0x82,
  kTryPromoteReply = 0x83,
  kStatsReply = 0x84,
  kPong = 0x85,
  kShutdownReply = 0x86,
  kCanaryStartReply = 0x87,
  kCanaryStatusReply = 0x88,
  kCanaryAbortReply = 0x89,
  kRolloutStartReply = 0x8A,
  kRolloutStatusReply = 0x8B,
  kRolloutAbortReply = 0x8C,
  kShardMapReply = 0x8D,
  kMetricsReply = 0x8E,
  kFaultSetReply = 0x8F,
  kTopKReply = 0x90,
  kHeatReply = 0x91,
  // Carries a string; sent instead of the normal reply when the server
  // failed to serve the request (e.g. unknown candidate version).
  kError = 0x7F,
};

/// The reply type that answers `request`.
constexpr MsgType reply_type(MsgType request) {
  return static_cast<MsgType>(static_cast<std::uint8_t>(request) | 0x80);
}

// ---- payload types -------------------------------------------------------
// Structs for the payloads that are not serve/obs/ann types already. The
// cluster rollout types live here (not in src/cluster/) because they ARE
// the wire contract: the client decodes them without linking any cluster
// code, and cluster/ already depends on net/.

/// The payload of STATS, PING, SHUTDOWN, *_STATUS, SHARD_MAP, METRICS and
/// HEAT requests and of the PONG and SHUTDOWN replies.
struct Empty {};

// Ids travel as u64 and are decoded in one copy into the batcher's
// std::size_t keys.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

struct LookupIdsRequest {
  std::vector<std::size_t> ids;
};

struct LookupWordsRequest {
  std::vector<std::string> words;
};

/// LOOKUP_IDS / LOOKUP_WORDS reply: rows [first, first + count) of
/// `*result`. decode<serve::LookupResult> reads a whole result; the server
/// encodes the rows of a batcher slice in place, never copying them into a
/// per-caller LookupResult. Writers only read through `result`.
struct LookupRows {
  serve::LookupResult* result = nullptr;
  std::size_t first = 0;
  std::size_t count = 0;

  /// The rows a batcher slice views (a zero-row result for an empty one).
  static LookupRows of(const serve::ResultSlice& slice);
};

/// TRY_PROMOTE. `force` bypasses the gate and flips live directly (the
/// rollout rollback path); older clients omit the byte.
struct PromoteRequest {
  std::string candidate;
  bool force = false;
};

struct CanaryStartRequest {
  std::string candidate;
  double fraction = 0.0;     // ≤ 0: the server's configured default
  double shadow_rate = 0.0;  // ≤ 0: the server's configured default
};

/// CANARY_ABORT and ROLLOUT_ABORT: `drain` finishes scoring in-flight
/// shadows first; older clients omit the byte.
struct AbortRequest {
  bool drain = false;
};

struct RolloutStartRequest {
  std::string candidate;
  std::uint8_t mode = 0;  // 0 = gated promote per shard, 1 = canary
  double fraction = 0.0;
  double shadow_rate = 0.0;
};

/// FAULT_SET: a FaultConfig in text form ("" clears). The reply echoes the
/// canonical form as a string payload.
struct FaultSetRequest {
  std::string spec;
};

/// Stats reply payload: what the daemon reports about itself.
struct ServerStatsReport {
  std::string live_version;
  /// Row encoding of the live snapshot — "fp32", "int8", "pq:4x8", … (the
  /// EmbeddingSnapshot::encoding() string; the router reports "mixed" while
  /// shards disagree). Optional TRAILING wire field: a v3 peer's reply
  /// simply omits it and decodes here as "", so new readers accept old
  /// replies unchanged (old readers reject the longer v4 payload — see
  /// PROTOCOL.md's compatibility note).
  std::string encoding;
  /// Underlying LookupService counters (per executed batch).
  serve::StatsSnapshot service;
  /// Batcher counters: one record per *coalesced* batch, latency measured
  /// from the oldest waiter's enqueue — the client-observed view.
  serve::StatsSnapshot batcher;
};

/// Canary reply payload (all three canary RPCs answer with this): the
/// state machine position, the participating versions, the phase-1
/// offline report, and the live online measurements.
struct CanaryStatusReport {
  serve::CanaryState state = serve::CanaryState::kNone;
  std::string incumbent;
  std::string candidate;
  double fraction = 0.0;
  double shadow_rate = 0.0;
  serve::GateReport offline;      // zero-valued when state == kNone
  serve::CanaryStatsSnapshot online;
  std::string reason;             // terminal decision reason ("" otherwise)
};

enum class RolloutState : std::uint8_t {
  kIdle = 0,        // no rollout ever started
  kRunning = 1,     // walking the shards
  kCompleted = 2,   // every shard promoted the candidate
  kRolledBack = 3,  // a shard refused; promoted shards were rolled back
  kAborted = 4,     // operator abort; promoted shards were rolled back
};

enum class ShardRolloutState : std::uint8_t {
  kPending = 0,     // not reached yet
  kInProgress = 1,  // gated promote / canary running on this shard
  kPromoted = 2,    // candidate live on this shard
  kFailed = 3,      // gate rejected, canary rolled back, or shard down
  kRolledBack = 4,  // was promoted, then reverted by the rollout
};

std::string rollout_state_name(RolloutState s);
std::string shard_rollout_state_name(ShardRolloutState s);

/// Reply payload of ROLLOUT_START / ROLLOUT_STATUS / ROLLOUT_ABORT.
struct ShardRolloutStatus {
  ShardRolloutState state = ShardRolloutState::kPending;
  std::string detail;  // per-shard decision reason / error text
};

struct RolloutStatusReport {
  RolloutState state = RolloutState::kIdle;
  std::string candidate;
  /// 0 = offline gated promote per shard, 1 = full canary per shard.
  std::uint8_t mode = 0;
  /// ShardMap::version() the rollout was started against.
  std::uint64_t map_version = 0;
  std::vector<ShardRolloutStatus> shards;
  std::string reason;  // terminal summary ("" while running/idle)

  bool terminal() const {
    return state == RolloutState::kCompleted ||
           state == RolloutState::kRolledBack ||
           state == RolloutState::kAborted;
  }
};

/// mode — what the server returns:
///   kTopKModeFinal: the k best hits by (exact distance, id) — what end
///     clients want.
///   kTopKModeCandidates: the full ADC shortlist sorted by (adc, id), ids
///     still local to the shard — what the cluster router requests from
///     each shard so its merge can reconstruct the single-process
///     selection exactly (see cluster/cluster_client.hpp).
inline constexpr std::uint8_t kTopKModeFinal = 0;
inline constexpr std::uint8_t kTopKModeCandidates = 1;

/// kind — how the query vector is specified:
///   kTopKKindId / kTopKKindWord resolve a live-store row through the
///   server's batcher (coalescing with concurrent lookups) and search for
///   its neighbors; kTopKKindVector carries a raw float vector (what the
///   router sends shards after resolving the query itself).
inline constexpr std::uint8_t kTopKKindId = 0;
inline constexpr std::uint8_t kTopKKindWord = 1;
inline constexpr std::uint8_t kTopKKindVector = 2;

/// TOPK request; the reply IS a serialized ann::TopKResult.
struct TopKRequest {
  std::uint32_t k = 10;
  std::uint32_t nprobe = 0;  // 0 = server-side default
  std::uint32_t rerank = 0;  // 0 = server-side default
  std::uint8_t mode = kTopKModeFinal;
  std::uint8_t kind = kTopKKindId;
  std::uint64_t id = 0;       // kTopKKindId
  std::string word;           // kTopKKindWord
  std::vector<float> vector;  // kTopKKindVector
};

/// HEAT reply payload: the process's windowed request stats, heavy-hitter
/// key sketch, and per-range heat map, all as mergeable snapshots (the
/// router merges them exactly like the client would, bit-identically).
/// Backends report keys/ranges in LOCAL row-id space; ClusterClient::heat
/// shifts each shard's view by its global row_begin before merging.
struct HeatReport {
  obs::WindowedSnapshot windowed;
  obs::SketchSnapshot sketch;
  obs::HeatMapSnapshot heat;
};

/// One nonzero bucket of a sparse histogram on the wire.
struct HistogramBucket {
  std::uint16_t idx = 0;
  std::uint64_t count = 0;
};

// ---- field lists -----------------------------------------------------------
// One per payload type, in wire order (PROTOCOL.md is the normative
// layout). `a` is any Archive below; a(x, y, …) visits fields in order.

template <class A>
void fields(A&, Empty&) {}

template <class A>
void fields(A& a, LookupIdsRequest& v) {
  a(v.ids);
}

template <class A>
void fields(A& a, LookupWordsRequest& v) {
  a(v.words);
}

template <class A>
void fields(A& a, LookupRows& v) {
  serve::LookupResult& r = *v.result;
  a(r.version);
  std::uint32_t n = static_cast<std::uint32_t>(v.count);
  a.count(n, 1);  // every row carries at least its oov byte
  std::uint32_t dim = static_cast<std::uint32_t>(r.dim);
  a(dim);
  // The frame cap alone does not bound n·dim: guard it before resizing.
  a.check(
      [&] { return dim == 0 || n <= kMaxFrameBytes / sizeof(float) / dim; },
      "lookup result dimensions overflow frame cap");
  if constexpr (A::kReads) {
    r.dim = dim;
    v.count = n;
    r.vectors.resize(static_cast<std::size_t>(n) * dim);
    r.oov.resize(n);
  }
  a.span(r.vectors.data() + v.first * r.dim, v.count * r.dim);
  a.span(r.oov.data() + v.first, v.count);
}

template <class A>
void fields(A& a, serve::LookupResult& v) {
  LookupRows rows{&v, 0, v.size()};
  fields(a, rows);
}

template <class A>
void fields(A& a, PromoteRequest& v) {
  a(v.candidate);
  a.trailing(v.force);
}

template <class A>
void fields(A& a, CanaryStartRequest& v) {
  a(v.candidate, v.fraction, v.shadow_rate);
}

template <class A>
void fields(A& a, AbortRequest& v) {
  a.trailing(v.drain);
}

template <class A>
void fields(A& a, RolloutStartRequest& v) {
  a(v.candidate, v.mode, v.fraction, v.shadow_rate);
}

template <class A>
void fields(A& a, FaultSetRequest& v) {
  a(v.spec);
}

template <class A>
void fields(A& a, serve::GateReport& v) {
  a(v.old_version, v.new_version);
  a.tag(v.decision, serve::GateDecision::kReject);
  a(v.promoted, v.eis, v.one_minus_knn, v.rows_compared, v.reason);
}

template <class A>
void fields(A& a, HistogramBucket& v) {
  a(v.idx, v.count);
}

/// Sparse: the aggregates, then only the nonzero buckets, by strictly
/// ascending index — a latency histogram with a handful of hot buckets
/// costs tens of bytes, not kNumBuckets · 8.
template <class A>
void fields(A& a, obs::HistogramSnapshot& v) {
  a(v.count, v.sum_units, v.min_units, v.max_units);
  std::vector<HistogramBucket> nonzero;
  if constexpr (!A::kReads) {
    for (std::size_t i = 0; i < v.counts.size(); ++i) {
      if (v.counts[i] != 0) {
        nonzero.push_back({static_cast<std::uint16_t>(i), v.counts[i]});
      }
    }
  }
  a(nonzero);
  a.check(
      [&] {
        for (std::size_t i = 0; i < nonzero.size(); ++i) {
          if (nonzero[i].count == 0) return false;
          if (i > 0 && nonzero[i].idx <= nonzero[i - 1].idx) return false;
        }
        return true;
      },
      "histogram buckets not nonzero and strictly ascending");
  a.check(
      [&] {
        return nonzero.empty() ||
               nonzero.back().idx < obs::LogHistogram::kNumBuckets;
      },
      "histogram bucket index out of range");
  if constexpr (A::kReads) {
    if (!nonzero.empty()) {
      v.counts.assign(obs::LogHistogram::kNumBuckets, 0);
      for (const HistogramBucket& b : nonzero) v.counts[b.idx] = b.count;
    }
  }
}

template <class A>
void fields(A& a, serve::StatsSnapshot& v) {
  // Two reserved slots (PROTOCOL.md): written as 0, read and discarded, so
  // peers that still send counts there interoperate.
  std::uint64_t reserved = 0;
  a(v.lookups, v.batches, reserved, reserved, v.oov_fallbacks,
    v.elapsed_seconds, v.qps, v.p50_latency_us, v.p99_latency_us,
    v.latency);
}

/// A tagged union: the kind byte selects the value field. min_wire_size
/// walks the default (kCounter), which is the smallest alternative.
template <class A>
void fields(A& a, obs::MetricValue& v) {
  a.tag(v.kind, obs::MetricKind::kHistogram);
  a(v.name, v.help);
  switch (v.kind) {
    case obs::MetricKind::kCounter:
      a(v.counter);
      break;
    case obs::MetricKind::kGauge:
      a(v.gauge);
      break;
    case obs::MetricKind::kHistogram:
      a(v.hist);
      break;
  }
}

template <class A>
void fields(A& a, obs::MetricsReport& v) {
  a(v.metrics);
}

template <class A>
void fields(A& a, ServerStatsReport& v) {
  a(v.live_version, v.service, v.batcher);
  a.trailing(v.encoding);
}

template <class A>
void fields(A& a, serve::CanaryWorstKey& v) {
  a(v.key, v.displacement);
}

template <class A>
void fields(A& a, serve::CanaryStatsSnapshot& v) {
  a(v.candidate_lookups, v.incumbent_lookups, v.shadows, v.mean_agreement,
    v.agreement_lower, v.agreement_upper, v.mean_displacement,
    v.mean_latency_delta_us, v.p50_agreement, v.p50_displacement,
    v.worst_keys);
}

template <class A>
void fields(A& a, CanaryStatusReport& v) {
  a.tag(v.state, serve::CanaryState::kAborted);
  a(v.incumbent, v.candidate, v.fraction, v.shadow_rate, v.offline,
    v.online, v.reason);
}

template <class A>
void fields(A& a, ShardRolloutStatus& v) {
  a.tag(v.state, ShardRolloutState::kRolledBack);
  a(v.detail);
}

template <class A>
void fields(A& a, RolloutStatusReport& v) {
  a.tag(v.state, RolloutState::kAborted);
  a(v.candidate, v.mode, v.map_version, v.shards, v.reason);
}

/// A tagged union: `kind` selects which query field follows.
template <class A>
void fields(A& a, TopKRequest& v) {
  a(v.k, v.nprobe, v.rerank);
  a.tag(v.mode, kTopKModeCandidates);
  a.tag(v.kind, kTopKKindVector);
  switch (v.kind) {
    case kTopKKindId:
      a(v.id);
      break;
    case kTopKKindWord:
      a(v.word);
      break;
    case kTopKKindVector:
      a(v.vector);
      break;
    default:
      throw WireError("bad topk query kind");
  }
}

template <class A>
void fields(A& a, ann::TopKHit& v) {
  a(v.id, v.exact, v.adc);
}

template <class A>
void fields(A& a, ann::TopKResult& v) {
  a(v.version, v.cells_probed, v.shortlist, v.flags, v.hits);
}

template <class A>
void fields(A& a, obs::WindowSlice& v) {
  a(v.epoch, v.requests, v.errors, v.latency);
}

template <class A>
void fields(A& a, obs::WindowedSnapshot& v) {
  a(v.slice_us, v.now_us, v.slices);
  // An all-empty snapshot may carry slice_us 0 (nothing recorded yet);
  // actual slices without a slice width are undecodable nonsense.
  a.check([&] { return v.slices.empty() || v.slice_us != 0; },
          "windowed slice width is zero");
  // The merge contract requires strictly ascending epochs; a hostile
  // frame must not smuggle duplicates past it.
  a.check(
      [&] {
        for (std::size_t i = 1; i < v.slices.size(); ++i) {
          if (v.slices[i].epoch <= v.slices[i - 1].epoch) return false;
        }
        return true;
      },
      "windowed slices out of order");
}

template <class A>
void fields(A& a, obs::HeavyHitter& v) {
  a(v.key, v.count, v.error);
}

template <class A>
void fields(A& a, obs::SketchSnapshot& v) {
  a(v.capacity, v.total, v.entries);
}

template <class A>
void fields(A& a, obs::HeatRange& v) {
  a(v.row_begin, v.row_end);
  a.check([&] { return v.row_end >= v.row_begin; },
          "heat range bounds inverted");
  a(v.buckets);
}

template <class A>
void fields(A& a, obs::HeatMapSnapshot& v) {
  a(v.total, v.elapsed_us, v.ranges);
}

template <class A>
void fields(A& a, HeatReport& v) {
  a(v.windowed, v.sketch, v.heat);
}

// ---- archives --------------------------------------------------------------

template <class T>
std::size_t min_wire_size();

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

/// The visitor every field list is walked by. An archive derives from
/// Archive<Self> and supplies:
///   kReads                  true when the walk fills values in
///   scalar(T&)              one fixed-width number
///   span(T*, n)             n numbers or chars as one copy
///   count(u32& n, min)      a length prefix of n elements of ≥ min bytes
///   tag_byte(u8&, max)      an enum or union tag byte, valid up to max
///   present()               whether an optional trailing field follows
///   check(pred, what)       a condition a reader must reject frames for
template <class Self>
class Archive {
 public:
  template <class... Ts>
  void operator()(Ts&... vs) {
    (visit(vs), ...);
  }

  /// An enum, or a u8 carrying one, as one byte valid up to `max`.
  template <class E>
  void tag(E& e, E max) {
    std::uint8_t b = static_cast<std::uint8_t>(e);
    self().tag_byte(b, static_cast<std::uint8_t>(max));
    if constexpr (Self::kReads) e = static_cast<E>(b);
  }

  /// A field older peers omit: always written, read only when bytes
  /// remain. It must be the payload's last field.
  template <class T>
  void trailing(T& v) {
    if (self().present()) visit(v);
  }

 private:
  Self& self() { return static_cast<Self&>(*this); }

  template <class T>
  void visit(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = v ? 1 : 0;
      self().scalar(b);
      if constexpr (Self::kReads) v = b != 0;
    } else if constexpr (std::is_arithmetic_v<T>) {
      self().scalar(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t n = static_cast<std::uint32_t>(v.size());
      self().count(n, 1);
      if constexpr (Self::kReads) v.resize(n);
      self().span(v.data(), v.size());
    } else if constexpr (IsVector<T>::value) {
      using E = typename T::value_type;
      std::uint32_t n = static_cast<std::uint32_t>(v.size());
      self().count(n, min_wire_size<E>());
      if constexpr (Self::kReads) v.resize(n);
      if constexpr (std::is_arithmetic_v<E> && !std::is_same_v<E, bool>) {
        self().span(v.data(), v.size());
      } else {
        for (E& e : v) visit(e);
      }
    } else {
      fields(self(), v);
    }
  }
};

/// Append-only payload builder.
class WireWriter : public Archive<WireWriter> {
 public:
  static constexpr bool kReads = false;

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

  // Raw primitives, for tests that hand-craft hostile payloads.
  void u8(std::uint8_t v) { scalar(v); }
  void u16(std::uint16_t v) { scalar(v); }
  void u32(std::uint32_t v) { scalar(v); }
  void u64(std::uint64_t v) { scalar(v); }
  void f32(float v) { scalar(v); }
  void f64(double v) { scalar(v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(const std::uint8_t* data, std::size_t n) { span(data, n); }

  // Archive primitives.
  template <class T>
  void scalar(const T& v) {
    raw(&v, sizeof(T));
  }
  template <class T>
  void span(const T* data, std::size_t n) {
    raw(data, n * sizeof(T));
  }
  void count(std::uint32_t n, std::size_t) { scalar(n); }
  void tag_byte(std::uint8_t b, std::uint8_t) { scalar(b); }
  static bool present() { return true; }
  template <class P>
  void check(const P&, const char*) {}

 private:
  // resize+memcpy rather than insert: identical behavior, but GCC 12's
  // -Wstringop-overflow false-fires on the inlined insert-into-empty-
  // vector memmove in some TUs.
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be an empty vector's null data()
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, p, n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload consumer over a received frame.
class WireReader : public Archive<WireReader> {
 public:
  static constexpr bool kReads = true;

  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  // Raw primitives, for tests that inspect payloads byte by byte.
  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  float f32() { return take<float>(); }
  double f64() { return take<double>(); }
  std::string str() {
    std::string s;
    (*this)(s);
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  /// Ends every decode: trailing bytes mean the peer and we disagree
  /// about the layout, which should fail loudly, not silently.
  void expect_done() {
    if (pos_ != size_) {
      throw WireError("trailing bytes in payload: " +
                      std::to_string(size_ - pos_));
    }
    decoded_ = true;
  }
  /// True once expect_done() passed: the whole payload decoded.
  bool decoded() const { return decoded_; }

  // Archive primitives.
  template <class T>
  void scalar(T& v) {
    v = take<T>();
  }
  // n == 0 returns early: `out` may then be an empty vector's null data(),
  // and memcpy with a null pointer is undefined even for zero bytes.
  template <class T>
  void span(T* out, std::size_t n) {
    if (n == 0) return;
    need(n * sizeof(T));
    std::memcpy(out, data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }
  /// A count the payload cannot hold throws before anything is allocated.
  void count(std::uint32_t& n, std::size_t min_element_bytes) {
    n = u32();
    if (n > remaining() / min_element_bytes) {
      throw WireError("count " + std::to_string(n) + " exceeds payload");
    }
  }
  void tag_byte(std::uint8_t& b, std::uint8_t max) {
    b = u8();
    if (b > max) throw WireError("bad tag byte " + std::to_string(b));
  }
  bool present() const { return remaining() > 0; }
  template <class P>
  void check(const P& ok, const char* what) {
    if (!ok()) throw WireError(what);
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw WireError("truncated payload");
  }
  template <typename T>
  T take() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool decoded_ = false;
};

/// Adds up the wire bytes of a default value: empty strings and vectors,
/// no optional trailing field, a union's default alternative.
class MinWireSize : public Archive<MinWireSize> {
 public:
  static constexpr bool kReads = false;
  std::size_t bytes = 0;

  template <class T>
  void scalar(const T&) {
    bytes += sizeof(T);
  }
  template <class T>
  void span(const T*, std::size_t n) {
    bytes += n * sizeof(T);
  }
  void count(std::uint32_t, std::size_t) { bytes += sizeof(std::uint32_t); }
  void tag_byte(std::uint8_t, std::uint8_t) { bytes += 1; }
  static bool present() { return false; }
  template <class P>
  void check(const P&, const char*) {}
};

/// The fewest bytes a T occupies on the wire: the divisor of every count
/// guard, so a length prefix can never promise more elements than the
/// bytes left could hold.
template <class T>
std::size_t min_wire_size() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else {
    static const std::size_t bytes = [] {
      T v{};
      MinWireSize m;
      m(v);
      return m.bytes;
    }();
    return bytes;
  }
}

/// Appends `v`'s payload to `w`.
template <class T>
void encode(const T& v, WireWriter* w) {
  (*w)(const_cast<T&>(v));  // a writer only reads the value
}

/// Decodes a whole payload: throws WireError on malformed, truncated or
/// over-long input.
template <class T>
T decode(WireReader* r) {
  T v{};
  (*r)(v);
  r->expect_done();
  return v;
}

template <class T>
T decode(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  return decode<T>(&r);
}

// ---- frame I/O ---------------------------------------------------------

/// Builds one complete frame (length prefix + header + optional trace
/// extension + payload) as a contiguous buffer. write_frame sends exactly
/// this; it is exposed so the fault injector can send a deliberately
/// truncated prefix of a well-formed frame.
std::vector<std::uint8_t> encode_frame(MsgType type, const WireWriter& payload,
                                       const obs::TraceContext& trace);

/// Writes one frame (length prefix + header + payload) in a single send.
/// When `trace` is valid, it rides in the frame extension.
void write_frame(TcpStream& stream, MsgType type, const WireWriter& payload,
                 const obs::TraceContext& trace = {});

/// Encodes `payload` and writes it as one `type` frame.
template <class T>
void write_message(TcpStream& stream, MsgType type, const T& payload,
                   const obs::TraceContext& trace = {}) {
  WireWriter w;
  encode(payload, &w);
  write_frame(stream, type, w, trace);
}

/// Reads one frame. Returns false on clean EOF before a frame starts.
/// Throws WireError on bad magic/version/length or an extension length
/// exceeding the frame, NetError on socket failures or EOF mid-frame.
/// When `trace` is non-null it receives the frame's TraceContext (a
/// zeroed context when the frame carried none).
bool read_frame(TcpStream& stream, MsgType* type,
                std::vector<std::uint8_t>* payload,
                obs::TraceContext* trace = nullptr);

}  // namespace anchor::net
