// Scatter-gather lookup client over a ShardMap of anchor_served backends,
// replica-aware: every shard range is served by a replica set, and the
// client's job is to make replica failure and replica tail latency
// invisible to the caller.
//
// A ClusterClient speaks the standard wire protocol (net/PROTOCOL.md) to
// the backends over persistent per-replica connections. A batched lookup
// is split by the map — global row ids to the shard owning their range
// (translated to that shard's local id space), word strings to the row
// they resolve to, or to their FNV home shard when they are OOV — then
// the per-shard sub-requests are PIPELINED: all frames go out before any
// reply is read, so the backends execute concurrently and the caller's
// latency is the slowest involved shard, not the sum. Replies scatter
// back into request order, producing a LookupResult bit-identical to a
// single-process store holding the concatenated rows (same id → same
// bytes; quantized deployments must share one clip threshold via
// SnapshotConfig::clip_override — see README "Distributed serving").
//
// Replica policy (per shard, per lookup):
//   • SELECTION — the sub-request goes to the least-loaded LIVE replica
//     per the shared ClusterHealth (in-flight counters, round-robin tie
//     break), so pooled clients spread reads across the set.
//   • HEDGING — if the chosen replica has not started answering within
//     the shard's hedge delay (derived from the p99 of the shard's merged
//     RTT histogram via HedgePolicy), the same sub-request is sent to a
//     second live replica; the first complete reply wins and the loser's
//     eventual reply is drained and discarded (replies stay in-order per
//     connection, so the loser's frames are counted and consumed later,
//     never misattributed).
//   • FAILOVER — a replica that refuses, stalls past the I/O timeout, or
//     answers garbage is marked down in ClusterHealth and the sub-request
//     retries on the next live replica, with exponential backoff + jitter
//     between attempts (bounded by max_attempts). Rows come back zeroed
//     and flagged kLookupFlagDegraded — a partial result, never an
//     exception — only when EVERY replica of the shard is down or
//     exhausted.
//
// Thread-compatibility: a ClusterClient is NOT thread-safe (it owns
// blocking per-replica streams); give each serving thread its own — or
// use ClusterClientPool — and share the ClusterHealth, HedgePolicy, and
// ClusterCounters across all of them (that sharing is what makes the
// hedge delay "merged": every client records RTTs into the same per-shard
// histogram).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ann/ivf_pq.hpp"
#include "cluster/shard_map.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/heavy_hitters.hpp"
#include "obs/log_histogram.hpp"
#include "obs/trace.hpp"
#include "serve/lookup_service.hpp"

namespace anchor::cluster {

struct ClusterConfig {
  ShardMap map;
  /// Per-recv/send stall bound on backend connections: a backend that
  /// accepts a frame and never answers surfaces as a failed attempt after
  /// this long instead of hanging the caller. 0 disables.
  int io_timeout_ms = 2000;
  /// Master retry switch (tests fail straight to the partial result with
  /// it off — equivalent to max_attempts = 1).
  bool retry = true;
  /// Attempt budget per shard per lookup across its replicas; the degraded
  /// flag fires only when the budget or the live replica set is exhausted.
  int max_attempts = 3;
  /// Exponential backoff between failover attempts: attempt k sleeps
  /// min(base << (k-1), max) ms, scaled by a uniform [0.5, 1.0) jitter so
  /// pooled clients retrying the same dead replica do not stampede in
  /// phase. The FIRST failover is immediate (the replacement replica is
  /// presumed healthy); backoff paces the attempts after it.
  int backoff_base_ms = 2;
  int backoff_max_ms = 50;
  /// Hedge the straggler replica (needs a HedgePolicy and ≥ 2 replicas on
  /// the shard to take effect).
  bool hedge = true;
  /// When set, resolved GLOBAL rows are attributed per lookup — the
  /// router-side key-load view in global id space (the backends' own
  /// sketches are local-space and reachable via heat()). Not owned.
  obs::KeyLoadRecorder* load = nullptr;
};

/// Shared per-replica up/down + in-flight load state: handlers mark a
/// replica down the moment an exchange fails (so the next lookup fails
/// over instantly instead of re-paying the timeout) and the router's
/// probe loop marks it up again once it answers a ping. Load counters
/// track in-flight sub-requests per replica — the "least-loaded" in
/// replica selection. All methods are thread-safe.
class ClusterHealth {
 public:
  explicit ClusterHealth(const ShardMap& map);
  /// Legacy shape: `num_shards` single-replica shards.
  explicit ClusterHealth(std::size_t num_shards);

  bool healthy(std::size_t shard, std::size_t replica = 0) const;
  void mark(std::size_t shard, std::size_t replica, bool up);
  /// Marks every replica of the shard (the pre-replica call shape).
  void mark(std::size_t shard, bool up);

  std::size_t num_shards() const { return offsets_.size() - 1; }
  std::size_t replicas(std::size_t shard) const {
    return offsets_[shard + 1] - offsets_[shard];
  }
  /// Shards with at least one live replica (the availability gauge).
  std::size_t alive() const;
  bool shard_alive(std::size_t shard) const;
  std::size_t replicas_total() const { return flags_.size(); }
  std::size_t replicas_alive() const;

  /// In-flight sub-request accounting for least-loaded selection.
  void add_load(std::size_t shard, std::size_t replica, std::int64_t delta);
  std::uint64_t load(std::size_t shard, std::size_t replica) const;

 private:
  // deque-of-atomics is not movable; a fixed vector of wrappers is enough
  // (the topology never changes after construction).
  struct Rep {
    std::atomic<bool> up{true};
    std::atomic<std::int64_t> load{0};
  };
  std::size_t index(std::size_t shard, std::size_t replica) const {
    return offsets_[shard] + replica;
  }
  std::vector<Rep> flags_;
  std::vector<std::size_t> offsets_;  // shard → first replica index
};

/// Shared hedge-delay policy: one RTT histogram per shard, recorded by
/// every client sharing the policy (the pool), so the delay derives from
/// the MERGED per-shard latency distribution — delay = clamp(p-quantile ×
/// multiplier). Until a shard has min_samples the default delay applies.
/// record() is lock-free; the quantile is recomputed lazily every
/// refresh_every records instead of per call.
class HedgePolicy {
 public:
  struct Config {
    double quantile = 0.99;
    double multiplier = 1.0;
    /// Samples required before the histogram replaces the default.
    std::uint64_t min_samples = 64;
    std::uint64_t refresh_every = 64;
    double default_delay_us = 20000.0;
    double min_delay_us = 1000.0;
    double max_delay_us = 200000.0;
  };

  // Two overloads (not one defaulted argument): GCC cannot evaluate a
  // nested-struct NSDMI default argument inside the enclosing class.
  explicit HedgePolicy(std::size_t num_shards);
  HedgePolicy(std::size_t num_shards, Config config);

  void record(std::size_t shard, double rtt_us);
  /// Microseconds to wait on the first replica before hedging.
  double hedge_delay_us(std::size_t shard) const;
  /// The merged per-shard RTT distribution the delay derives from.
  obs::HistogramSnapshot shard_snapshot(std::size_t shard) const;
  std::uint64_t samples(std::size_t shard) const;
  const Config& config() const { return config_; }

 private:
  struct PerShard {
    obs::LogHistogram rtt;
    std::atomic<std::uint64_t> next_refresh{0};
    std::atomic<double> cached_delay_us{0.0};
  };
  Config config_;
  std::vector<std::unique_ptr<PerShard>> shards_;
};

/// Shared availability counters the pool's clients bump and the router
/// bridges into its MetricsRegistry. Thread-safe.
struct ClusterCounters {
  std::atomic<std::uint64_t> hedges{0};     // hedge sub-requests sent
  std::atomic<std::uint64_t> hedge_wins{0}; // hedged replica answered first
  std::atomic<std::uint64_t> retries{0};    // re-attempts after a failure
  std::atomic<std::uint64_t> failovers{0};  // attempts moved to a different
                                            // replica than first selected
};

/// Aggregated view of a control-plane fan-out (stats, ping).
struct ClusterStatsReport {
  net::ServerStatsReport aggregate;  // counters summed, histograms merged
  /// live_version per shard ("" when no replica of the shard answered).
  std::vector<std::string> shard_versions;
  /// Row encoding per shard (same answering-replica convention); the
  /// aggregate reports the unanimous value or "mixed".
  std::vector<std::string> shard_encodings;
  std::size_t shards_answering = 0;
};

class ClusterClient {
 public:
  explicit ClusterClient(ClusterConfig config,
                         std::shared_ptr<ClusterHealth> health = nullptr,
                         std::shared_ptr<HedgePolicy> hedge = nullptr,
                         std::shared_ptr<ClusterCounters> counters = nullptr);

  /// Batched lookup by GLOBAL row id. Ids ≥ map.total_rows() come back
  /// zeroed + kLookupFlagOov (the single-process contract); rows owned by
  /// a shard whose EVERY replica is unreachable come back zeroed +
  /// kLookupFlagDegraded.
  serve::LookupResult lookup_ids(const std::vector<std::size_t>& ids);

  /// Batched lookup by word. Words resolving to a global row route like
  /// ids; anything else goes to its FNV home shard for OOV synthesis
  /// (deterministic per word, but synthesized from that shard's table —
  /// not comparable to a single-process OOV table).
  serve::LookupResult lookup_words(const std::vector<std::string>& words);

  /// Cluster-wide approximate top-k (the TOPK RPC, fanned out): every
  /// shard answers a candidates-mode search over its row slice, and the
  /// router-side merge — global top-`rerank` by (ADC distance, global id)
  /// via heap selection, then top-`k` by (exact distance, global id) — is
  /// bit-identical to a single-process index over the concatenated rows,
  /// PROVIDED the shards share IVF-PQ training artifacts (see
  /// src/ann/ivf_pq.hpp; analogous to the shared clip threshold for
  /// lookups). nprobe/rerank 0 use the deployment defaults, sent
  /// explicitly so backends and merge agree on the truncation depth.
  /// Hits from shards whose every replica is down are missing and the
  /// result carries ann::kTopKFlagPartial (the degraded-lookup contract).
  ann::TopKResult topk_vector(const std::vector<float>& query, std::size_t k,
                              std::size_t nprobe = 0, std::size_t rerank = 0);
  /// Resolve a GLOBAL row id / word to its vector first (one cluster
  /// lookup), then search. Throws when the query row itself cannot be
  /// served (owning shard down, id out of range).
  ann::TopKResult topk_id(std::uint64_t id, std::size_t k,
                          std::size_t nprobe = 0, std::size_t rerank = 0);
  ann::TopKResult topk_word(const std::string& word, std::size_t k,
                            std::size_t nprobe = 0, std::size_t rerank = 0);

  /// True when the most recent lookup had at least one degraded row.
  bool last_degraded() const { return last_degraded_; }
  /// Per-shard success of the most recent lookup (1 = answered or not
  /// involved, 0 = failed). Sized num_shards().
  const std::vector<std::uint8_t>& last_shard_ok() const {
    return last_shard_ok_;
  }

  /// Trace context for the NEXT lookup only: the router stamps the
  /// request's context here before calling lookup_*, each backend frame
  /// carries a child of it, and the scatter/per-shard-RTT/merge spans are
  /// recorded against it. Consumed (reset) by the lookup, so untraced
  /// requests on the same connection never inherit a stale trace.
  void set_trace(const obs::TraceContext& ctx) { trace_ = ctx; }

  /// Control plane: kStats to every live replica of every shard, summing
  /// counters and MERGING the latency histograms — the aggregate's
  /// percentiles are recomputed from the merged buckets, not maxed.
  /// aggregate.live_version is the replicas' unanimous version, or
  /// "mixed" while they disagree; shard_versions[i] is shard i's first
  /// answering replica's version.
  ClusterStatsReport stats();
  /// Control plane: kHeat to every live replica of every shard. Replicas
  /// of one shard report the same LOCAL id space and merge first; each
  /// shard's merged sketch keys and heat ranges are then lifted by the
  /// shard's global row_begin and merged across shards — the fleet's
  /// load/heat view in GLOBAL id space, bit-identical in any merge order
  /// (the contract the router's HEAT reply is tested against). Backends
  /// whose every replica is down contribute nothing (degraded, like
  /// stats). Old backends answering kError are skipped the same way.
  net::HeatReport heat();
  /// Best-effort kShutdown to every reachable replica of every shard.
  void shutdown_backends();

  const ShardMap& map() const { return config_.map; }
  const std::shared_ptr<ClusterHealth>& health() const { return health_; }
  const std::shared_ptr<HedgePolicy>& hedge_policy() const { return hedge_; }
  const std::shared_ptr<ClusterCounters>& counters() const {
    return counters_;
  }

  /// One fresh-connection ping probe (the router's health loop): kUp iff
  /// host:port accepts, answers kPong within timeout_ms. kUnknown when this
  /// process could not open the connection for want of descriptors or
  /// buffers, which is no verdict on the backend.
  enum class ProbeResult { kDown, kUp, kUnknown };
  static ProbeResult probe(const std::string& host, std::uint16_t port,
                           int timeout_ms);

 private:
  /// Per-shard slice of one scatter-gather lookup.
  struct Plan {
    net::LookupIdsRequest local_ids;        // kLookupIds sub-request
    std::vector<std::uint32_t> id_slots;    // → caller slots
    net::LookupWordsRequest words;          // kLookupWords sub-request
    std::vector<std::uint32_t> word_slots;  // → caller slots
    /// Candidates-mode TOPK broadcast sub-request (one per shard on a
    /// cluster search); rides the same scatter/hedge/failover machinery.
    std::optional<net::TopKRequest> topk;
    bool involved() const {
      return !local_ids.ids.empty() || !words.words.empty() ||
             topk.has_value();
    }
    std::size_t frames() const {
      return (local_ids.ids.empty() ? 0 : 1) + (words.words.empty() ? 0 : 1) +
             (topk ? 1 : 0);
    }
  };

  /// One persistent replica connection plus the frames an abandoned hedge
  /// still owes on it (per-connection replies are in-order, so owed
  /// replies MUST be consumed — or the stream dropped — before the next
  /// sub-request, or replies would misalign).
  struct ReplicaConn {
    std::optional<net::TcpStream> stream;
    std::size_t owed_frames = 0;
  };

  /// Per-shard scatter bookkeeping for one lookup.
  struct ShardState {
    bool sent = false;
    std::size_t primary = kNone;  // replica the plan went to
    std::size_t hedged = kNone;   // second replica, kNone = no hedge
    std::uint64_t send_ns = 0;
    int attempts = 0;
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  net::TcpStream* stream(std::size_t shard, std::size_t replica);
  void drop(std::size_t shard, std::size_t replica);
  bool replica_up(std::size_t shard, std::size_t replica) const;
  void mark_replica(std::size_t shard, std::size_t replica, bool up);
  /// Least-loaded live replica (round-robin tie break), excluding
  /// `exclude`; prefers replicas with no owed frames. kNone if none live.
  std::size_t choose_replica(std::size_t shard, std::size_t exclude);
  /// Consumes frames an abandoned hedge owes on this connection; drops
  /// the stream when they cannot be drained within `budget_ms`.
  bool settle_owed(std::size_t shard, std::size_t replica, int budget_ms);
  /// Opportunistic zero-wait drain across all connections (end of lookup).
  void drain_owed_nonblocking();

  bool send_plan(std::size_t shard, std::size_t replica, const Plan& plan);
  /// Reads one reply per sub-request in `plan`; false on any failure.
  bool read_plan(std::size_t shard, std::size_t replica, const Plan& plan,
                 serve::LookupResult* ids_reply,
                 serve::LookupResult* words_reply,
                 ann::TopKResult* topk_reply = nullptr);
  /// Scatter phase: pick a replica and send, failing over on send errors.
  void scatter_shard(std::size_t shard, const Plan& plan, ShardState* st);
  /// Gather phase: hedge/read/fail over until a full reply or exhaustion.
  bool gather_shard(std::size_t shard, const Plan& plan, ShardState* st,
                    serve::LookupResult* ids_reply,
                    serve::LookupResult* words_reply,
                    ann::TopKResult* topk_reply = nullptr);
  void backoff_sleep(int attempt);

  serve::LookupResult execute(const std::vector<Plan>& plans,
                              std::size_t n_slots,
                              std::vector<std::uint8_t> flags);

  ClusterConfig config_;
  std::shared_ptr<ClusterHealth> health_;
  std::shared_ptr<HedgePolicy> hedge_;
  std::shared_ptr<ClusterCounters> counters_;
  std::vector<std::vector<ReplicaConn>> conns_;  // [shard][replica]
  std::size_t rr_ = 0;          // selection tie-break rotation
  std::uint64_t jitter_state_;  // backoff jitter PRNG (splitmix64)
  obs::TraceContext trace_;     // pending trace for the next lookup
  bool last_degraded_ = false;
  std::vector<std::uint8_t> last_shard_ok_;
  /// Last observed embedding dim / majority version: the fallback shape
  /// for batches that reach no shard (all-OOV with the shard-0 probe
  /// failing, or every involved shard degraded), so replies keep the
  /// single-process "store dim + live version, rows zeroed and flagged"
  /// contract instead of collapsing to dim 0.
  std::size_t hint_dim_ = 0;
  std::string hint_version_;
};

}  // namespace anchor::cluster
