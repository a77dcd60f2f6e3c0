// Online canarying: shadow-traffic agreement between embedding versions.
//
// The paper's offline measures (EIS, k-NN overlap) predict downstream
// damage from a refresh *before* any query touches the candidate — but
// prediction is not observation. This module adds the observation: a
// CanaryRouter sits between the serving front-end and the versioned
// EmbeddingStore and deterministically hashes a configurable fraction of
// lookup keys to the candidate version while the rest keep hitting the
// incumbent. A sample of the canary-routed keys is additionally
// *shadowed* — mirrored to the incumbent — so every shadowed key yields a
// (candidate, incumbent) vector pair from real traffic, from which the
// router measures
//   • online top-k agreement: the key's k nearest neighbors within a
//     fixed probe-row panel, computed in each version's own space and
//     compared (the online analogue of the paper's k-NN overlap measure;
//     rotation-invariant, so Procrustes alignment does not mask churn),
//   • per-key displacement: 1 − cos between the two versions' vectors
//     for the same key (coordinate-level drift; near zero only when
//     ingestion aligned the candidate to the incumbent — see
//     SnapshotConfig::align_to_live),
//   • latency deltas between the mirrored lookups,
// all recorded in lock-free CanaryStats counters + obs::LogHistograms
// (same discipline as obs::WindowedStats: recording never takes a lock).
//
// Promotion is two-phase (DeploymentGate::try_promote overload): phase 1
// is the offline gate as before; phase 2 lets the router watch the
// agreement estimate and auto-promote once its lower confidence bound
// clears `promote_agreement` — or auto-roll-back when the upper bound
// falls under `rollback_agreement` or displacement blows its budget.
// Both outcomes append to the gate's audit log, so the rollout history
// shows WHY a candidate went live (or did not): measured online
// agreement, not just offline prediction.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "la/matrix.hpp"
#include "obs/log_histogram.hpp"
#include "serve/batcher.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/embedding_store.hpp"
#include "serve/lookup_service.hpp"

namespace anchor::serve {

struct CanaryConfig {
  /// Fraction of lookup keys deterministically routed to the candidate
  /// (hash-split on the key, not the request, so a key's routing is
  /// stable for the whole canary).
  double fraction = 0.10;
  /// Of the candidate-routed keys, the fraction that is also mirrored to
  /// the incumbent to produce an agreement sample. This is the knob that
  /// prices the measurement: shadow lookups are extra incumbent traffic.
  double shadow_rate = 0.10;
  /// Neighbors per agreement probe (the online k of k-NN overlap).
  std::size_t knn_k = 5;
  /// Fixed probe-row panel size: each shadowed key's neighbors are
  /// computed against these rows in both versions. 2·probe_rows·dim
  /// flops per shadow sample.
  std::size_t probe_rows = 256;
  /// Decision bounds. No decision before `min_shadows` samples; promote
  /// once the Hoeffding lower bound of mean agreement ≥ promote_agreement
  /// (and displacement is within budget); roll back once the upper bound
  /// ≤ rollback_agreement or mean displacement confidently exceeds
  /// `max_displacement`; at `max_shadows` the point estimate decides.
  std::size_t min_shadows = 64;
  std::size_t max_shadows = 8192;
  double promote_agreement = 0.70;
  double rollback_agreement = 0.40;
  /// Mean per-key displacement (1 − cos ∈ [0, 2]) budget. Catches
  /// coordinate-level drift that neighbor structure alone cannot see —
  /// an unaligned rotation has perfect agreement but displaces every
  /// vector, breaking any consumer that mixes versions mid-flight.
  double max_displacement = 0.25;
  /// Two-sided confidence of the Hoeffding bounds used for the
  /// auto-decision.
  double confidence = 0.99;
  /// Seed for the routing/shadow hash split and the probe-row sample.
  /// Routing is a pure function of (seed, fraction, key), so a fixed key
  /// set routes identically across runs and router instances.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Candidate-side serving stack (the canary's own LookupService →
  /// AsyncLookupService over the pinned candidate snapshot). It owns no
  /// thread: candidate batches run on the routing threads that wait on
  /// them, like every AsyncLookupService batch.
  LookupConfig candidate_lookup;
  BatcherConfig candidate_batcher;
  /// When set, the candidate-side stack records into these shared
  /// recorders instead of private ones. The RPC server shares its own,
  /// so STATS and METRICS keep reporting ALL traffic while a canary runs
  /// (candidate-routed lookups would otherwise vanish from them).
  std::shared_ptr<obs::WindowedStats> candidate_service_stats = nullptr;
  std::shared_ptr<obs::WindowedStats> candidate_batcher_stats = nullptr;
};

enum class CanaryState : std::uint8_t {
  kNone = 0,            // no canary ever started (status reporting only)
  kOfflineRejected = 1, // phase 1 rejected; router was never installed
  kRunning = 2,         // routing traffic, collecting shadow samples
  kPromoted = 3,        // auto-promoted: candidate is live
  kRolledBack = 4,      // auto-rolled-back: incumbent kept live
  kAborted = 5,         // operator abort: incumbent kept live
};

std::string canary_state_name(CanaryState s);

/// One per-key displacement outlier: a shadowed key whose candidate
/// vector moved unusually far from its incumbent vector. The worst-k of
/// these name WHICH keys a refresh hurts — the first thing an operator
/// wants after "displacement is high".
struct CanaryWorstKey {
  std::uint64_t key = 0;
  double displacement = 0.0;
};

/// Point-in-time view of a canary's online measurements.
struct CanaryStatsSnapshot {
  std::uint64_t candidate_lookups = 0;  // keys served by the candidate
  std::uint64_t incumbent_lookups = 0;  // keys served by the incumbent
  std::uint64_t shadows = 0;            // agreement samples collected
  double mean_agreement = 0.0;          // running mean of top-k overlap
  double agreement_lower = 0.0;         // Hoeffding bounds at `confidence`
  double agreement_upper = 0.0;
  double mean_displacement = 0.0;       // running mean of 1 − cos
  double mean_latency_delta_us = 0.0;   // candidate − incumbent, per shadow
  /// Medians over EVERY shadow sample of the canary, from the mergeable
  /// histograms (bucket lower bound, ≤ 1/32 relative error). The old
  /// fixed ring covered only the last 2048 samples, so a long canary's
  /// median silently narrowed to its most recent window.
  double p50_agreement = 0.0;
  double p50_displacement = 0.0;
  /// Worst per-key displacement outliers, worst first (id-keyed traffic
  /// only; deduplicated by key, each key reporting its max).
  std::vector<CanaryWorstKey> worst_keys;

  std::string summary() const;
};

/// Lock-free online-measurement counters + mergeable sample histograms.
/// record_* never takes a lock; snapshot() pays the aggregation cost.
/// Decision math reads the exact running sums; the histograms serve the
/// display-grade medians (all samples since the canary started — no ring
/// to alias old samples out of a long canary's window).
class CanaryStats {
 public:
  /// Key value meaning "no key identity available" (word traffic): the
  /// sample still feeds every aggregate, it just can't enter worst_keys.
  static constexpr std::uint64_t kNoKey = ~0ull;

  void record_candidate(std::uint64_t keys) {
    candidate_lookups_.fetch_add(keys, std::memory_order_relaxed);
  }
  void record_incumbent(std::uint64_t keys) {
    incumbent_lookups_.fetch_add(keys, std::memory_order_relaxed);
  }
  /// One shadowed key: agreement ∈ [0,1], displacement ∈ [0,2], latency
  /// delta in µs (candidate − incumbent; may be negative). `key`
  /// identifies the row for worst-k outlier tracking (kNoKey = skip it);
  /// that one bookkeeping step takes a mutex, but only when the sample
  /// beats (or is) a current worst-k entry — the common case is a single
  /// relaxed load + compare.
  void record_shadow(double agreement, double displacement,
                     double latency_delta_us, std::uint64_t key = kNoKey);

  std::uint64_t shadows() const {
    return shadows_.load(std::memory_order_acquire);
  }
  /// Bounds at `confidence` via Hoeffding's inequality (agreement range
  /// [0,1]); exact running-sum means. `with_medians` = false skips the
  /// histogram medians (a bucket walk per median) — the auto-decision
  /// path runs on every request and needs only the sums; the medians are
  /// status-display material.
  CanaryStatsSnapshot snapshot(double confidence,
                               bool with_medians = true) const;

 private:
  static constexpr double kMicro = 1e6;  // fixed-point unit for the sums
  /// Worst-k capacity: small on purpose — the report names the headline
  /// outliers, the audit CSV and status RPC are not a full histogram.
  static constexpr std::size_t kWorstK = 8;

  std::atomic<std::uint64_t> candidate_lookups_{0};
  std::atomic<std::uint64_t> incumbent_lookups_{0};
  std::atomic<std::uint64_t> shadows_{0};
  std::atomic<std::uint64_t> agreement_sum_micro_{0};
  std::atomic<std::uint64_t> displacement_sum_micro_{0};
  std::atomic<std::int64_t> latency_delta_sum_micro_{0};
  /// Sample distributions (agreement ∈ [0,1], displacement ∈ [0,2]):
  /// lock-free, mergeable, and covering every sample since start.
  obs::LogHistogram agreement_hist_;
  obs::LogHistogram displacement_hist_;

  /// Worst-k per-key displacement outliers: a min-heap on displacement
  /// (front = easiest to displace from the set), deduplicated by key.
  /// `worst_floor_` caches the heap minimum (or −1 while not full) so the
  /// hot path can skip the mutex for the overwhelming majority of samples.
  mutable std::mutex worst_mu_;
  std::vector<CanaryWorstKey> worst_;
  std::atomic<double> worst_floor_{-1.0};
};

/// Phase 2 of a two-phase promotion: routes traffic between incumbent
/// and candidate, measures online agreement on shadowed keys, and flips
/// (or refuses to flip) the store's live version on its own once the
/// evidence is in. Construct via DeploymentGate::try_promote(store,
/// candidate, traffic, canary_config, &offline).
///
/// Thread-safe: lookups may come from any number of serving threads; the
/// decision runs exactly once under an internal mutex. Incumbent-side
/// traffic flows through the caller's AsyncLookupService (so canary and
/// regular traffic coalesce into the same batches); candidate-side
/// traffic flows through the router's own async stack pinned to the
/// evaluated candidate snapshot.
class CanaryRouter {
 public:
  /// Use DeploymentGate::try_promote — this constructor is public for
  /// tests that want to drive phase 2 without phase 1.
  CanaryRouter(EmbeddingStore& store, AsyncLookupService& incumbent_traffic,
               SnapshotPtr incumbent, SnapshotPtr candidate,
               GateReport offline, CanaryConfig config,
               std::filesystem::path audit_log = {});
  ~CanaryRouter();
  CanaryRouter(const CanaryRouter&) = delete;
  CanaryRouter& operator=(const CanaryRouter&) = delete;

  /// Deterministic routing predicates (pure functions of config + key).
  bool routes_to_candidate(std::size_t key) const;
  bool routes_to_candidate(const std::string& word) const;
  /// True when a candidate-routed key is also mirrored to the incumbent.
  bool shadows_key(std::size_t key) const;

  /// Serving entry points: split by key hash, execute both sides through
  /// their async stacks, merge back into request order, score shadowed
  /// keys, and run the auto-decision. After a terminal state everything
  /// routes to whatever the store serves live (candidate after a
  /// promotion, incumbent otherwise). `out->version` reports the version
  /// that served the majority of the request's keys (ties → incumbent).
  void lookup_ids_into(const std::vector<std::size_t>& ids,
                       LookupResult* out);
  void lookup_words_into(const std::vector<std::string>& words,
                         LookupResult* out);

  CanaryState state() const {
    return state_.load(std::memory_order_acquire);
  }
  bool active() const {
    // seq_cst: half of the drain handshake (see InflightGuard in the
    // .cpp) — the routing thread increments inflight_ and THEN reads
    // this flag; both must be in the seq_cst total order for the drain
    // wait to be sound.
    return state() == CanaryState::kRunning &&
           !draining_.load(std::memory_order_seq_cst);
  }
  /// Operator abort: stops routing, keeps the incumbent live, writes the
  /// audit row. No-op unless running. With `drain` set, new requests
  /// immediately stop routing to the candidate but the in-flight routed
  /// lookups are waited for (bounded by kDrainTimeout), so every shadow
  /// already in motion lands in the final scored status instead of being
  /// discarded mid-measurement.
  void abort(bool drain = false);

  const GateReport& offline_report() const { return offline_; }
  const std::string& incumbent_version() const { return incumbent_name_; }
  const std::string& candidate_version() const { return candidate_name_; }
  const CanaryConfig& config() const { return config_; }
  CanaryStatsSnapshot stats() const {
    return stats_.snapshot(config_.confidence);
  }
  /// Reason attached to the terminal decision ("" while running).
  std::string decision_reason() const;

 private:
  /// Shared body of lookup_ids_into / lookup_words_into: Key is
  /// std::size_t or std::string; everything key-specific (routing hash,
  /// sub-lookup submission, probe self-exclusion) resolves through
  /// overloads in the .cpp.
  template <typename Key>
  void route_into(const std::vector<Key>& keys, LookupResult* out);

  /// Scores mirror_slice row j against cand_slice row shadow_cand_rows[j]
  /// and records one CanaryStats sample per non-OOV pair. `shadow_keys`
  /// (row ids; empty for word traffic) enables probe self-exclusion.
  void score_shadows(const std::vector<std::size_t>& shadow_keys,
                     const std::vector<std::uint32_t>& shadow_cand_rows,
                     const ResultSlice& cand_slice,
                     const ResultSlice& mirror_slice,
                     double latency_delta_us);
  /// Top-`knn_k` probe indices of a normalized copy of `vec` against the
  /// given probe panel, excluding `self_probe` (kNoProbe = keep all).
  /// False when the vector is zero (no sample can be scored).
  bool probe_topk(const la::Matrix& probes, const float* vec,
                  std::size_t self_probe, std::vector<int>* out) const;
  void maybe_decide();
  void decide(CanaryState terminal, const std::string& reason);

  EmbeddingStore& store_;
  AsyncLookupService& incumbent_traffic_;
  SnapshotPtr incumbent_;
  SnapshotPtr candidate_;
  std::string incumbent_name_;
  std::string candidate_name_;
  GateReport offline_;
  CanaryConfig config_;
  std::filesystem::path audit_log_;
  std::uint64_t route_threshold_ = 0;   // hash < threshold → candidate
  std::uint64_t shadow_threshold_ = 0;  // second hash < threshold → shadow

  LookupService candidate_service_;
  AsyncLookupService candidate_async_;

  /// Probe panel: row ids sampled once at start plus each version's
  /// L2-normalized probe rows (probe_rows × dim, that version's space).
  std::vector<std::size_t> probe_ids_;
  std::unordered_map<std::size_t, std::size_t> probe_index_;
  la::Matrix probes_incumbent_;
  la::Matrix probes_candidate_;

  CanaryStats stats_;
  std::atomic<CanaryState> state_{CanaryState::kRunning};
  /// Set by abort(drain): active() turns false (new requests route live)
  /// while in-flight route_into calls — counted by inflight_ — finish
  /// scoring their shadows before the terminal decision is written.
  std::atomic<bool> draining_{false};
  std::atomic<int> inflight_{0};
  mutable std::mutex decide_mu_;
  std::string decision_reason_;
};

}  // namespace anchor::serve
