// Thread-safe batched embedding lookup over an EmbeddingStore.
//
// One path per batch: resolve the live snapshot (an immutable shared_ptr;
// the store's mutex is held only to copy it), map every request to a row,
// then gather all in-vocabulary rows with one EmbeddingSnapshot::copy_rows
// call straight into the caller's output buffer. There is no row cache:
// re-decoding a quantized or PQ row measured faster than a mutexed LRU of
// decoded rows at every served encoding, from d=64 to d=300.
//
// Requests may also carry word *strings*; ids outside the live vocabulary
// fall back to subword synthesis (embed/subword hashed n-grams) when the
// snapshot carries an OOV table.
//
// Each executed batch is recorded once into the service's
// obs::WindowedStats; StatsSnapshot is the STATS wire view of such a
// recorder's all-time total.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/log_histogram.hpp"
#include "obs/windowed.hpp"
#include "serve/embedding_store.hpp"

namespace anchor::obs {
struct KeyLoadRecorder;
}  // namespace anchor::obs

namespace anchor::serve {

/// STATS view of one serve-layer recorder (see stats_snapshot()).
struct StatsSnapshot {
  std::uint64_t lookups = 0;        // individual vectors served
  std::uint64_t batches = 0;        // batched requests served
  std::uint64_t oov_fallbacks = 0;  // lookups answered via subword synthesis
  double elapsed_seconds = 0.0;     // since construction or last reset
  double qps = 0.0;                 // lookups / elapsed_seconds
  /// Per-batch latency quantiles derived from `latency` (bucket lower
  /// bound, ≤ 1/32 relative error — obs::LogHistogram's contract).
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  /// The full mergeable latency histogram (µs). Cluster aggregation merges
  /// these and re-derives the quantiles, never maxes the percentiles.
  obs::HistogramSnapshot latency;

  /// Re-derives p50/p99 from `latency` — what cluster aggregation calls
  /// after merging shard histograms into this snapshot.
  void refresh_percentiles() {
    p50_latency_us = latency.quantile(0.50);
    p99_latency_us = latency.quantile(0.99);
  }

  /// One-line human-readable summary ("qps=... p50=...us ...").
  std::string summary() const;
};

/// The STATS view of a recorder's all-time total: lookups are its
/// requests, batches its record calls, oov_fallbacks its errors.
StatsSnapshot stats_snapshot(const obs::WindowedStats& recorder);

struct LookupConfig {
  /// When set, every lookup resolves this exact snapshot instead of the
  /// store's live one. Identity, not name: the canary router pins the
  /// candidate snapshot it evaluated, so a concurrent re-register under
  /// the same version id can never ride into a running canary.
  SnapshotPtr pin_snapshot = nullptr;
  /// When set, every resolved (in-vocabulary) row is attributed to the
  /// heavy-hitter sketch and range heat map — one hook covers the direct,
  /// batched, and canary-shadow paths, which all funnel through
  /// lookup_batch_into. OOV requests resolve to no row and are skipped:
  /// they carry no id to attribute a range to. Not owned; must outlive
  /// the service.
  obs::KeyLoadRecorder* load = nullptr;
};

/// LookupResult::oov flag values. The serve layer itself only ever writes
/// 0 or kLookupFlagOov; the cluster router additionally flags rows it
/// could not serve because the owning shard was down with
/// kLookupFlagDegraded (zero vector, same consumer contract as OOV: "this
/// is not a real embedding"). Callers that only test `oov[i] != 0` treat
/// both identically, which is exactly the degraded-mode contract.
inline constexpr std::uint8_t kLookupFlagOov = 1;
inline constexpr std::uint8_t kLookupFlagDegraded = 2;

/// Parses a synthetic id "wNNNN" → row id; returns false for anything else
/// (real-word strings, malformed or overflowing tokens), which then takes
/// the OOV path. Shared with the cluster shard router, which resolves
/// word traffic to global rows with the same rule the backends use.
bool parse_synthetic_word_id(const std::string& word, std::size_t* id);

/// Result of a batched lookup: vectors are concatenated row-major in
/// request order (batch_size × dim). The struct is reusable: the *_into
/// entry points overwrite it in place, so a long-lived caller (the async
/// batcher, a connection handler) keeps one result per coalesced batch and
/// never reallocates in the steady state. It also doubles as the RPC
/// payload layout (net/wire serializes these fields verbatim).
struct LookupResult {
  std::size_t dim = 0;
  std::vector<float> vectors;
  /// Per-request flags: true when the word was out-of-vocabulary and the
  /// vector was synthesized (or zeroed) rather than looked up.
  std::vector<std::uint8_t> oov;
  std::string version;  // snapshot that answered

  std::size_t size() const { return oov.size(); }
  const float* row(std::size_t i) const { return vectors.data() + i * dim; }
};

class LookupService {
 public:
  /// The store must outlive the service. `stats` is the service view's
  /// recorder: one record per executed batch, latency = the batch's
  /// execute time, and the batch's OOV fallbacks as its errors (a
  /// fallback row is served but is not a real embedding, as the router
  /// counts its degraded rows). No SLO or window export reads it. It may
  /// be shared with other services; when null the service owns one.
  explicit LookupService(const EmbeddingStore& store, LookupConfig config = {},
                         std::shared_ptr<obs::WindowedStats> stats = nullptr);

  /// Batched lookup by word id against the live snapshot. Ids ≥ vocab_size
  /// yield zero vectors flagged oov (no subword string to synthesize from).
  LookupResult lookup_ids(const std::vector<std::size_t>& ids) const;

  /// Batched lookup by word string. In-vocabulary synthetic ids ("w0042")
  /// resolve to their row; anything else takes the subword OOV fallback.
  LookupResult lookup_words(const std::vector<std::string>& words) const;

  /// In-place variants: overwrite `out`, reusing its buffers (`assign`
  /// keeps capacity), so a caller serving many batches pays no allocation
  /// after warm-up. The batcher and the RPC connection handlers use these.
  void lookup_ids_into(const std::vector<std::size_t>& ids,
                       LookupResult* out) const;
  void lookup_words_into(const std::vector<std::string>& words,
                         LookupResult* out) const;

  const obs::WindowedStats& stats() const { return *stats_; }
  obs::WindowedStats& stats() { return *stats_; }

 private:
  /// Shared batch skeleton: resolve the live snapshot, map every request to
  /// a row id via `resolve(i, snap, &row)` (false = OOV), gather all rows
  /// in one copy_rows call, write every OOV slot in full via `oov_fill`,
  /// record the batch.
  /// Writes into `*out` (reusing its buffers). Defined in the .cpp; the
  /// public entry points instantiate it there.
  template <typename Resolve, typename OovFill>
  void lookup_batch_into(std::size_t n, const Resolve& resolve,
                         const OovFill& oov_fill, LookupResult* out) const;

  const EmbeddingStore& store_;
  LookupConfig config_;
  std::shared_ptr<obs::WindowedStats> stats_;
};

}  // namespace anchor::serve
