// Continuous instability probing: the paper's drift measures as live
// gauges instead of gate-time-only numbers.
//
// The deployment gate and the canary compute top-k agreement and per-key
// displacement exactly once per rollout attempt. Between rollouts the
// fleet is blind: a bad hot-swap, a corrupted snapshot reload, or plain
// embedding drift shows up only as downstream symptom. A DriftProbe pins
// a REFERENCE panel at construction — a fixed sample of probe rows from
// the then-live snapshot, L2-normalized in its own space, with each
// probe's own-space top-k neighbors precomputed — and then, every
// `--drift-interval` (or on demand), scores the CURRENT live snapshot
// against it:
//
//   • topk_agreement — mean |reference top-k ∩ live top-k| / k, each side
//     computed within its own panel's geometry, so pure rotations score
//     1.0 (rotation-invariant, same measure the canary uses online).
//   • displacement — 1 − cos(reference row, live row) per probe,
//     clamped to [0, 2]; the p95 and mean are exported.
//
// Gauges (continuous versions of the paper's instability measures):
//   anchor_drift_topk_agreement, anchor_drift_displacement_p95,
//   anchor_drift_displacement_mean, anchor_drift_probe_runs_total.
//
// The probe is deliberately read-only and out-of-band: it copies probe
// rows through EmbeddingSnapshot::copy_rows like any lookup, touches no
// serving state, and runs on its own background thread.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "serve/embedding_store.hpp"

namespace anchor::obs {

struct DriftProbeConfig {
  std::size_t probe_rows = 256;
  std::size_t knn_k = 5;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Background sampling period; 0 disables the thread (run_once only).
  std::uint64_t interval_ms = 0;
};

/// One probe run's scores.
struct DriftSample {
  std::string live_version;
  std::uint64_t probes = 0;  // probe rows scored (in both vocabularies)
  double topk_agreement = 1.0;
  double displacement_mean = 0.0;
  double displacement_p95 = 0.0;
  bool same_snapshot = false;  // live is still the pinned reference
};

class DriftProbe {
 public:
  /// Pins the store's live snapshot as the reference and builds its
  /// normalized probe panel. The store must outlive the probe.
  DriftProbe(const serve::EmbeddingStore& store, DriftProbeConfig config);
  ~DriftProbe();
  DriftProbe(const DriftProbe&) = delete;
  DriftProbe& operator=(const DriftProbe&) = delete;

  /// Scores the current live snapshot against the reference panel and
  /// (when metrics are registered) updates the gauges. Thread-safe.
  DriftSample run_once();

  /// Registers the drift gauges; subsequent runs update them.
  void register_metrics(MetricsRegistry& registry);

  /// Starts the background sampler (no-op when interval_ms == 0).
  void start();
  void stop();

  const std::string& reference_version() const { return reference_version_; }
  const DriftProbeConfig& config() const { return config_; }

 private:
  /// Own-space top-k of panel row `self` within `panel` (self excluded),
  /// deterministic tie-break. False when the row has zero norm.
  bool panel_topk(const la::Matrix& panel, std::size_t self,
                  std::vector<int>* out) const;
  void loop();

  const serve::EmbeddingStore& store_;
  DriftProbeConfig config_;

  serve::SnapshotPtr reference_;
  std::string reference_version_;
  std::vector<std::size_t> probe_ids_;
  la::Matrix reference_panel_;               // normalized probe rows
  std::vector<std::uint8_t> reference_valid_;  // nonzero-norm probe rows
  std::vector<std::vector<int>> reference_topk_;

  Gauge* agreement_gauge_ = nullptr;
  Gauge* displacement_p95_gauge_ = nullptr;
  Gauge* displacement_mean_gauge_ = nullptr;
  Counter* runs_counter_ = nullptr;

  std::mutex mu_;  // serializes run_once

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace anchor::obs
