#include "obs/drift_probe.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "la/kernels.hpp"
#include "util/rng.hpp"

namespace anchor::obs {

namespace {

/// Copies the probe rows of `snap` into an L2-normalized panel. Probe ids
/// outside the snapshot's vocabulary (a shrunk candidate) stay zero rows
/// flagged invalid; zero-norm in-vocabulary rows likewise.
void build_panel(const serve::EmbeddingSnapshot& snap,
                 const std::vector<std::size_t>& ids, la::Matrix* panel,
                 std::vector<std::uint8_t>* valid) {
  const std::size_t dim = snap.dim();
  *panel = la::Matrix(ids.size(), dim);
  valid->assign(ids.size(), 0);
  std::vector<float> buf(dim);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= snap.vocab_size()) continue;
    snap.copy_rows(&ids[i], 1, buf.data());
    double* dst = panel->row(i);
    for (std::size_t j = 0; j < dim; ++j) dst[j] = buf[j];
    (*valid)[i] = la::kernels::l2_normalize(dst, dim) != 0.0 ? 1 : 0;
  }
}

}  // namespace

DriftProbe::DriftProbe(const serve::EmbeddingStore& store,
                       DriftProbeConfig config)
    : store_(store), config_(config) {
  if (config_.knn_k == 0) config_.knn_k = 1;
  reference_ = store_.live();
  if (!reference_) return;  // empty store: probe stays inert
  reference_version_ = reference_->version();

  const std::size_t vocab = reference_->vocab_size();
  std::size_t m = std::min(config_.probe_rows, vocab);
  if (m == 0) m = 1;
  probe_ids_.reserve(m);
  if (m == vocab) {
    for (std::size_t i = 0; i < m; ++i) probe_ids_.push_back(i);
  } else {
    // Same fixed-sample discipline as the canary probe panel: one seeded
    // draw at pin time, stable for the probe's lifetime.
    Rng rng(config_.seed ^ 0x6472696674703935ull);
    std::unordered_set<std::size_t> seen;
    while (probe_ids_.size() < m) {
      const std::size_t id = rng.index(vocab);
      if (seen.insert(id).second) probe_ids_.push_back(id);
    }
  }

  build_panel(*reference_, probe_ids_, &reference_panel_, &reference_valid_);
  reference_topk_.resize(m);
  for (std::size_t p = 0; p < m; ++p) {
    if (reference_valid_[p]) {
      panel_topk(reference_panel_, p, &reference_topk_[p]);
    }
  }
}

DriftProbe::~DriftProbe() { stop(); }

bool DriftProbe::panel_topk(const la::Matrix& panel, std::size_t self,
                            std::vector<int>* out) const {
  const std::size_t m = panel.rows();
  const std::size_t dim = panel.cols();
  thread_local std::vector<double> scores;
  thread_local std::vector<int> idx;
  scores.resize(m);
  la::kernels::matvec_rowmajor(panel.data(), m, dim, panel.row(self),
                               scores.data());
  idx.clear();
  idx.reserve(m);
  for (std::size_t p = 0; p < m; ++p) {
    if (p != self) idx.push_back(static_cast<int>(p));
  }
  const std::size_t k = std::min(config_.knn_k, idx.size());
  if (k == 0) return false;
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k),
                    idx.end(), [&](int a, int b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // deterministic tie-break
                    });
  out->assign(idx.begin(), idx.begin() + static_cast<long>(k));
  return true;
}

DriftSample DriftProbe::run_once() {
  std::lock_guard<std::mutex> lock(mu_);
  DriftSample sample;
  const serve::SnapshotPtr live = store_.live();
  if (!reference_ || !live) return sample;
  sample.live_version = live->version();
  sample.same_snapshot = live.get() == reference_.get();

  if (live->dim() != reference_->dim()) {
    // A dimensionality change is maximal drift by definition — nothing
    // is commensurable across the swap.
    sample.topk_agreement = 0.0;
    sample.displacement_mean = 2.0;
    sample.displacement_p95 = 2.0;
  } else {
    la::Matrix live_panel;
    std::vector<std::uint8_t> live_valid;
    build_panel(*live, probe_ids_, &live_panel, &live_valid);

    const std::size_t dim = reference_->dim();
    double agreement_sum = 0.0;
    std::uint64_t agreement_n = 0;
    std::vector<double> displacements;
    displacements.reserve(probe_ids_.size());
    std::vector<int> live_topk;
    for (std::size_t p = 0; p < probe_ids_.size(); ++p) {
      if (!reference_valid_[p] || !live_valid[p]) continue;
      // Own-space top-k overlap: each side's neighbors computed within
      // its own panel geometry, so pure rotations agree perfectly.
      if (panel_topk(live_panel, p, &live_topk) &&
          !reference_topk_[p].empty()) {
        std::size_t overlap = 0;
        for (const int r : reference_topk_[p]) {
          if (std::find(live_topk.begin(), live_topk.end(), r) !=
              live_topk.end()) {
            ++overlap;
          }
        }
        const std::size_t k =
            std::max(reference_topk_[p].size(), live_topk.size());
        agreement_sum +=
            static_cast<double>(overlap) / static_cast<double>(k);
        ++agreement_n;
      }
      // Rows are unit-norm, so the dot IS the cosine.
      const double cos = la::kernels::dot(reference_panel_.row(p),
                                          live_panel.row(p), dim);
      displacements.push_back(std::clamp(1.0 - cos, 0.0, 2.0));
    }
    sample.probes = displacements.size();
    sample.topk_agreement =
        agreement_n != 0 ? agreement_sum / static_cast<double>(agreement_n)
                         : 0.0;
    if (!displacements.empty()) {
      double sum = 0.0;
      for (const double d : displacements) sum += d;
      sample.displacement_mean =
          sum / static_cast<double>(displacements.size());
      std::sort(displacements.begin(), displacements.end());
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(0.95 * static_cast<double>(displacements.size())));
      sample.displacement_p95 =
          displacements[std::min(rank == 0 ? 0 : rank - 1,
                                 displacements.size() - 1)];
    }
  }

  if (runs_counter_ != nullptr) runs_counter_->inc();
  if (agreement_gauge_ != nullptr) {
    agreement_gauge_->set(sample.topk_agreement);
  }
  if (displacement_p95_gauge_ != nullptr) {
    displacement_p95_gauge_->set(sample.displacement_p95);
  }
  if (displacement_mean_gauge_ != nullptr) {
    displacement_mean_gauge_->set(sample.displacement_mean);
  }
  return sample;
}

void DriftProbe::register_metrics(MetricsRegistry& registry) {
  agreement_gauge_ = &registry.gauge(
      "anchor_drift_topk_agreement",
      "Mean own-space top-k agreement of the live snapshot against the "
      "pinned reference panel (1 = no drift)");
  displacement_p95_gauge_ = &registry.gauge(
      "anchor_drift_displacement_p95",
      "p95 per-key cosine displacement (1 - cos) of live probe rows vs "
      "the pinned reference panel");
  displacement_mean_gauge_ = &registry.gauge(
      "anchor_drift_displacement_mean",
      "Mean per-key cosine displacement of live probe rows vs the pinned "
      "reference panel");
  runs_counter_ = &registry.counter(
      "anchor_drift_probe_runs_total", "Completed drift-probe runs");
}

void DriftProbe::start() {
  if (config_.interval_ms == 0 || !reference_ || thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void DriftProbe::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DriftProbe::loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    if (stop_cv_.wait_for(lock,
                          std::chrono::milliseconds(config_.interval_ms),
                          [this] { return stop_; })) {
      break;
    }
    lock.unlock();
    run_once();
    lock.lock();
  }
}

}  // namespace anchor::obs
