// Serving-side ANN façade: owns the IVF-PQ index cache keyed on snapshot
// epoch, so index build/swap follows the store's version lifecycle — a
// promote (or canary/rollout step) that changes the live snapshot lazily
// builds the matching index on first TOPK and the old one ages out. Also
// home of the online gate measure: top-k churn of served TOPK results
// between two index versions (the paper's kNN-overlap instability, §3.1,
// applied to the serving path itself).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "ann/ivf_pq.hpp"
#include "serve/embedding_store.hpp"

namespace anchor::ann {

class AnnService {
 public:
  /// `config` fixes the index shape for every version this service builds;
  /// `store` outlives the service.
  AnnService(serve::EmbeddingStore& store, AnnConfig config);

  const AnnConfig& config() const { return config_; }

  /// Index for the current live snapshot (builds on miss). Returns nullptr
  /// when the store has no live version.
  IvfPqIndexPtr index_for_live();

  /// Index for an explicit snapshot (builds on miss, epoch-keyed).
  IvfPqIndexPtr index_for(const serve::SnapshotPtr& snap);

  /// Mean top-k churn between the two snapshots' indexes: for `queries`
  /// deterministic probe queries (rows of `a`, evenly strided), the mean of
  /// 1 − |topk_a ∩ topk_b| / k. 0 = identical served results, 1 = total
  /// churn. Snapshots of different dimension score 1.0 outright.
  double topk_churn(const serve::SnapshotPtr& a, const serve::SnapshotPtr& b,
                    std::size_t queries, std::size_t k);

  /// Total index builds (cache misses) — exported as a counter.
  std::uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kMaxCached = 4;

  serve::EmbeddingStore& store_;
  AnnConfig config_;
  std::mutex mu_;
  std::vector<IvfPqIndexPtr> cache_;  // most-recently-used first
  std::atomic<std::uint64_t> builds_{0};
};

}  // namespace anchor::ann
