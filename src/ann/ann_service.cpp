#include "ann/ann_service.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/check.hpp"

namespace anchor::ann {

AnnService::AnnService(serve::EmbeddingStore& store, AnnConfig config)
    : store_(store), config_(std::move(config)) {}

IvfPqIndexPtr AnnService::index_for_live() {
  serve::SnapshotPtr live = store_.live();
  if (!live) return nullptr;
  return index_for(live);
}

IvfPqIndexPtr AnnService::index_for(const serve::SnapshotPtr& snap) {
  ANCHOR_CHECK(snap != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i]->epoch() == snap->epoch()) {
      IvfPqIndexPtr hit = cache_[i];
      cache_.erase(cache_.begin() + i);
      cache_.insert(cache_.begin(), hit);
      return hit;
    }
  }
  // Build under the lock: concurrent first-TOPK callers would otherwise
  // race to build the same index, and a build is the expensive path anyway.
  auto index = std::make_shared<const IvfPqIndex>(snap, config_);
  builds_.fetch_add(1, std::memory_order_relaxed);
  cache_.insert(cache_.begin(), index);
  if (cache_.size() > kMaxCached) cache_.resize(kMaxCached);
  return index;
}

double AnnService::topk_churn(const serve::SnapshotPtr& a,
                              const serve::SnapshotPtr& b,
                              std::size_t queries, std::size_t k) {
  ANCHOR_CHECK(a != nullptr);
  ANCHOR_CHECK(b != nullptr);
  if (a->dim() != b->dim()) return 1.0;
  if (k == 0 || queries == 0 || a->vocab_size() == 0) return 0.0;
  IvfPqIndexPtr ia = index_for(a);
  IvfPqIndexPtr ib = index_for(b);

  queries = std::min(queries, a->vocab_size());
  const std::size_t stride = a->vocab_size() / queries;
  std::vector<float> q(a->dim());
  double churn_sum = 0.0;
  for (std::size_t i = 0; i < queries; ++i) {
    a->copy_row(i * stride, q.data());
    const TopKResult ra = ia->search(q.data(), k);
    const TopKResult rb = ib->search(q.data(), k);
    std::unordered_set<std::uint64_t> in_a;
    in_a.reserve(ra.hits.size());
    for (const TopKHit& h : ra.hits) in_a.insert(h.id);
    std::size_t overlap = 0;
    for (const TopKHit& h : rb.hits) overlap += in_a.count(h.id);
    // Normalize by the smaller achievable set so tiny stores (k > vocab)
    // don't register phantom churn.
    const std::size_t denom =
        std::max<std::size_t>(1, std::min({k, ra.hits.size(), rb.hits.size(),
                                           std::size_t{1} * a->vocab_size()}));
    churn_sum += 1.0 - static_cast<double>(overlap) / static_cast<double>(denom);
  }
  return churn_sum / static_cast<double>(queries);
}

}  // namespace anchor::ann
