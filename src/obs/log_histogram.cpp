#include "obs/log_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace anchor::obs {

std::uint64_t LogHistogram::to_units(double value) {
  if (!(value > 0.0)) return 0;  // negatives and NaN clamp to 0
  const double scaled = value * kUnitScale;
  if (scaled >= static_cast<double>(kMaxUnits)) return kMaxUnits;
  return static_cast<std::uint64_t>(std::llround(scaled));
}

std::size_t LogHistogram::bucket_index(std::uint64_t units) {
  if (units > kMaxUnits) units = kMaxUnits;
  if (units < kSubBuckets) return static_cast<std::size_t>(units);
  const int msb = std::bit_width(units) - 1;  // ≥ kSubBucketBits
  const int shift = msb - kSubBucketBits;
  const std::uint64_t sub = (units >> shift) - kSubBuckets;
  return (static_cast<std::size_t>(shift + 1) << kSubBucketBits) +
         static_cast<std::size_t>(sub);
}

std::uint64_t LogHistogram::bucket_lower_units(std::size_t idx) {
  if (idx < kSubBuckets) return idx;
  const int shift = static_cast<int>(idx >> kSubBucketBits) - 1;
  const std::uint64_t sub = idx & (kSubBuckets - 1);
  return (kSubBuckets + sub) << shift;
}

std::uint64_t LogHistogram::bucket_width_units(std::size_t idx) {
  if (idx < kSubBuckets) return 1;
  const int shift = static_cast<int>(idx >> kSubBucketBits) - 1;
  return 1ull << shift;
}

void LogHistogram::record_units(std::uint64_t units, std::uint64_t n) {
  buckets_[bucket_index(units)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_units_.fetch_add(units * n, std::memory_order_relaxed);
  // min/max via CAS loops: contention is rare (only genuinely new
  // extremes retry) and the loop is bounded by monotonicity.
  std::uint64_t cur = min_units_.load(std::memory_order_relaxed);
  while (units < cur && !min_units_.compare_exchange_weak(
                            cur, units, std::memory_order_relaxed)) {
  }
  cur = max_units_.load(std::memory_order_relaxed);
  while (units > cur && !max_units_.compare_exchange_weak(
                            cur, units, std::memory_order_relaxed)) {
  }
}

void LogHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_units_.store(0, std::memory_order_relaxed);
  min_units_.store(~0ull, std::memory_order_relaxed);
  max_units_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot s;
  s.counts.resize(kNumBuckets);
  // Buckets first, count last: the sum of the copied buckets is then at
  // least the copied count, so quantile() — which walks buckets until it
  // covers rank ceil(q·count) — always terminates inside the loop.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += s.counts[i];
  }
  s.sum_units = sum_units_.load(std::memory_order_relaxed);
  const std::uint64_t mn = min_units_.load(std::memory_order_relaxed);
  s.min_units = mn == ~0ull ? 0 : mn;
  s.max_units = max_units_.load(std::memory_order_relaxed);
  s.count = std::min(total, count_.load(std::memory_order_relaxed));
  return s;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0 && other.counts.empty()) return;
  if (counts.empty()) {
    counts.resize(LogHistogram::kNumBuckets);
  }
  for (std::size_t i = 0; i < other.counts.size() && i < counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  if (count == 0) {
    min_units = other.min_units;
    max_units = other.max_units;
  } else if (other.count > 0) {
    min_units = std::min(min_units, other.min_units);
    max_units = std::max(max_units, other.max_units);
  }
  count += other.count;
  sum_units += other.sum_units;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank, matching the old sorted-sample estimator: the target is
  // the ceil(q·n)-th smallest recorded value; we return the lower bound
  // of its bucket (see the error contract in the header).
  const double exact = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(exact));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (cum >= rank) {
      return LogHistogram::from_units(LogHistogram::bucket_lower_units(i));
    }
  }
  // Snapshot raced with concurrent records (count ahead of buckets):
  // report the max as the best available tail estimate.
  return LogHistogram::from_units(max_units);
}

double HistogramSnapshot::mean() const {
  if (count == 0) return 0.0;
  return LogHistogram::from_units(sum_units) / static_cast<double>(count);
}

double HistogramSnapshot::min() const {
  return count == 0 ? 0.0 : LogHistogram::from_units(min_units);
}

double HistogramSnapshot::max() const {
  return count == 0 ? 0.0 : LogHistogram::from_units(max_units);
}

}  // namespace anchor::obs
