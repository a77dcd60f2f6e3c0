// Mergeable log-bucketed latency histograms (the HdrHistogram idea).
//
// Percentile aggregation across processes is the problem this solves: a
// percentile of percentiles is not a percentile, so the router maxing
// per-shard p99s (the pre-v3 kStats contract) systematically misreports
// the fleet tail. A LogHistogram records values into fixed
// logarithmically-spaced buckets whose COUNTS merge exactly — integer
// adds, commutative and associative, bit-identical regardless of merge
// order — so any number of shard histograms collapse into one fleet
// histogram whose quantiles are as good as a single process recording
// all the traffic.
//
// Bucketing (all integer math, deterministic across platforms): a value
// v ≥ 0 is scaled to integer units u = round(v · 2^kFracBits), then
// indexed HdrHistogram-style — u < 32 maps to exact unit buckets, larger
// u to 32 linear sub-buckets per power-of-two octave:
//
//   idx(u) = u                                          u < 32
//   idx(u) = ((msb(u) − 4) << 5) + ((u >> (msb(u) − 5)) − 32)   otherwise
//
// so each bucket spans at most 1/32 = 3.125% of its lower bound. That is
// the documented quantile error: quantile() returns the lower bound of
// the bucket holding the target rank, hence the true quantile q satisfies
//
//   quantile(p) ≤ q < quantile(p) · (1 + kMaxRelativeError)
//
// (plus the fixed ±2^-(kFracBits+1) unit-scale rounding of record()).
// Many round test values — any v whose scaled units have ≤ 6 significant
// bits, e.g. 3, 6, 7, 20, 50, 200 µs — sit exactly on a bucket lower
// bound and round-trip exactly.
//
// Concurrency: record() is lock-free — one relaxed fetch_add on the
// bucket plus relaxed aggregate updates; there is no mutex anywhere on
// the write path. snapshot() reads the buckets relaxed, so a snapshot
// taken during concurrent recording is "consistent enough" (counts may
// trail the aggregates by in-flight records), the same discipline as the
// WindowedStats counters. reset() zeroes buckets in place; records racing
// a reset land on either side of it — attribution, not corruption.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace anchor::obs {

/// Plain-value copy of a LogHistogram: what snapshots, wire frames, and
/// merges operate on. Counts are dense (kNumBuckets entries) or empty
/// (all-zero); the wire codec in net/wire.cpp transmits them sparsely.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_units = 0;  // Σ recorded values, in 2^-kFracBits units
  std::uint64_t min_units = 0;  // valid only when count > 0
  std::uint64_t max_units = 0;
  std::vector<std::uint64_t> counts;  // per-bucket; empty == all zero

  /// Exact merge: integer adds per bucket. Commutative and associative —
  /// merging shard snapshots in any order yields bit-identical counts.
  void merge(const HistogramSnapshot& other);

  /// Deterministic quantile estimate: the lower bound of the bucket
  /// containing nearest-rank ceil(q·count). The true quantile lies in
  /// [returned, returned · (1 + kMaxRelativeError)). 0 when empty.
  double quantile(double q) const;
  double mean() const;
  double min() const;
  double max() const;
};

class LogHistogram {
 public:
  /// Sub-unit resolution of record(): values are scaled by 2^kFracBits
  /// before bucketing, so sub-unit measurements (µs fractions, agreement
  /// scores in [0,1]) still resolve into distinct buckets.
  static constexpr int kFracBits = 10;
  static constexpr double kUnitScale = double{1 << kFracBits};
  /// Sub-buckets per power-of-two octave; bounds the bucket width.
  static constexpr int kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
  /// Worst-case relative width of any log bucket — the documented
  /// quantile error bound.
  static constexpr double kMaxRelativeError =
      1.0 / static_cast<double>(kSubBuckets);
  /// Units clamp: values above this saturate into the top bucket. 2^62
  /// units ≈ 4.5·10^15 at kFracBits = 10 — beyond any latency we record.
  static constexpr std::uint64_t kMaxUnits = (1ull << 62) - 1;
  /// Highest index + 1 for a kMaxUnits value (msb 61 → shift 56).
  static constexpr std::size_t kNumBuckets =
      ((61 - kSubBucketBits + 1) + 1) << kSubBucketBits;  // 1856

  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  /// Records one value (negative values clamp to 0). Lock-free.
  void record(double value) { record_units(to_units(value), 1); }
  /// Records `n` occurrences of one value in a single pass.
  void record_n(double value, std::uint64_t n) {
    if (n != 0) record_units(to_units(value), n);
  }

  /// Zeroes every bucket and aggregate. Concurrent records may land on
  /// either side of the sweep (attribution is fuzzy, like the
  /// WindowedStats total's reset), but no pre-reset count survives it.
  void reset();

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Convenience: snapshot().quantile(q).
  double quantile(double q) const { return snapshot().quantile(q); }

  HistogramSnapshot snapshot() const;

  // ---- bucket math (exposed for tests and the wire codec) --------------
  static std::uint64_t to_units(double value);
  static double from_units(std::uint64_t units) {
    return static_cast<double>(units) / kUnitScale;
  }
  static std::size_t bucket_index(std::uint64_t units);
  /// Smallest units value mapping to bucket `idx`.
  static std::uint64_t bucket_lower_units(std::size_t idx);
  /// Width of bucket `idx` in units (1 for the linear region).
  static std::uint64_t bucket_width_units(std::size_t idx);

 private:
  void record_units(std::uint64_t units, std::uint64_t n);

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_units_{0};
  std::atomic<std::uint64_t> min_units_{~0ull};
  std::atomic<std::uint64_t> max_units_{0};
};

}  // namespace anchor::obs
