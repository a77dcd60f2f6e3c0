// Serving-side runtime statistics.
//
// Counters are lock-free atomics so the lookup hot path never serializes
// on a stats mutex; latency quantiles come from an obs::LogHistogram —
// fixed log-bucketed, lock-free, exactly mergeable across processes
// (which is how the cluster router aggregates shard stats; see
// obs/log_histogram.hpp for the bucket-error contract). A snapshot()
// copies the buckets off the hot path, so p50/p99 cost is paid by
// whoever asks for the numbers, not by the servers producing them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/log_histogram.hpp"

namespace anchor::serve {

/// Point-in-time view of the counters, produced by ServeStats::snapshot().
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

/// Lock-free counters shared by every thread of a LookupService.
class ServeStats {
 public:
  ServeStats() { reset(); }

  /// Records one served batch of `lookups` vectors taking `latency_us`.
  void record_batch(std::uint64_t lookups, double latency_us);
  /// Counts a served batch WITHOUT a latency sample — for callers that
  /// timestamp only a fraction of their traffic (the async batcher's
  /// sampled clock): unsampled batches must not pollute the latency
  /// histogram with fake 0 µs entries.
  void record_batch_unsampled(std::uint64_t lookups) {
    lookups_.fetch_add(lookups, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_oov(std::uint64_t n = 1) {
    oov_fallbacks_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Consistent-enough copy of all counters plus derived rates. Safe to call
  /// concurrently with recording.
  StatsSnapshot snapshot() const;

  /// The live latency histogram's current state — what the metrics plane
  /// bridges into its registry.
  obs::HistogramSnapshot latency_histogram() const {
    return latency_.snapshot();
  }

  /// Zeroes every counter and bucket and restarts the QPS clock.
  /// Concurrent recording during a reset can leave a few records
  /// attributed to either side of it — values stay valid, only the
  /// attribution is fuzzy (the histogram zeroes its buckets in place, so
  /// no pre-reset sample survives into the new window).
  void reset();

 private:
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> oov_fallbacks_{0};
  /// Per-batch latency samples in µs. Covers every sampled batch since
  /// the last reset (no ring, no windowing): quantiles describe the whole
  /// window the counters describe, and two processes' histograms merge
  /// into the fleet view exactly.
  obs::LogHistogram latency_;
  // steady_clock ticks at the last reset; atomic because snapshot() is
  // documented safe to call concurrently with reset().
  std::atomic<std::chrono::steady_clock::rep> start_ticks_{0};
};

std::ostream& operator<<(std::ostream& os, const StatsSnapshot& s);

}  // namespace anchor::serve
