// Per-key and per-range load attribution: a Space-Saving heavy-hitter
// sketch and a fixed-fanout id-range heat map.
//
// Live resharding (ROADMAP item 1) needs to know WHERE the load lands,
// not just how much of it there is. Two complementary views:
//
//   • SpaceSavingSketch — "which exact keys are hot". The classic
//     Space-Saving algorithm (Metwally et al.): a fixed table of
//     `capacity` (key, count, error) entries; an unseen key arriving at a
//     full table evicts the minimum-count entry and inherits its count as
//     its error bound. Guarantees, per stripe: every key with true
//     frequency > N/capacity is in the table, and every entry
//     overestimates its true count by at most its `error` field, itself
//     ≤ N/capacity (N = keys offered to that stripe). Both bounds are
//     pinned by obs_test. Lock-striped: keys hash-partition across
//     `stripes` independent tables (one mutex each), so concurrent
//     recorders contend 1/stripes as often and per-key counts stay exact
//     within their stripe.
//
//   • RangeHeatMap — "which contiguous id ranges are hot". A fixed
//     fanout of `buckets` equal-width bins over the shard's [row_begin,
//     row_end) slice, one relaxed atomic add per record. Merged per-range
//     counts over a known interval are per-range QPS — exactly the
//     split/merge input live resharding needs.
//
// Merge contract (both): snapshots merge by exact integer addition keyed
// by key (sketch) or by [row_begin, row_end) range (heat map), then
// canonical sort — commutative, associative, and bit-identical in any
// merge order, the same discipline as HistogramSnapshot. A merged sketch
// may hold more than `capacity` entries (union of the inputs); its
// per-entry `error` fields stay authoritative because errors add too.
// Consumers that want a top-k view call SketchSnapshot::top(k).
//
// Cluster note: backends record LOCAL row ids. ClusterClient::heat()
// shifts each shard's sketch keys and heat ranges by the shard's global
// row_begin before merging, so the fleet view is in global id space.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace anchor::obs {

/// One sketch entry: `count` overestimates the key's true frequency by at
/// most `error` (the minimum count it inherited when it entered the
/// table; 0 for keys present since their first occurrence).
struct HeavyHitter {
  std::uint64_t key = 0;
  std::uint64_t count = 0;
  std::uint64_t error = 0;
};

/// Plain-value copy of a sketch: what the HEAT RPC carries and the router
/// merges. Entries are canonically sorted (count desc, key asc).
struct SketchSnapshot {
  std::uint64_t capacity = 0;  // tightest contributing capacity (merge: min)
  std::uint64_t total = 0;     // N: total key occurrences offered
  std::vector<HeavyHitter> entries;

  /// Exact merge: union of keys with count and error added, total added,
  /// capacity = min of the nonzero capacities, then canonical re-sort.
  /// Commutative and associative — bit-identical in any merge order.
  void merge(const SketchSnapshot& other);

  /// First k entries of the canonical order.
  std::vector<HeavyHitter> top(std::size_t k) const;
};

class SpaceSavingSketch {
 public:
  struct Config {
    /// Total entry budget, split evenly across stripes. The documented
    /// per-stripe error bound is N_stripe / (capacity / stripes).
    std::size_t capacity = 512;
    std::size_t stripes = 8;
  };

  explicit SpaceSavingSketch(Config config);
  SpaceSavingSketch(const SpaceSavingSketch&) = delete;
  SpaceSavingSketch& operator=(const SpaceSavingSketch&) = delete;

  /// Records `n` occurrences of `key`. Takes the key's stripe mutex.
  void offer(std::uint64_t key, std::uint64_t n = 1);

  /// Consistent per stripe (each stripe snapshots under its mutex);
  /// cross-stripe skew is bounded by in-flight offers, the same
  /// discipline as the WindowedStats counters.
  SketchSnapshot snapshot() const;

  std::size_t stripe_capacity() const { return stripe_capacity_; }

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::size_t> index;  // key → entry
    std::vector<HeavyHitter> entries;
    std::uint64_t total = 0;
  };

  std::size_t stripe_capacity_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// One contiguous id range's heat buckets: `buckets[i]` counts records in
/// the i-th of buckets.size() equal-width bins over [row_begin, row_end).
struct HeatRange {
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
  std::vector<std::uint64_t> buckets;
};

/// Plain-value heat map: one range per recorder slice, sorted by
/// (row_begin, row_end). Replica merges add same-range buckets; shard
/// merges concatenate disjoint ranges — both exact integer operations.
struct HeatMapSnapshot {
  std::uint64_t total = 0;
  std::uint64_t elapsed_us = 0;  // recorder uptime at capture (merge: max)
  std::vector<HeatRange> ranges;

  /// Exact merge: identical [row_begin, row_end) ranges add bucket-wise
  /// (bucket fanouts must match — throws otherwise); distinct ranges
  /// insert in canonical order. Commutative, associative, bit-identical.
  void merge(const HeatMapSnapshot& other);

  /// Adds `shift` to every range bound — how ClusterClient lifts a
  /// backend's local-id heat map into global id space.
  void shift_rows(std::uint64_t shift);

  /// Σ buckets of the range covering global row `row`, 0 if uncovered.
  std::uint64_t range_total(std::uint64_t row) const;
};

class RangeHeatMap {
 public:
  struct Config {
    std::uint64_t row_begin = 0;
    std::uint64_t row_end = 0;  // ids ≥ row_end clamp into the last bucket
    std::size_t buckets = 256;
  };

  explicit RangeHeatMap(Config config);
  RangeHeatMap(const RangeHeatMap&) = delete;
  RangeHeatMap& operator=(const RangeHeatMap&) = delete;

  /// One relaxed atomic add; ids outside the range clamp to the edge
  /// bins (an OOV-synthesized id is still load on this shard).
  void record(std::uint64_t id, std::uint64_t n = 1);

  HeatMapSnapshot snapshot() const;
  HeatMapSnapshot snapshot_at(std::uint64_t now_us) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
  std::uint64_t start_us_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> total_{0};
};

/// The two per-key recorders behind one pointer, so serving layers
/// (LookupService, ClusterClient) attribute load with a single hook.
struct KeyLoadRecorder {
  SpaceSavingSketch sketch;
  RangeHeatMap heat;

  KeyLoadRecorder(SpaceSavingSketch::Config sketch_config,
                  RangeHeatMap::Config heat_config)
      : sketch(sketch_config), heat(heat_config) {}

  void record(std::uint64_t id, std::uint64_t n = 1) {
    sketch.offer(id, n);
    heat.record(id, n);
  }
  void record_ids(const std::size_t* ids, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      record(static_cast<std::uint64_t>(ids[i]));
    }
  }
};

}  // namespace anchor::obs
