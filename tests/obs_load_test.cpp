// Tests for the load & drift telemetry plane: the windowed (rolling-rate)
// stats ring with its merge contract and SLO burn-rate monitor, the
// Space-Saving heavy-hitter sketch with its documented error bound, the
// per-id-range heat map, and the continuous drift probe against a pinned
// reference panel.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "embed/embedding.hpp"
#include "obs/drift_probe.hpp"
#include "obs/heavy_hitters.hpp"
#include "obs/load_plane.hpp"
#include "obs/metrics.hpp"
#include "obs/windowed.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::obs {
namespace {

// A fixed base time far from epoch 0 so trailing windows never clamp.
constexpr std::uint64_t kT0 = 1'700'000'000'000'000ull;

void expect_slices_equal(const WindowedSnapshot& a, const WindowedSnapshot& b) {
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    EXPECT_EQ(a.slices[i].epoch, b.slices[i].epoch) << "slice " << i;
    EXPECT_EQ(a.slices[i].requests, b.slices[i].requests) << "slice " << i;
    EXPECT_EQ(a.slices[i].errors, b.slices[i].errors) << "slice " << i;
    EXPECT_EQ(a.slices[i].latency.counts, b.slices[i].latency.counts)
        << "slice " << i;
    EXPECT_EQ(a.slices[i].latency.count, b.slices[i].latency.count);
    EXPECT_EQ(a.slices[i].latency.sum_units, b.slices[i].latency.sum_units);
  }
}

// ---- WindowedStats -----------------------------------------------------

TEST(Windowed, TrailingWindowsSeeOnlyRecentSlices) {
  WindowedConfig cfg;
  cfg.slice_us = 1'000'000;  // 1 s slices
  cfg.num_slices = 16;
  WindowedStats w(cfg);
  // 5 requests 30 s ago, 10 requests 3 s ago, 2 requests now.
  w.record_many_at(kT0 - 30'000'000, 100.0, 5, 1);
  w.record_many_at(kT0 - 3'000'000, 200.0, 10, 0);
  w.record_many_at(kT0, 400.0, 2, 0);
  const WindowedSnapshot s = w.snapshot_at(kT0);
  // The 30 s-old slice fell out of the 16-slice ring horizon entirely.
  EXPECT_EQ(s.requests_in(10'000'000), 12u);
  EXPECT_EQ(s.requests_in(60'000'000), 12u);
  EXPECT_EQ(s.errors_in(60'000'000), 0u);
  // 2-second window: only the "now" slice overlaps (plus edge slices by
  // design; 3 s ago is outside a 2 s trailing window).
  EXPECT_EQ(s.requests_in(1'500'000), 2u);
  EXPECT_NEAR(s.qps(10'000'000), 1.2, 1e-12);
  EXPECT_EQ(s.latency_in(10'000'000).count, 12u);
}

TEST(Windowed, RingReusesSlotsAfterAFullRotation) {
  WindowedConfig cfg;
  cfg.slice_us = 1'000'000;
  cfg.num_slices = 4;
  WindowedStats w(cfg);
  w.record_many_at(kT0, 50.0, 7, 0);
  // One full ring later the same slot holds the new epoch; the old slice
  // is gone from the snapshot even with a generous window.
  const std::uint64_t later = kT0 + cfg.slice_us * cfg.num_slices;
  w.record_many_at(later, 60.0, 3, 0);
  const WindowedSnapshot s = w.snapshot_at(later);
  ASSERT_EQ(s.slices.size(), 1u);
  EXPECT_EQ(s.slices[0].epoch, later / cfg.slice_us);
  EXPECT_EQ(s.requests_in(3'600'000'000ull), 3u);
}

TEST(Windowed, MergeEqualsSingleRecorderBitIdentical) {
  WindowedConfig cfg;
  cfg.slice_us = 1'000'000;
  cfg.num_slices = 16;
  WindowedStats a(cfg), b(cfg), all(cfg);
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t t = kT0 - (rng.next_u64() % 12) * 1'000'000;
    const double latency = 10.0 + static_cast<double>(rng.next_u64() % 5000);
    const bool err = rng.next_u64() % 16 == 0;
    (i % 2 == 0 ? a : b).record_many_at(t, latency, 1, err ? 1 : 0);
    all.record_many_at(t, latency, 1, err ? 1 : 0);
  }
  WindowedSnapshot left = a.snapshot_at(kT0);
  left.merge(b.snapshot_at(kT0));
  const WindowedSnapshot reference = all.snapshot_at(kT0);
  expect_slices_equal(left, reference);
  // Opposite merge order is bit-identical (commutativity), and the
  // derived rates agree exactly.
  WindowedSnapshot right = b.snapshot_at(kT0);
  right.merge(a.snapshot_at(kT0));
  expect_slices_equal(right, reference);
  EXPECT_EQ(left.requests_in(10'000'000), reference.requests_in(10'000'000));
  EXPECT_EQ(left.latency_in(60'000'000).sum_units,
            reference.latency_in(60'000'000).sum_units);
}

TEST(Windowed, MergeRejectsSliceWidthMismatchButAdoptsIntoEmpty) {
  WindowedConfig fine;
  fine.slice_us = 1'000'000;
  WindowedConfig coarse;
  coarse.slice_us = 5'000'000;
  WindowedStats a(fine), b(coarse);
  a.record_many_at(kT0, 10.0, 1, 0);
  b.record_many_at(kT0, 10.0, 1, 0);
  WindowedSnapshot sa = a.snapshot_at(kT0);
  EXPECT_THROW(sa.merge(b.snapshot_at(kT0)), std::runtime_error);
  // An empty accumulator (the router's starting point) adopts the first
  // snapshot's slice width instead of throwing.
  WindowedSnapshot acc;
  acc.merge(b.snapshot_at(kT0));
  EXPECT_EQ(acc.slice_us, coarse.slice_us);
  EXPECT_EQ(acc.requests_in(60'000'000), 1u);
}

TEST(Windowed, UnsampledRequestsCountWithoutFakeLatency) {
  WindowedConfig cfg;
  cfg.slice_us = 1'000'000;
  WindowedStats w(cfg);
  w.record_many_at(kT0, -1.0, 100, 2);  // record_unsampled's path
  w.record_many_at(kT0, 50.0, 1, 0);
  const WindowedSnapshot s = w.snapshot_at(kT0);
  EXPECT_EQ(s.requests_in(10'000'000), 101u);
  EXPECT_EQ(s.errors_in(10'000'000), 2u);
  // Only the sampled request reached the histogram — no fake zeroes
  // dragging the quantiles down.
  EXPECT_EQ(s.latency_in(10'000'000).count, 1u);
  EXPECT_EQ(s.latency_in(10'000'000).quantile(0.5), 50.0);
}

TEST(Windowed, TotalKeepsOneLatencySamplePerRecordAndOutlivesTheRing) {
  WindowedConfig cfg;
  cfg.slice_us = 1'000'000;
  cfg.num_slices = 4;
  WindowedStats w(cfg);
  // A coalesced batch: 10 requests, one of them an error, one latency.
  w.record_many_at(kT0, 100.0, 10, 1);
  // The slice weights the latency by requests (per-request SLO burn);
  // the total keeps one sample for the one record call.
  EXPECT_EQ(w.snapshot_at(kT0).latency_in(10'000'000).count, 10u);
  EXPECT_EQ(w.totals().latency.count, 1u);

  w.record_many_at(kT0 + 1'000'000, -1.0, 5, 0);  // unsampled batch
  w.record_many_at(kT0 + 10'000'000, 200.0, 1, 0);
  w.record_many_at(kT0 + 10'000'000, 300.0, 0, 0);  // empty: no record
  const WindowedTotals t = w.totals();
  EXPECT_EQ(t.records, 3u);
  EXPECT_EQ(t.requests, 16u);
  EXPECT_EQ(t.errors, 1u);
  EXPECT_EQ(t.latency.count, 2u);
  EXPECT_EQ(t.latency.quantile(0.5), 100.0);
  EXPECT_EQ(t.latency.quantile(0.99), 200.0);
  EXPECT_GE(t.elapsed_seconds, 0.0);
  // The first two slices left the 4-slice ring; the total kept them.
  EXPECT_EQ(w.snapshot_at(kT0 + 10'000'000).requests_in(3'600'000'000ull),
            1u);

  // reset() zeroes the total only; the ring is wall-clock history.
  w.reset();
  const WindowedTotals zero = w.totals();
  EXPECT_EQ(zero.records, 0u);
  EXPECT_EQ(zero.requests, 0u);
  EXPECT_EQ(zero.errors, 0u);
  EXPECT_EQ(zero.latency.count, 0u);
  EXPECT_EQ(w.snapshot_at(kT0 + 10'000'000).requests_in(3'600'000'000ull),
            1u);
}

TEST(Windowed, RecordSinceTimesFromItsWallClockStart) {
  WindowedStats w;
  const auto start =
      std::chrono::system_clock::now() - std::chrono::milliseconds(2);
  w.record_since(start, 3, 1);
  const WindowedTotals t = w.totals();
  EXPECT_EQ(t.records, 1u);
  EXPECT_EQ(t.requests, 3u);
  EXPECT_EQ(t.errors, 1u);
  ASSERT_EQ(t.latency.count, 1u);
  EXPECT_GE(t.latency.min(), 2000.0);
  // The end reading doubles as the slice epoch: the record is in the
  // current window.
  const WindowedSnapshot s = w.snapshot();
  EXPECT_EQ(s.requests_in(60'000'000), 3u);
  EXPECT_EQ(s.errors_in(60'000'000), 1u);
}

TEST(Windowed, ConcurrentRecordersNeverLoseRequests) {
  WindowedConfig cfg;
  cfg.slice_us = 1000;  // 1 ms slices: rotations happen during the test
  cfg.num_slices = 64;
  WindowedStats w(cfg);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&w] {
      for (int i = 0; i < kPerThread; ++i) {
        w.record(static_cast<double>(i % 300), i % 100 == 0);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  // 64 × 1 ms of history comfortably covers the burst; every record must
  // be present (rotation resets only strictly-older epochs).
  const WindowedSnapshot s = w.snapshot();
  EXPECT_EQ(s.requests_in(3'600'000'000ull),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- count_over + SloMonitor -------------------------------------------

TEST(Windowed, CountOverCountsBucketsAtOrAboveThreshold) {
  LogHistogram h;
  for (int i = 0; i < 10; ++i) h.record(64.0);   // exact bucket bound
  for (int i = 0; i < 5; ++i) h.record(2048.0);  // exact bucket bound
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(count_over(s, 64.0), 15u);
  // Resolution is one log bucket: 65 shares 64's bucket, so the bucket's
  // population still counts (the documented overcount). A threshold in a
  // strictly higher bucket excludes it.
  EXPECT_EQ(count_over(s, 65.0), 15u);
  EXPECT_EQ(count_over(s, 128.0), 5u);
  EXPECT_EQ(count_over(s, 2048.0), 5u);
  EXPECT_EQ(count_over(s, 4096.0), 0u);
  EXPECT_EQ(count_over(HistogramSnapshot{}, 1.0), 0u);
}

TEST(Slo, BurnRatesAndAlertStates) {
  WindowedConfig cfg;
  cfg.slice_us = 1'000'000;
  cfg.num_slices = 80;  // ring must cover the 60 s long window
  SloConfig slo;
  slo.p99_target_us = 1000.0;
  slo.error_budget = 0.01;
  const SloMonitor monitor(slo);

  // Healthy: everything fast, no errors → burn 0, alert 0.
  WindowedStats healthy(cfg);
  healthy.record_many_at(kT0, 100.0, 1000, 0);
  SloState st = monitor.evaluate(healthy.snapshot_at(kT0));
  EXPECT_EQ(st.alert, 0);
  EXPECT_EQ(st.short_burn, 0.0);
  EXPECT_EQ(st.long_burn, 0.0);

  // 2% of requests breach the latency target: burn 2 in both windows →
  // warn (≥ 1) but not page (< 10).
  WindowedStats warm(cfg);
  warm.record_many_at(kT0, 100.0, 980, 0);
  warm.record_many_at(kT0, 5000.0, 20, 0);
  st = monitor.evaluate(warm.snapshot_at(kT0));
  EXPECT_EQ(st.alert, 1);
  EXPECT_NEAR(st.short_burn, 2.0, 1e-9);
  EXPECT_NEAR(st.long_burn, 2.0, 1e-9);

  // Hard outage: every request errors → burn 100 → page.
  WindowedStats dead(cfg);
  dead.record_many_at(kT0, 100.0, 500, 500);
  st = monitor.evaluate(dead.snapshot_at(kT0));
  EXPECT_EQ(st.alert, 2);
  EXPECT_NEAR(st.short_burn, 100.0, 1e-9);

  // A spike ONLY in the short window does not page: the long window has
  // 60 s of older healthy traffic diluting it below the page threshold.
  WindowedStats spiky(cfg);
  spiky.record_many_at(kT0 - 40'000'000, 100.0, 100'000, 0);
  spiky.record_many_at(kT0, 100.0, 100, 100);
  st = monitor.evaluate(spiky.snapshot_at(kT0));
  EXPECT_GE(st.short_burn, 10.0);
  EXPECT_LT(st.long_burn, 10.0);
  EXPECT_LT(st.alert, 2);
}

// ---- SpaceSavingSketch -------------------------------------------------

TEST(Sketch, ErrorBoundAndHeavyHitterRecovery) {
  SpaceSavingSketch::Config cfg;
  cfg.capacity = 64;
  cfg.stripes = 1;  // single stripe: the textbook N/capacity bound applies
  SpaceSavingSketch sketch(cfg);

  constexpr std::uint64_t kHeavy = 16;
  constexpr std::uint64_t kHeavyCount = 500;
  Rng rng(23);
  std::vector<std::uint64_t> offers;
  for (std::uint64_t k = 0; k < kHeavy; ++k) {
    for (std::uint64_t i = 0; i < kHeavyCount; ++i) offers.push_back(k);
  }
  for (std::uint64_t i = 0; i < 6400; ++i) {
    offers.push_back(1000 + rng.next_u64() % 3200);  // long noise tail
  }
  std::shuffle(offers.begin(), offers.end(), std::mt19937_64(7));
  for (const std::uint64_t k : offers) sketch.offer(k);

  const SketchSnapshot s = sketch.snapshot();
  EXPECT_EQ(s.total, offers.size());
  EXPECT_EQ(s.capacity, 64u);
  const std::uint64_t bound = s.total / s.capacity;  // N / capacity
  for (const HeavyHitter& e : s.entries) {
    EXPECT_LE(e.error, bound) << "key " << e.key;
    EXPECT_LE(e.count, s.total);
  }
  // Every true heavy hitter (count 500 > bound) must be present, with an
  // estimate in [true, true + error], and must dominate the top-16.
  const auto top = s.top(kHeavy);
  ASSERT_EQ(top.size(), kHeavy);
  for (const HeavyHitter& e : top) {
    EXPECT_LT(e.key, kHeavy) << "noise key in the top-" << kHeavy;
    EXPECT_GE(e.count, kHeavyCount);
    EXPECT_LE(e.count - e.error, kHeavyCount);
  }
}

TEST(Sketch, MergeIsCommutativeAssociativeBitIdentical) {
  SpaceSavingSketch::Config cfg;
  cfg.capacity = 32;
  cfg.stripes = 4;
  SpaceSavingSketch s1(cfg), s2(cfg), s3(cfg);
  Rng rng(31);
  for (int i = 0; i < 4000; ++i) {
    s1.offer(rng.next_u64() % 50);
    s2.offer(rng.next_u64() % 80);
    s3.offer(rng.next_u64() % 20, 1 + rng.next_u64() % 3);
  }
  // (1 ⊕ 2) ⊕ 3  vs  3 ⊕ (2 ⊕ 1)
  SketchSnapshot left = s1.snapshot();
  left.merge(s2.snapshot());
  left.merge(s3.snapshot());
  SketchSnapshot inner = s2.snapshot();
  inner.merge(s1.snapshot());
  SketchSnapshot right = s3.snapshot();
  right.merge(inner);
  EXPECT_EQ(left.total, right.total);
  EXPECT_EQ(left.capacity, right.capacity);
  ASSERT_EQ(left.entries.size(), right.entries.size());
  for (std::size_t i = 0; i < left.entries.size(); ++i) {
    EXPECT_EQ(left.entries[i].key, right.entries[i].key) << "entry " << i;
    EXPECT_EQ(left.entries[i].count, right.entries[i].count);
    EXPECT_EQ(left.entries[i].error, right.entries[i].error);
  }
  // Canonical order: count descending, key ascending on ties.
  for (std::size_t i = 1; i < left.entries.size(); ++i) {
    const HeavyHitter& prev = left.entries[i - 1];
    const HeavyHitter& cur = left.entries[i];
    EXPECT_TRUE(prev.count > cur.count ||
                (prev.count == cur.count && prev.key < cur.key))
        << "entry " << i;
  }
  // Merging an empty snapshot is the identity.
  SketchSnapshot id = left;
  id.merge(SketchSnapshot{});
  EXPECT_EQ(id.entries.size(), left.entries.size());
  EXPECT_EQ(id.total, left.total);
  EXPECT_EQ(id.capacity, left.capacity);
}

// ---- RangeHeatMap ------------------------------------------------------

TEST(Heat, MergeEqualsSingleRecorder) {
  RangeHeatMap::Config cfg;
  cfg.row_begin = 0;
  cfg.row_end = 1000;
  cfg.buckets = 16;
  RangeHeatMap a(cfg), b(cfg), all(cfg);
  Rng rng(41);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t id = rng.next_u64() % 1000;
    (i % 2 == 0 ? a : b).record(id);
    all.record(id);
  }
  HeatMapSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HeatMapSnapshot reference = all.snapshot();
  EXPECT_EQ(merged.total, reference.total);
  ASSERT_EQ(merged.ranges.size(), 1u);
  ASSERT_EQ(reference.ranges.size(), 1u);
  EXPECT_EQ(merged.ranges[0].row_begin, 0u);
  EXPECT_EQ(merged.ranges[0].row_end, 1000u);
  EXPECT_EQ(merged.ranges[0].buckets, reference.ranges[0].buckets);
}

TEST(Heat, ShiftRowsLiftsDisjointShardsIntoGlobalSpace) {
  RangeHeatMap::Config lo;
  lo.row_begin = 0;
  lo.row_end = 100;
  lo.buckets = 4;
  RangeHeatMap shard0(lo), shard1(lo);  // both record in LOCAL id space
  shard0.record(10, 5);
  shard1.record(10, 7);

  HeatMapSnapshot s0 = shard0.snapshot();
  HeatMapSnapshot s1 = shard1.snapshot();
  s1.shift_rows(100);  // shard 1 owns global rows [100, 200)
  HeatMapSnapshot fleet = s0;
  fleet.merge(s1);
  ASSERT_EQ(fleet.ranges.size(), 2u);
  EXPECT_EQ(fleet.ranges[0].row_begin, 0u);
  EXPECT_EQ(fleet.ranges[1].row_begin, 100u);
  EXPECT_EQ(fleet.ranges[1].row_end, 200u);
  EXPECT_EQ(fleet.total, 12u);
  EXPECT_EQ(fleet.range_total(50), 5u);
  EXPECT_EQ(fleet.range_total(150), 7u);
  EXPECT_EQ(fleet.range_total(999), 0u);  // uncovered global row
}

TEST(Heat, OutOfRangeIdsClampToEdgeBuckets) {
  RangeHeatMap::Config cfg;
  cfg.row_begin = 100;
  cfg.row_end = 200;
  cfg.buckets = 10;
  RangeHeatMap heat(cfg);
  heat.record(5);     // below the range → first bucket
  heat.record(9999);  // above the range → last bucket
  heat.record(150);
  const HeatMapSnapshot s = heat.snapshot();
  ASSERT_EQ(s.ranges.size(), 1u);
  EXPECT_EQ(s.ranges[0].buckets.front(), 1u);
  EXPECT_EQ(s.ranges[0].buckets.back(), 1u);
  EXPECT_EQ(s.total, 3u);
}

TEST(Heat, MergeRejectsMismatchedBucketFanout) {
  RangeHeatMap::Config a;
  a.row_end = 100;
  a.buckets = 4;
  RangeHeatMap::Config b = a;
  b.buckets = 8;
  RangeHeatMap ha(a), hb(b);
  ha.record(1);
  hb.record(1);
  HeatMapSnapshot sa = ha.snapshot();
  EXPECT_THROW(sa.merge(hb.snapshot()), std::runtime_error);
}

// ---- KeyLoadRecorder ---------------------------------------------------

TEST(KeyLoad, RecorderFeedsBothSketchAndHeat) {
  SpaceSavingSketch::Config sc;
  sc.capacity = 16;
  sc.stripes = 1;
  RangeHeatMap::Config hc;
  hc.row_end = 64;
  hc.buckets = 8;
  KeyLoadRecorder rec(sc, hc);
  const std::size_t ids[] = {3, 3, 3, 40};
  rec.record_ids(ids, 4);
  const SketchSnapshot s = rec.sketch.snapshot();
  EXPECT_EQ(s.total, 4u);
  ASSERT_FALSE(s.entries.empty());
  EXPECT_EQ(s.entries[0].key, 3u);
  EXPECT_EQ(s.entries[0].count, 3u);
  EXPECT_EQ(rec.heat.snapshot().total, 4u);
  EXPECT_EQ(rec.heat.snapshot().range_total(3), 4u);
}

// ---- load-plane export -------------------------------------------------

TEST(LoadPlane, ExportsPrefixedSeriesAndZeroesAStaleTopKeyRank) {
  EXPECT_EQ(make_key_load_recorder(/*capacity=*/0, 64, 8), nullptr);
  const auto load = make_key_load_recorder(/*capacity=*/16, 64, 8);
  ASSERT_NE(load, nullptr);
  WindowedStats windowed;
  const SloMonitor slo;
  MetricsRegistry reg;
  export_load_plane(reg, "x_", windowed, slo, load.get());
  windowed.record(100.0, /*error=*/false);
  for (int i = 0; i < 3; ++i) load->record(7);

  const auto find = [](const MetricsReport& r,
                       const std::string& name) -> const MetricValue* {
    for (const MetricValue& m : r.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const MetricsReport first = reg.snapshot();
  for (const char* name :
       {"x_window_qps_10s", "x_window_qps_1m", "x_window_error_rate_1m",
        "x_window_p99_us_1m", "x_slo_burn_short", "x_slo_burn_long",
        "x_slo_alert_state", "x_key_load_records_total",
        "x_heat_bucket_total{bucket=\"0\"}", "x_heat_buckets_populated"}) {
    EXPECT_NE(find(first, name), nullptr) << name;
  }
  const MetricValue* hot = find(first, "x_top_key_count{rank=\"0\",id=\"7\"}");
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->gauge, 3.0);

  // Id 9 overtakes id 7 at rank 0: id 7's rank-0 series must read 0 rather
  // than keep claiming the rank.
  for (int i = 0; i < 5; ++i) load->record(9);
  const MetricsReport second = reg.snapshot();
  const MetricValue* top = find(second, "x_top_key_count{rank=\"0\",id=\"9\"}");
  const MetricValue* stale =
      find(second, "x_top_key_count{rank=\"0\",id=\"7\"}");
  const MetricValue* moved =
      find(second, "x_top_key_count{rank=\"1\",id=\"7\"}");
  ASSERT_NE(top, nullptr);
  ASSERT_NE(stale, nullptr);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(top->gauge, 5.0);
  EXPECT_EQ(stale->gauge, 0.0);
  EXPECT_EQ(moved->gauge, 3.0);
  EXPECT_EQ(find(second, "x_key_load_records_total")->counter, 8u);
}

// ---- DriftProbe --------------------------------------------------------

embed::Embedding random_embedding(std::size_t vocab, std::size_t dim,
                                  std::uint64_t seed) {
  embed::Embedding e(vocab, dim);
  Rng rng(seed);
  for (auto& x : e.data) {
    x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return e;
}

TEST(Drift, SameSnapshotScoresPerfectAgreement) {
  serve::EmbeddingStore store;
  store.add_version("v1", random_embedding(64, 8, 5));
  DriftProbeConfig cfg;
  cfg.probe_rows = 32;
  cfg.knn_k = 4;
  DriftProbe probe(store, cfg);
  EXPECT_EQ(probe.reference_version(), "v1");
  const DriftSample s = probe.run_once();
  EXPECT_TRUE(s.same_snapshot);
  EXPECT_EQ(s.topk_agreement, 1.0);
  EXPECT_NEAR(s.displacement_p95, 0.0, 1e-9);  // 1 − cos: float epsilon
  EXPECT_EQ(s.probes, 32u);
}

TEST(Drift, ScrambledSnapshotSwapMovesTheGauges) {
  const embed::Embedding base = random_embedding(64, 8, 6);
  serve::EmbeddingStore store;
  store.add_version("v1", base);

  DriftProbeConfig cfg;
  cfg.probe_rows = 48;
  cfg.knn_k = 4;
  DriftProbe probe(store, cfg);
  MetricsRegistry registry;
  probe.register_metrics(registry);
  probe.run_once();
  const auto gauge_of = [&](const std::string& name) {
    for (const MetricValue& m : registry.snapshot().metrics) {
      if (m.name == name) return m.gauge;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return -1.0;
  };
  EXPECT_EQ(gauge_of("anchor_drift_topk_agreement"), 1.0);
  EXPECT_NEAR(gauge_of("anchor_drift_displacement_p95"), 0.0, 1e-9);

  // Swap in a row-scrambled snapshot: every probe row now holds some
  // other row's vector, so per-row cosine collapses and the own-space
  // neighborhoods shuffle. The continuous probe must see it immediately.
  embed::Embedding scrambled = base;
  const std::size_t dim = base.dim;
  const std::size_t vocab = base.vocab_size;
  for (std::size_t r = 0; r < vocab; ++r) {
    const std::size_t src = (r + vocab / 2) % vocab;
    for (std::size_t d = 0; d < dim; ++d) {
      scrambled.data[r * dim + d] = base.data[src * dim + d];
    }
  }
  store.add_version("v2", scrambled);
  store.set_live("v2");

  const DriftSample after = probe.run_once();
  EXPECT_FALSE(after.same_snapshot);
  EXPECT_EQ(after.live_version, "v2");
  EXPECT_LT(after.topk_agreement, 0.5);
  EXPECT_GT(after.displacement_p95, 0.5);
  EXPECT_EQ(gauge_of("anchor_drift_topk_agreement"), after.topk_agreement);
  EXPECT_EQ(gauge_of("anchor_drift_displacement_p95"),
            after.displacement_p95);
  ASSERT_NE(after.topk_agreement, 1.0);
}

TEST(Drift, PureRotationScoresAsNoDrift) {
  // A 2-D 90° rotation: all pairwise geometry is preserved, so the
  // own-space top-k agreement must stay 1.0 even though every individual
  // vector moved (displacement is large). This is what separates the
  // agreement gauge from the displacement gauge.
  const std::size_t vocab = 40;
  embed::Embedding base = random_embedding(vocab, 2, 9);
  embed::Embedding rotated(vocab, 2);
  for (std::size_t r = 0; r < vocab; ++r) {
    const float x = base.data[r * 2], y = base.data[r * 2 + 1];
    rotated.data[r * 2] = -y;
    rotated.data[r * 2 + 1] = x;
  }
  serve::EmbeddingStore store;
  store.add_version("v1", base);
  DriftProbeConfig cfg;
  cfg.probe_rows = 24;
  cfg.knn_k = 3;
  DriftProbe probe(store, cfg);
  store.add_version("v2", rotated);
  store.set_live("v2");
  const DriftSample s = probe.run_once();
  EXPECT_FALSE(s.same_snapshot);
  EXPECT_EQ(s.topk_agreement, 1.0);
  EXPECT_GT(s.displacement_p95, 0.5);  // 90°: 1 − cos = 1
}

TEST(Drift, EmptyStoreIsInert) {
  serve::EmbeddingStore store;
  DriftProbeConfig cfg;
  cfg.interval_ms = 1;  // even with a period, no reference → no thread
  DriftProbe probe(store, cfg);
  probe.start();
  const DriftSample s = probe.run_once();
  EXPECT_EQ(s.probes, 0u);
  probe.stop();
}

}  // namespace
}  // namespace anchor::obs
