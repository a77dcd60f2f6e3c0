// Tests of the benchmark's own estimators and generators.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace perfbench {
namespace {

TEST(Percentile, MatchesNearestRankOnSortedReference) {
  Rng rng(3);
  for (std::size_t n : {1u, 2u, 7u, 100u, 1001u}) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform() * 1000.0;
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
      if (rank == 0) rank = 1;
      EXPECT_EQ(percentile(v, q), sorted[rank - 1]) << "n=" << n << " q=" << q;
    }
  }
}

TEST(Percentile, FailuresCountAsMissingEveryLimit) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(percentile({1, 2, 3, inf}, 0.5), 2.0);
  EXPECT_EQ(percentile({1, inf, inf, inf}, 0.5), inf);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Zipf, SameSeedSameKeysAndSkewed) {
  const Zipf z(1000, 1.0, 5);
  Rng a(42), b(42), c(43);
  std::vector<std::size_t> xa, xb, xc;
  for (int i = 0; i < 2000; ++i) {
    xa.push_back(z.sample(a));
    xb.push_back(z.sample(b));
    xc.push_back(z.sample(c));
  }
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
  std::map<std::size_t, int> freq;
  for (auto k : xa) {
    ASSERT_LT(k, 1000u);
    ++freq[k];
  }
  // P(rank 0) = 1/H(1000) ≈ 0.134; rank 0 must dominate rank 9 about 10:1.
  EXPECT_NEAR(z.probability(0), 1.0 / 7.4855, 1e-3);
  EXPECT_GT(freq[z.id(0)], 5 * freq[z.id(9)]);
}

TEST(Zipf, RankToIdIsASeededPermutation) {
  const std::size_t n = 50000;
  const Zipf z(n, 1.0, 5), same(n, 1.0, 5), other(n, 1.0, 6);
  std::vector<std::size_t> ids(n);
  bool differs = false;
  for (std::size_t r = 0; r < n; ++r) {
    ids[r] = z.id(r);
    EXPECT_EQ(ids[r], same.id(r));
    differs |= ids[r] != other.id(r);
  }
  EXPECT_TRUE(differs);
  std::sort(ids.begin(), ids.end());
  for (std::size_t r = 0; r < n; ++r) ASSERT_EQ(ids[r], r);
  // Two id-range halves get about equal load, not 94% on the first.
  Rng rng(1);
  int low = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) low += z.sample(rng) < n / 2;
  EXPECT_GT(low, draws / 4);
  EXPECT_LT(low, 3 * draws / 4);
}

TEST(Schedule, SameSeedSameScheduleAndMeanRate) {
  const auto a = open_loop_schedule(9, 0, 1000.0, 2.0);
  const auto b = open_loop_schedule(9, 0, 1000.0, 2.0);
  const auto other_sender = open_loop_schedule(9, 1, 1000.0, 2.0);
  const auto other_seed = open_loop_schedule(10, 0, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other_sender);
  EXPECT_NE(a, other_seed);
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 80.0);
  for (std::size_t i = 1; i < a.size(); ++i) {
    const auto gap = a[i] - a[i - 1];
    EXPECT_GE(gap, 500'000);    // 0.5 × the 1 ms mean gap
    EXPECT_LT(gap, 1'500'001);  // 1.5 × the mean gap
  }
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 2'000'000'000);
}

TEST(WindowRate, MedianOfWholeWindowsIgnoresOneStall) {
  // 10 windows of 100 ms; 10 units per window except one stalled window.
  std::vector<std::pair<std::int64_t, double>> ev;
  for (int w = 0; w < 10; ++w) {
    const int n = w == 4 ? 1 : 10;
    for (int i = 0; i < n; ++i) ev.emplace_back(w * 100'000'000LL + i * 1000, 1.0);
  }
  // An event past the last whole window and one before the start are dropped.
  ev.emplace_back(1'050'000'000LL, 1000.0);
  ev.emplace_back(-5, 1000.0);
  const auto rates = window_rates(ev, 0, 1'050'000'000LL, 100'000'000LL);
  ASSERT_EQ(rates.size(), 10u);
  EXPECT_DOUBLE_EQ(rates[4], 10.0);
  EXPECT_DOUBLE_EQ(median(rates), 100.0);
  EXPECT_THROW(window_rates(ev, 0, 10, 100), std::invalid_argument);
}

TEST(WindowPercentiles, PerWindowNearestRankSkippingEmptyAndPartial) {
  std::vector<std::pair<std::int64_t, double>> samples;
  // [0,1000) holds 1..10; [1000,2000) holds 101..110 plus a failure;
  // [2000,3000) is empty; 3100 falls in the dropped partial window and -5
  // before the start.
  for (int i = 10; i >= 1; --i) samples.emplace_back(i, i);
  for (int i = 1; i <= 10; ++i) samples.emplace_back(1000 + i, 100 + i);
  samples.emplace_back(1500, std::numeric_limits<double>::infinity());
  samples.emplace_back(3100, 5.0);
  samples.emplace_back(-5, 5.0);
  const auto p50 = window_percentiles(samples, 0, 3500, 1000, 0.5);
  ASSERT_EQ(p50.size(), 2u);
  EXPECT_EQ(p50[0], 5.0);
  EXPECT_EQ(p50[1], 106.0);
  const auto p90 = window_percentiles(samples, 0, 3500, 1000, 0.9);
  EXPECT_EQ(p90[0], 9.0);
  EXPECT_EQ(p90[1], 110.0);
  EXPECT_EQ(window_percentiles(samples, 0, 3500, 1000, 1.0)[1],
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(window_percentiles(samples, 0, 999, 1000, 0.5).empty());
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // parent [0,100); children [10,40) and [30,60) overlap; [90,120) sticks out.
  // Grandchild [15,20) belongs to child 2 only.
  std::vector<Span> spans = {
      {1, 0, 1, "parent", 0, 100},
      {2, 1, 1, "a", 10, 40},
      {3, 1, 1, "b", 30, 60},
      {4, 1, 1, "c", 90, 120},
      {5, 2, 1, "a.child", 15, 20},
      {6, 0, 2, "other", 0, 50},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);  // union [10,60) + [90,100)
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
  EXPECT_EQ(self[5], 50);
}

TEST(SpanRecorder, NestedScopesRecordParentAndOrder) {
  SpanRecorder rec;
  {
    ScopedSpan outer(rec, "outer", 0, 7);
    ScopedSpan inner(rec, "inner", outer.id(), 7);
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

}  // namespace
}  // namespace perfbench
