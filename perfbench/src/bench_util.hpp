// Deterministic helpers shared by the load generator and the traced run:
// a seeded RNG, a Zipf sampler, open-loop send schedules, the percentile
// and windowed-rate estimators the reported metrics come from, and an
// in-memory span recorder with self-time accounting.
//
// Everything that shapes a workload is a pure function of the seed, so
// the same --seed always sends the same keys at the same offsets.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, and identical on every platform (unlike
/// the std:: distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0)
      : state_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over n keys: the key of rank r is drawn with P ∝ 1 / (r + 1)^s.
/// Ranks map to row ids through a permutation seeded by `seed`. The demo
/// store's rows are random, so id order means nothing, and with rank r as
/// id r a store split into id ranges would put the hot keys on its first
/// shard (about 94% of draws for two halves of 50000).
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t seed) : cdf_(n), ids_(n) {
    if (n == 0) throw std::invalid_argument("Zipf needs n > 0");
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    Rng rng(seed, 2000);
    for (std::size_t r = 0; r < n; ++r) ids_[r] = r;
    for (std::size_t i = n; i > 1; --i) std::swap(ids_[i - 1], ids_[rng.below(i)]);
  }

  std::size_t sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return ids_[std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                      cdf_.size() - 1)];
  }
  /// The row id of rank r, and the probability of drawing it.
  std::size_t id(std::size_t r) const { return ids_[r]; }
  double probability(std::size_t r) const {
    return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> ids_;
};

/// Due times (ns after the phase start) for one open-loop sender running
/// at `rate` requests/s for `duration_s`. Gaps are the mean gap scaled by
/// a seeded uniform factor in [0.5, 1.5): the mean rate is exact while
/// senders drift out of phase, and no gap is short enough to queue a
/// request behind its predecessor at a third of capacity.
inline std::vector<std::int64_t> open_loop_schedule(std::uint64_t seed,
                                                    std::uint64_t sender,
                                                    double rate,
                                                    double duration_s) {
  if (!(rate > 0.0)) throw std::invalid_argument("rate must be positive");
  Rng rng(seed, 1000 + sender);
  const double mean_ns = 1e9 / rate;
  const double end_ns = duration_s * 1e9;
  std::vector<std::int64_t> due;
  double t = rng.uniform() * mean_ns;  // random phase for the first send
  while (t < end_ns) {
    due.push_back(static_cast<std::int64_t>(t));
    t += mean_ns * (0.5 + rng.uniform());
  }
  return due;
}

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it. Failed requests enter as +infinity, so they count as
/// missing any latency limit. Returns NaN for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Completions (timestamp ns, units of work) bucketed into consecutive
/// windows of `window_ns` over [begin_ns, end_ns); returns each window's
/// rate in units/s. A trailing partial window is dropped. Throughput is the
/// median of these, so one stalled window moves it by at most one rank.
inline std::vector<double> window_rates(
    const std::vector<std::pair<std::int64_t, double>>& events,
    std::int64_t begin_ns, std::int64_t end_ns, std::int64_t window_ns) {
  if (window_ns <= 0 || end_ns - begin_ns < window_ns) {
    throw std::invalid_argument("need at least one whole window");
  }
  const std::size_t windows =
      static_cast<std::size_t>((end_ns - begin_ns) / window_ns);
  std::vector<double> sums(windows, 0.0);
  for (const auto& [t, units] : events) {
    if (t < begin_ns) continue;
    const std::size_t w = static_cast<std::size_t>((t - begin_ns) / window_ns);
    if (w < windows) sums[w] += units;
  }
  for (double& s : sums) s *= 1e9 / static_cast<double>(window_ns);
  return sums;
}

/// (due time ns, latency) samples bucketed into consecutive windows of
/// `window_ns` over [begin_ns, end_ns); returns each non-empty window's
/// q-percentile. A trailing partial window is dropped. The reported latency
/// is the median of these, so a host stall that spoils one window moves it
/// by at most one rank.
inline std::vector<double> window_percentiles(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t begin_ns, std::int64_t end_ns, std::int64_t window_ns,
    double q) {
  if (window_ns <= 0) throw std::invalid_argument("window must be positive");
  const std::size_t windows =
      end_ns > begin_ns ? static_cast<std::size_t>((end_ns - begin_ns) / window_ns) : 0;
  std::vector<std::vector<double>> by_window(windows);
  for (const auto& [t, latency] : samples) {
    if (t < begin_ns) continue;
    const std::size_t w = static_cast<std::size_t>((t - begin_ns) / window_ns);
    if (w < windows) by_window[w].push_back(latency);
  }
  std::vector<double> out;
  for (auto& v : by_window) {
    if (!v.empty()) out.push_back(percentile(std::move(v), q));
  }
  return out;
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call. `parent` is the id of the enclosing span (0 = root);
/// spans of one logical operation share `request`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, in the same order: its duration minus the
/// part of its interval covered by the union of its children (children may
/// overlap each other, e.g. two measures computed concurrently, and may
/// stick out past the parent; only the covered part inside counts).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span& c : spans) {
      if (c.parent != p.id || c.id == p.id) continue;
      const std::int64_t b = std::max(c.start_ns, p.start_ns);
      const std::int64_t e = std::min(c.end_ns, p.end_ns);
      if (b < e) kids.emplace_back(b, e);
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : kids) {
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) covered += cur_e - cur_b;
    out[i] = (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

/// Thread-safe in-memory span store; nothing is written until the owner
/// dumps spans() at the end of the run.
class SpanRecorder {
 public:
  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = std::move(name);
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void end(std::uint64_t id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id - 1).end_ns = t;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t parent,
             std::uint64_t request)
      : rec_(rec), id_(rec.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

}  // namespace perfbench
