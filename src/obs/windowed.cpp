#include "obs/windowed.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace anchor::obs {

namespace {

/// A slice overlaps the trailing window [now − window, now] when its end
/// lies past the window start. Edge slices count fully: windowed rates
/// resolve to one slice width by design.
bool overlaps_window(const WindowSlice& s, std::uint64_t slice_us,
                     std::uint64_t now_us, std::uint64_t window_us) {
  const std::uint64_t window_begin =
      now_us >= window_us ? now_us - window_us : 0;
  const std::uint64_t slice_end = (s.epoch + 1) * slice_us;
  return slice_end > window_begin;
}

}  // namespace

void WindowedSnapshot::merge(const WindowedSnapshot& other) {
  if (slice_us == 0) slice_us = other.slice_us;
  if (other.slice_us != 0 && other.slice_us != slice_us) {
    throw std::runtime_error(
        "WindowedSnapshot::merge: slice width mismatch — recorders must "
        "agree on the bucketing to be mergeable");
  }
  now_us = std::max(now_us, other.now_us);
  std::vector<WindowSlice> merged;
  merged.reserve(slices.size() + other.slices.size());
  std::size_t i = 0, j = 0;
  while (i < slices.size() || j < other.slices.size()) {
    if (j >= other.slices.size() ||
        (i < slices.size() && slices[i].epoch < other.slices[j].epoch)) {
      merged.push_back(std::move(slices[i++]));
    } else if (i >= slices.size() ||
               other.slices[j].epoch < slices[i].epoch) {
      merged.push_back(other.slices[j++]);
    } else {
      WindowSlice s = std::move(slices[i++]);
      const WindowSlice& o = other.slices[j++];
      s.requests += o.requests;
      s.errors += o.errors;
      s.latency.merge(o.latency);
      merged.push_back(std::move(s));
    }
  }
  slices = std::move(merged);
}

std::uint64_t WindowedSnapshot::requests_in(std::uint64_t window_us) const {
  std::uint64_t n = 0;
  for (const WindowSlice& s : slices) {
    if (overlaps_window(s, slice_us, now_us, window_us)) n += s.requests;
  }
  return n;
}

std::uint64_t WindowedSnapshot::errors_in(std::uint64_t window_us) const {
  std::uint64_t n = 0;
  for (const WindowSlice& s : slices) {
    if (overlaps_window(s, slice_us, now_us, window_us)) n += s.errors;
  }
  return n;
}

double WindowedSnapshot::qps(std::uint64_t window_us) const {
  if (window_us == 0) return 0.0;
  return static_cast<double>(requests_in(window_us)) /
         (static_cast<double>(window_us) / 1e6);
}

double WindowedSnapshot::error_rate(std::uint64_t window_us) const {
  const std::uint64_t req = requests_in(window_us);
  if (req == 0) return 0.0;
  return static_cast<double>(errors_in(window_us)) /
         static_cast<double>(req);
}

HistogramSnapshot WindowedSnapshot::latency_in(
    std::uint64_t window_us) const {
  HistogramSnapshot out;
  for (const WindowSlice& s : slices) {
    if (overlaps_window(s, slice_us, now_us, window_us)) {
      out.merge(s.latency);
    }
  }
  return out;
}

std::uint64_t count_over(const HistogramSnapshot& h, double threshold) {
  if (h.counts.empty()) return 0;
  const std::uint64_t units = LogHistogram::to_units(threshold);
  const std::size_t idx = LogHistogram::bucket_index(units);
  std::uint64_t n = 0;
  for (std::size_t b = idx; b < h.counts.size(); ++b) n += h.counts[b];
  return n;
}

WindowedStats::WindowedStats(const WindowedConfig& config)
    : config_(config),
      start_ticks_(std::chrono::steady_clock::now().time_since_epoch().count()) {
  if (config_.slice_us == 0) config_.slice_us = 1;
  if (config_.num_slices < 2) config_.num_slices = 2;
  slots_.reserve(config_.num_slices);
  for (std::size_t i = 0; i < config_.num_slices; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

std::uint64_t WindowedStats::wall_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void WindowedStats::record_since(std::chrono::system_clock::time_point start,
                                 std::uint64_t requests,
                                 std::uint64_t errors) {
  const auto end = std::chrono::system_clock::now();
  const double latency_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  record_many_at(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         end.time_since_epoch())
                         .count()),
                 std::max(latency_us, 0.0), requests, errors);
}

void WindowedStats::record_many_at(std::uint64_t now_us, double latency_us,
                                   std::uint64_t requests,
                                   std::uint64_t errors) {
  if (requests == 0 && errors == 0) return;
  const std::uint64_t epoch = now_us / config_.slice_us;
  Slot& slot = *slots_[epoch % slots_.size()];
  if (slot.epoch.load(std::memory_order_acquire) != epoch) {
    // Slice boundary: reset the slot for the new epoch. Double-checked
    // under the rotate mutex so exactly one rotator sweeps; a record
    // racing the sweep lands on one side of the boundary (one slice of
    // attribution fuzz, like LogHistogram::reset).
    std::lock_guard<std::mutex> lock(slot.rotate_mu);
    if (slot.epoch.load(std::memory_order_relaxed) != epoch) {
      slot.latency.reset();
      slot.requests.store(0, std::memory_order_relaxed);
      slot.errors.store(0, std::memory_order_relaxed);
      slot.epoch.store(epoch, std::memory_order_release);
    }
  }
  slot.requests.fetch_add(requests, std::memory_order_relaxed);
  slot.errors.fetch_add(errors, std::memory_order_relaxed);
  if (latency_us >= 0.0) {
    slot.latency.record_n(latency_us, requests != 0 ? requests : 1);
  }
  total_records_.fetch_add(1, std::memory_order_relaxed);
  total_requests_.fetch_add(requests, std::memory_order_relaxed);
  total_errors_.fetch_add(errors, std::memory_order_relaxed);
  if (latency_us >= 0.0) total_latency_.record(latency_us);
}

WindowedTotals WindowedStats::totals() const {
  WindowedTotals t;
  t.records = total_records_.load(std::memory_order_relaxed);
  t.requests = total_requests_.load(std::memory_order_relaxed);
  t.errors = total_errors_.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::time_point(
      std::chrono::steady_clock::duration(
          start_ticks_.load(std::memory_order_relaxed)));
  t.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  t.latency = total_latency_.snapshot();
  return t;
}

void WindowedStats::reset() {
  total_records_.store(0, std::memory_order_relaxed);
  total_requests_.store(0, std::memory_order_relaxed);
  total_errors_.store(0, std::memory_order_relaxed);
  total_latency_.reset();
  start_ticks_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
}

WindowedSnapshot WindowedStats::snapshot_at(std::uint64_t now_us) const {
  WindowedSnapshot out;
  out.slice_us = config_.slice_us;
  out.now_us = now_us;
  const std::uint64_t cur = now_us / config_.slice_us;
  const std::uint64_t n = slots_.size();
  const std::uint64_t min_epoch = cur >= n - 1 ? cur - (n - 1) : 0;
  for (const auto& sp : slots_) {
    const Slot& slot = *sp;
    const std::uint64_t e = slot.epoch.load(std::memory_order_acquire);
    if (e == kEmptyEpoch || e < min_epoch || e > cur) continue;
    WindowSlice s;
    s.epoch = e;
    s.requests = slot.requests.load(std::memory_order_relaxed);
    s.errors = slot.errors.load(std::memory_order_relaxed);
    s.latency = slot.latency.snapshot();
    if (s.requests == 0 && s.errors == 0 && s.latency.count == 0) continue;
    out.slices.push_back(std::move(s));
  }
  std::sort(out.slices.begin(), out.slices.end(),
            [](const WindowSlice& a, const WindowSlice& b) {
              return a.epoch < b.epoch;
            });
  return out;
}

SloState SloMonitor::evaluate(const WindowedSnapshot& w) const {
  SloState st;
  if (config_.error_budget <= 0.0) return st;
  const auto burn = [&](std::uint64_t window_us) {
    const std::uint64_t req = w.requests_in(window_us);
    if (req == 0) return 0.0;
    std::uint64_t bad = w.errors_in(window_us);
    if (config_.p99_target_us > 0.0) {
      bad += count_over(w.latency_in(window_us), config_.p99_target_us);
    }
    if (bad > req) bad = req;
    return (static_cast<double>(bad) / static_cast<double>(req)) /
           config_.error_budget;
  };
  st.short_burn = burn(config_.short_window_us);
  st.long_burn = burn(config_.long_window_us);
  // Both windows must burn: the short window makes the alert responsive,
  // the long window keeps one spike from paging.
  const double floor_burn = std::min(st.short_burn, st.long_burn);
  if (floor_burn >= config_.page_burn) {
    st.alert = 2;
  } else if (floor_burn >= config_.warn_burn) {
    st.alert = 1;
  }
  return st;
}

}  // namespace anchor::obs
