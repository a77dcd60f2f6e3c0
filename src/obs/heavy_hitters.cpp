#include "obs/heavy_hitters.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace anchor::obs {

namespace {

/// splitmix64 finalizer — full-avalanche stripe hash so sequential ids
/// (the common key space) spread across stripes instead of striding.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Canonical entry order: count desc, key asc — deterministic, so merged
/// snapshots are bit-identical regardless of merge order.
bool canonical_less(const HeavyHitter& a, const HeavyHitter& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

std::uint64_t wall_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---- SketchSnapshot ------------------------------------------------------

void SketchSnapshot::merge(const SketchSnapshot& other) {
  total += other.total;
  if (capacity == 0 || (other.capacity != 0 && other.capacity < capacity)) {
    capacity = other.capacity;
  }
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(entries.size() + other.entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    index.emplace(entries[i].key, i);
  }
  for (const HeavyHitter& e : other.entries) {
    const auto it = index.find(e.key);
    if (it == index.end()) {
      index.emplace(e.key, entries.size());
      entries.push_back(e);
    } else {
      entries[it->second].count += e.count;
      entries[it->second].error += e.error;
    }
  }
  std::sort(entries.begin(), entries.end(), canonical_less);
}

std::vector<HeavyHitter> SketchSnapshot::top(std::size_t k) const {
  const std::size_t n = std::min(k, entries.size());
  return std::vector<HeavyHitter>(entries.begin(),
                                  entries.begin() + static_cast<long>(n));
}

// ---- SpaceSavingSketch ---------------------------------------------------

SpaceSavingSketch::SpaceSavingSketch(Config config) {
  if (config.stripes == 0) config.stripes = 1;
  if (config.capacity < config.stripes) config.capacity = config.stripes;
  stripe_capacity_ = config.capacity / config.stripes;
  stripes_.reserve(config.stripes);
  for (std::size_t i = 0; i < config.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
    stripes_.back()->entries.reserve(stripe_capacity_);
  }
}

void SpaceSavingSketch::offer(std::uint64_t key, std::uint64_t n) {
  if (n == 0) return;
  Stripe& stripe = *stripes_[mix64(key) % stripes_.size()];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.total += n;
  const auto it = stripe.index.find(key);
  if (it != stripe.index.end()) {
    stripe.entries[it->second].count += n;
    return;
  }
  if (stripe.entries.size() < stripe_capacity_) {
    stripe.index.emplace(key, stripe.entries.size());
    stripe.entries.push_back(HeavyHitter{key, n, 0});
    return;
  }
  // Full: evict the minimum-count entry (smallest key breaks ties, so
  // eviction is deterministic) and inherit its count as the error bound —
  // the Space-Saving replacement rule.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < stripe.entries.size(); ++i) {
    const HeavyHitter& e = stripe.entries[i];
    const HeavyHitter& v = stripe.entries[victim];
    if (e.count < v.count || (e.count == v.count && e.key < v.key)) {
      victim = i;
    }
  }
  HeavyHitter& slot = stripe.entries[victim];
  stripe.index.erase(slot.key);
  stripe.index.emplace(key, victim);
  slot.error = slot.count;
  slot.count += n;
  slot.key = key;
}

SketchSnapshot SpaceSavingSketch::snapshot() const {
  SketchSnapshot out;
  out.capacity = stripe_capacity_ * stripes_.size();
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    out.total += sp->total;
    out.entries.insert(out.entries.end(), sp->entries.begin(),
                       sp->entries.end());
  }
  std::sort(out.entries.begin(), out.entries.end(), canonical_less);
  return out;
}

// ---- HeatMapSnapshot -----------------------------------------------------

void HeatMapSnapshot::merge(const HeatMapSnapshot& other) {
  total += other.total;
  elapsed_us = std::max(elapsed_us, other.elapsed_us);
  for (const HeatRange& r : other.ranges) {
    const auto it = std::lower_bound(
        ranges.begin(), ranges.end(), r,
        [](const HeatRange& a, const HeatRange& b) {
          if (a.row_begin != b.row_begin) return a.row_begin < b.row_begin;
          return a.row_end < b.row_end;
        });
    if (it != ranges.end() && it->row_begin == r.row_begin &&
        it->row_end == r.row_end) {
      if (it->buckets.size() != r.buckets.size()) {
        throw std::runtime_error(
            "HeatMapSnapshot::merge: bucket fanout mismatch for range");
      }
      for (std::size_t i = 0; i < r.buckets.size(); ++i) {
        it->buckets[i] += r.buckets[i];
      }
    } else {
      ranges.insert(it, r);
    }
  }
}

void HeatMapSnapshot::shift_rows(std::uint64_t shift) {
  for (HeatRange& r : ranges) {
    r.row_begin += shift;
    r.row_end += shift;
  }
}

std::uint64_t HeatMapSnapshot::range_total(std::uint64_t row) const {
  for (const HeatRange& r : ranges) {
    if (row >= r.row_begin && row < r.row_end) {
      std::uint64_t n = 0;
      for (const std::uint64_t b : r.buckets) n += b;
      return n;
    }
  }
  return 0;
}

// ---- RangeHeatMap --------------------------------------------------------

RangeHeatMap::RangeHeatMap(Config config) : config_(config) {
  if (config_.buckets == 0) config_.buckets = 1;
  if (config_.row_end < config_.row_begin) {
    config_.row_end = config_.row_begin;
  }
  // More bins than rows just aliases empty bins; clamp for tidy output.
  const std::uint64_t span = config_.row_end - config_.row_begin;
  if (span != 0 && config_.buckets > span) {
    config_.buckets = static_cast<std::size_t>(span);
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(config_.buckets);
  for (std::size_t i = 0; i < config_.buckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  start_us_ = wall_micros();
}

void RangeHeatMap::record(std::uint64_t id, std::uint64_t n) {
  if (n == 0) return;
  const std::uint64_t span = config_.row_end - config_.row_begin;
  std::size_t bucket = 0;
  if (span != 0) {
    const std::uint64_t off =
        id <= config_.row_begin ? 0
        : id >= config_.row_end ? span - 1
                                : id - config_.row_begin;
    // off/span in [0,1) scaled to the fanout; 128-bit-free since off and
    // buckets are both far below 2^32 in practice — guard anyway by
    // dividing first when the product could overflow.
    bucket = static_cast<std::size_t>(
        off > (~0ull / config_.buckets)
            ? (off / span) * config_.buckets
            : off * config_.buckets / span);
    if (bucket >= config_.buckets) bucket = config_.buckets - 1;
  }
  buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
  total_.fetch_add(n, std::memory_order_relaxed);
}

HeatMapSnapshot RangeHeatMap::snapshot() const {
  return snapshot_at(wall_micros());
}

HeatMapSnapshot RangeHeatMap::snapshot_at(std::uint64_t now_us) const {
  HeatMapSnapshot out;
  out.total = total_.load(std::memory_order_relaxed);
  out.elapsed_us = now_us >= start_us_ ? now_us - start_us_ : 0;
  HeatRange r;
  r.row_begin = config_.row_begin;
  r.row_end = config_.row_end;
  r.buckets.resize(config_.buckets);
  for (std::size_t i = 0; i < config_.buckets; ++i) {
    r.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.ranges.push_back(std::move(r));
  return out;
}

}  // namespace anchor::obs
