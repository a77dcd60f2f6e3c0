#include "serve/serve_stats.hpp"

#include <ostream>
#include <sstream>

namespace anchor::serve {

void ServeStats::record_batch(std::uint64_t lookups, double latency_us) {
  lookups_.fetch_add(lookups, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  latency_.record(latency_us);
}

StatsSnapshot ServeStats::snapshot() const {
  StatsSnapshot s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.oov_fallbacks = oov_fallbacks_.load(std::memory_order_relaxed);

  const auto start = std::chrono::steady_clock::time_point(
      std::chrono::steady_clock::duration(
          start_ticks_.load(std::memory_order_relaxed)));
  s.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (s.elapsed_seconds > 0.0) {
    s.qps = static_cast<double>(s.lookups) / s.elapsed_seconds;
  }

  s.latency = latency_.snapshot();
  s.refresh_percentiles();
  return s;
}

void ServeStats::reset() {
  lookups_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  oov_fallbacks_.store(0, std::memory_order_relaxed);
  latency_.reset();
  start_ticks_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
}

std::string StatsSnapshot::summary() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const StatsSnapshot& s) {
  os << "lookups=" << s.lookups << " batches=" << s.batches
     << " qps=" << s.qps << " p50=" << s.p50_latency_us
     << "us p99=" << s.p99_latency_us
     << "us oov=" << s.oov_fallbacks;
  return os;
}

}  // namespace anchor::serve
