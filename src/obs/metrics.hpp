// Unified metrics plane: named counters, gauges, and histograms with
// Prometheus text exposition.
//
// A MetricsRegistry is the one surface a daemon exports its numbers
// through: serve/net/cluster components register (or bridge) their
// metrics here, and every consumer — the METRICS RPC, the --metrics
// Prometheus endpoint, `anchor_cli metrics` — renders the same
// MetricsReport. Two registration styles:
//
//   • owned: counter()/gauge()/histogram() create (or return) a metric
//     the registry owns; components keep the reference and update it on
//     their hot path (atomics, no locks).
//   • bridged: sources whose numbers already live elsewhere (a
//     WindowedStats recorder's total, canary state) register an
//     on_collect callback that copies the current values into registry
//     metrics at snapshot time, or a histogram provider that snapshots a
//     live histogram. No double counting, no hot-path changes in the
//     source.
//
// Naming follows Prometheus conventions (snake_case, counters end in
// _total, unit suffixes like _us); a name may carry a literal label set
// ("anchor_live_version_info{version=\"v2\"}") which the text exposition
// passes through.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/log_histogram.hpp"

namespace anchor::obs {

/// Monotonically increasing value. set() exists for bridged sources whose
/// authoritative counter lives elsewhere.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// One metric's point-in-time value — the wire/exposition unit.
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  std::string help;
  std::uint64_t counter = 0;           // kCounter
  double gauge = 0.0;                  // kGauge
  HistogramSnapshot hist;              // kHistogram
};

struct MetricsReport {
  std::vector<MetricValue> metrics;  // sorted by name
};

/// Prometheus text exposition (format version 0.0.4). Histograms render
/// cumulative _bucket{le="..."} series at power-of-two bounds (which
/// align exactly with LogHistogram bucket boundaries), plus _sum/_count.
/// HELP text is escaped per the spec (backslash and newline).
std::string to_prometheus(const MetricsReport& report);
/// Human-readable dump for `anchor_cli metrics`.
std::string to_text(const MetricsReport& report);

/// Escapes a string for use INSIDE a Prometheus label value: backslash →
/// \\, double-quote → \", newline → \n (exposition-format spec). Every
/// label value built from external input (snapshot versions, encodings,
/// replica addresses) must pass through this, or a hostile version string
/// like `ev"} 1` would forge arbitrary series in the scrape.
std::string escape_label_value(const std::string& value);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  LogHistogram& histogram(const std::string& name,
                          const std::string& help = "");

  /// Bridged histogram: `source` is called at snapshot time (e.g. reads
  /// a WindowedStats total's latency). Replaces any previous registration
  /// under the same name.
  void register_histogram(const std::string& name, const std::string& help,
                          std::function<HistogramSnapshot()> source);

  /// Snapshot-time hook for bridged counters/gauges: runs before the
  /// metric values are read, so the callback can set() them from their
  /// authoritative source.
  void on_collect(std::function<void(MetricsRegistry&)> fn);

  /// Runs the collect hooks and renders every metric, sorted by name.
  MetricsReport snapshot();

 private:
  struct HistogramEntry {
    std::string help;
    std::unique_ptr<LogHistogram> owned;          // null when bridged
    std::function<HistogramSnapshot()> source;
  };
  struct CounterEntry {
    std::string help;
    std::unique_ptr<Counter> counter;
  };
  struct GaugeEntry {
    std::string help;
    std::unique_ptr<Gauge> gauge;
  };

  mutable std::mutex mu_;  // registration + snapshot; hot paths touch
                           // only the returned references
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, GaugeEntry> gauges_;
  std::map<std::string, HistogramEntry> histograms_;
  std::vector<std::function<void(MetricsRegistry&)>> collectors_;
};

/// Peak resident set size of this process in bytes: VmHWM from
/// /proc/self/status, 0 where the file or the field is missing.
std::uint64_t process_peak_rss_bytes();

/// Registers the process-level series both daemons export under the same
/// name: anchor_process_peak_rss_bytes, read at snapshot time.
void export_process_metrics(MetricsRegistry& registry);

}  // namespace anchor::obs
