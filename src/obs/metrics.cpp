#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace anchor::obs {

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  CounterEntry& e = counters_[name];
  if (!e.counter) e.counter = std::make_unique<Counter>();
  if (e.help.empty()) e.help = help;
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  GaugeEntry& e = gauges_[name];
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  if (e.help.empty()) e.help = help;
  return *e.gauge;
}

LogHistogram& MetricsRegistry::histogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramEntry& e = histograms_[name];
  if (!e.owned) {
    e.owned = std::make_unique<LogHistogram>();
    LogHistogram* raw = e.owned.get();
    e.source = [raw] { return raw->snapshot(); };
  }
  if (e.help.empty()) e.help = help;
  return *e.owned;
}

void MetricsRegistry::register_histogram(
    const std::string& name, const std::string& help,
    std::function<HistogramSnapshot()> source) {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramEntry& e = histograms_[name];
  e.owned.reset();
  e.source = std::move(source);
  if (e.help.empty()) e.help = help;
}

void MetricsRegistry::on_collect(std::function<void(MetricsRegistry&)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

MetricsReport MetricsRegistry::snapshot() {
  // Collectors run WITHOUT the registry lock held: they call back into
  // counter()/gauge() (create-or-get takes the lock per call), so holding
  // it across them would self-deadlock.
  std::vector<std::function<void(MetricsRegistry&)>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors = collectors_;
  }
  for (const auto& fn : collectors) fn(*this);

  MetricsReport report;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : counters_) {
    MetricValue v;
    v.kind = MetricKind::kCounter;
    v.name = name;
    v.help = e.help;
    v.counter = e.counter->value();
    report.metrics.push_back(std::move(v));
  }
  for (const auto& [name, e] : gauges_) {
    MetricValue v;
    v.kind = MetricKind::kGauge;
    v.name = name;
    v.help = e.help;
    v.gauge = e.gauge->value();
    report.metrics.push_back(std::move(v));
  }
  for (const auto& [name, e] : histograms_) {
    MetricValue v;
    v.kind = MetricKind::kHistogram;
    v.name = name;
    v.help = e.help;
    if (e.source) v.hist = e.source();
    report.metrics.push_back(std::move(v));
  }
  std::sort(report.metrics.begin(), report.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return report;
}

namespace {

/// Metric name without any trailing literal label set — what the # TYPE
/// and # HELP lines must carry.
std::string base_name(const std::string& name) {
  const std::size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Splits "name{labels}" so histogram series can splice "le" into an
/// existing label set.
void split_labels(const std::string& name, std::string* base,
                  std::string* labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  // Drop the surrounding braces; keep the inner "k=\"v\",..." text.
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

void append_number(std::ostringstream& os, double v) {
  // %.17g keeps doubles round-trippable; trim the common integer case.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    os << static_cast<std::int64_t>(v);
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
  }
}

/// HELP-line escaping per the exposition spec: backslash and newline
/// only (quotes are legal in help text).
std::string escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string to_prometheus(const MetricsReport& report) {
  std::ostringstream os;
  for (const MetricValue& m : report.metrics) {
    const std::string base = base_name(m.name);
    if (!m.help.empty()) {
      os << "# HELP " << base << ' ' << escape_help(m.help) << '\n';
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << base << " counter\n";
        os << m.name << ' ' << m.counter << '\n';
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << base << " gauge\n";
        os << m.name << ' ';
        append_number(os, m.gauge);
        os << '\n';
        break;
      case MetricKind::kHistogram: {
        os << "# TYPE " << base << " histogram\n";
        std::string name_base, labels;
        split_labels(m.name, &name_base, &labels);
        const std::string prefix =
            labels.empty() ? name_base + "_bucket{le=\""
                           : name_base + "_bucket{" + labels + ",le=\"";
        // Cumulative counts at power-of-two bounds: every 2^k lies on a
        // LogHistogram bucket boundary, so each series value is the
        // exact count of samples strictly below the bound (values
        // exactly on a bound count into the next series).
        std::uint64_t cum = 0;
        std::size_t next_bucket = 0;
        const auto flush_below = [&](std::size_t bucket_limit) {
          for (; next_bucket < bucket_limit &&
                 next_bucket < m.hist.counts.size();
               ++next_bucket) {
            cum += m.hist.counts[next_bucket];
          }
        };
        for (int k = 0; k <= 20; ++k) {
          const std::uint64_t bound_units = 1ull
                                            << (k + LogHistogram::kFracBits);
          flush_below(LogHistogram::bucket_index(bound_units));
          os << prefix << (1ull << k) << "\"} " << cum << '\n';
        }
        flush_below(m.hist.counts.size());
        os << prefix << "+Inf\"} " << cum << '\n';
        os << name_base << (labels.empty() ? "_sum " : "_sum{" + labels + "} ");
        append_number(os, LogHistogram::from_units(m.hist.sum_units));
        os << '\n';
        os << name_base
           << (labels.empty() ? "_count " : "_count{" + labels + "} ")
           << m.hist.count << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string to_text(const MetricsReport& report) {
  std::ostringstream os;
  for (const MetricValue& m : report.metrics) {
    switch (m.kind) {
      case MetricKind::kCounter:
        os << m.name << " = " << m.counter << '\n';
        break;
      case MetricKind::kGauge:
        os << m.name << " = ";
        append_number(os, m.gauge);
        os << '\n';
        break;
      case MetricKind::kHistogram:
        os << m.name << ": count=" << m.hist.count;
        if (m.hist.count > 0) {
          os << " mean=";
          append_number(os, m.hist.mean());
          os << " p50=";
          append_number(os, m.hist.quantile(0.50));
          os << " p99=";
          append_number(os, m.hist.quantile(0.99));
          os << " max=";
          append_number(os, m.hist.max());
        }
        os << '\n';
        break;
    }
  }
  return os.str();
}

std::uint64_t process_peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;  // kB
    }
  }
  return 0;
}

void export_process_metrics(MetricsRegistry& registry) {
  registry.on_collect([](MetricsRegistry& reg) {
    reg.gauge("anchor_process_peak_rss_bytes",
              "Peak resident set size of this process (VmHWM), bytes")
        .set(static_cast<double>(process_peak_rss_bytes()));
  });
}

}  // namespace anchor::obs
