#include "obs/load_plane.hpp"

#include <vector>

namespace anchor::obs {

std::unique_ptr<KeyLoadRecorder> make_key_load_recorder(std::size_t capacity,
                                                        std::uint64_t row_end,
                                                        std::size_t buckets) {
  if (capacity == 0) return nullptr;
  SpaceSavingSketch::Config sketch;
  sketch.capacity = capacity;
  RangeHeatMap::Config heat;
  heat.row_begin = 0;
  heat.row_end = row_end;
  heat.buckets = buckets != 0 ? buckets : 1;
  return std::make_unique<KeyLoadRecorder>(sketch, heat);
}

void export_load_plane(MetricsRegistry& registry, const std::string& prefix,
                       const WindowedStats& windowed, const SloMonitor& slo,
                       const KeyLoadRecorder* load) {
  auto last_top = std::make_shared<std::vector<std::string>>();
  registry.on_collect([prefix, &windowed, &slo, load,
                       last_top](MetricsRegistry& reg) {
    const WindowedSnapshot w = windowed.snapshot();
    reg.gauge(prefix + "window_qps_10s", "Requests/s over the last 10 s")
        .set(w.qps(10'000'000ull));
    reg.gauge(prefix + "window_qps_1m", "Requests/s over the last 60 s")
        .set(w.qps(60'000'000ull));
    reg.gauge(prefix + "window_error_rate_1m",
              "Error (router: degraded-lookup) fraction over the last 60 s")
        .set(w.error_rate(60'000'000ull));
    reg.gauge(prefix + "window_p99_us_1m",
              "p99 latency (µs) over the last 60 s")
        .set(w.latency_in(60'000'000ull).quantile(0.99));
    const SloState s = slo.evaluate(w);
    reg.gauge(prefix + "slo_burn_short",
              "SLO burn rate over the short window (1.0 = exactly on "
              "budget)")
        .set(s.short_burn);
    reg.gauge(prefix + "slo_burn_long", "SLO burn rate over the long window")
        .set(s.long_burn);
    reg.gauge(prefix + "slo_alert_state",
              "Multi-window burn-rate alert (0 ok, 1 warn, 2 page)")
        .set(static_cast<double>(s.alert));
    if (load == nullptr) return;
    const SketchSnapshot sketch = load->sketch.snapshot();
    reg.counter(prefix + "key_load_records_total",
                "Key occurrences offered to the heavy-hitter sketch")
        .set(sketch.total);
    constexpr std::size_t kExportRanks = 8;
    const std::vector<HeavyHitter> top = sketch.top(kExportRanks);
    last_top->resize(kExportRanks);
    for (std::size_t r = 0; r < kExportRanks; ++r) {
      std::string name;
      if (r < top.size()) {
        name = prefix + "top_key_count{rank=\"" + std::to_string(r) +
               "\",id=\"" + std::to_string(top[r].key) + "\"}";
      }
      if ((*last_top)[r] != name && !(*last_top)[r].empty()) {
        reg.gauge((*last_top)[r], "Sketch count of the rank-N hottest key")
            .set(0.0);
      }
      (*last_top)[r] = name;
      if (!name.empty()) {
        reg.gauge(name, "Sketch count of the rank-N hottest key")
            .set(static_cast<double>(top[r].count));
      }
    }
    // Heat buckets are cumulative (never reset), so only the populated ones
    // need series — a bucket that ever counted stays nonzero.
    const HeatMapSnapshot heat = load->heat.snapshot();
    std::size_t populated = 0;
    for (const HeatRange& range : heat.ranges) {
      for (std::size_t b = 0; b < range.buckets.size(); ++b) {
        if (range.buckets[b] == 0) continue;
        ++populated;
        reg.counter(prefix + "heat_bucket_total{bucket=\"" +
                        std::to_string(b) + "\"}",
                    "Key-load records landing in this id-range bucket")
            .set(range.buckets[b]);
      }
    }
    reg.gauge(prefix + "heat_buckets_populated",
              "Heat-map buckets that have recorded any load")
        .set(static_cast<double>(populated));
  });
}

}  // namespace anchor::obs
