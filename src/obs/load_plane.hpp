// The load plane both daemons export: rolling request rates and latency
// from a WindowedStats ring, SLO burn from an SloMonitor over it, and the
// key-load recorders (heavy-hitter sketch + range heat map). anchor_served
// exports it under `anchor_`, anchor_router under `anchor_router_`; the
// series names are otherwise identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/heavy_hitters.hpp"
#include "obs/metrics.hpp"
#include "obs/windowed.hpp"

namespace anchor::obs {

/// Key-load recorders over ids [0, row_end) with `buckets` heat buckets
/// (0 means 1); nullptr when `capacity` is 0, which turns attribution off.
std::unique_ptr<KeyLoadRecorder> make_key_load_recorder(std::size_t capacity,
                                                        std::uint64_t row_end,
                                                        std::size_t buckets);

/// Registers a collector exporting `windowed`'s rolling rates, `slo`'s burn
/// over it and, when `load` is set, the top-8 keys and populated heat
/// buckets, every series named `<prefix>...`. A top-key rank whose id
/// changed since the last scrape has its stale series zeroed, so no two
/// ids claim one rank. The recorders must outlive the registry.
void export_load_plane(MetricsRegistry& registry, const std::string& prefix,
                       const WindowedStats& windowed, const SloMonitor& slo,
                       const KeyLoadRecorder* load);

}  // namespace anchor::obs
