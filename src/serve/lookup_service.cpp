#include "serve/lookup_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/heavy_hitters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace anchor::serve {

// Documented in the header; shared with the cluster shard router, which
// resolves words with the identical rule.
bool parse_synthetic_word_id(const std::string& word, std::size_t* id) {
  // > 15 digits cannot be a real row id and would overflow the accumulator
  // into a wrong-but-valid id.
  if (word.size() < 2 || word.size() > 16 || word[0] != 'w') return false;
  std::size_t value = 0;
  for (std::size_t i = 1; i < word.size(); ++i) {
    const char c = word[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *id = value;
  return true;
}

StatsSnapshot stats_snapshot(const obs::WindowedStats& recorder) {
  obs::WindowedTotals t = recorder.totals();
  StatsSnapshot s;
  s.lookups = t.requests;
  s.batches = t.records;
  s.oov_fallbacks = t.errors;
  s.elapsed_seconds = t.elapsed_seconds;
  if (s.elapsed_seconds > 0.0) {
    s.qps = static_cast<double>(s.lookups) / s.elapsed_seconds;
  }
  s.latency = std::move(t.latency);
  s.refresh_percentiles();
  return s;
}

std::string StatsSnapshot::summary() const {
  std::ostringstream os;
  os << "lookups=" << lookups << " batches=" << batches << " qps=" << qps
     << " p50=" << p50_latency_us << "us p99=" << p99_latency_us
     << "us oov=" << oov_fallbacks;
  return os.str();
}

LookupService::LookupService(const EmbeddingStore& store, LookupConfig config,
                             std::shared_ptr<obs::WindowedStats> stats)
    : store_(store),
      config_(config),
      stats_(stats ? std::move(stats)
                   : std::make_shared<obs::WindowedStats>()) {}

template <typename Resolve, typename OovFill>
void LookupService::lookup_batch_into(std::size_t n, const Resolve& resolve,
                                      const OovFill& oov_fill,
                                      LookupResult* out) const {
  const auto start = std::chrono::system_clock::now();
  const SnapshotPtr snap =
      config_.pin_snapshot ? config_.pin_snapshot : store_.live();
  ANCHOR_CHECK_MSG(snap != nullptr, "lookup against a store with no versions");

  const std::size_t dim = snap->dim();
  out->dim = dim;
  out->version = snap->version();
  // Every slot is overwritten below (rows by the gather, OOV slots by
  // oov_fill), so the buffer is resized, not cleared.
  out->vectors.resize(n * dim);
  out->oov.assign(n, 0);

  // Resolve every request first, collecting the in-vocabulary rows in
  // request order (copy_rows takes no OOV sentinel, so OOV requests are
  // left out), then gather them in one copy_rows call into the first
  // rows.size() result slots. The row scratch is thread_local: a server
  // thread answering batches forever should not pay a heap allocation per
  // batch.
  thread_local std::vector<std::size_t> rows;
  rows.clear();
  std::size_t oov_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t row = 0;
    if (resolve(i, *snap, &row)) {
      rows.push_back(row);
    } else {
      out->oov[i] = 1;
      ++oov_count;
    }
  }
  if (config_.load != nullptr) {
    // Key-load attribution happens at resolve time, before the gather:
    // the sketch and heat map measure demand, not cost.
    for (const std::size_t row : rows) {
      config_.load->record(static_cast<std::uint64_t>(row));
    }
  }
  {
    // The gather is the batch's compute kernel; when a traced batch is
    // executing (Tracer::Scope installed by the batcher), bracket it as
    // the dequantize span.
    const obs::TraceContext& trace = obs::Tracer::current();
    const std::uint64_t t0 = trace.sampled() ? obs::Tracer::now_ns() : 0;
    snap->copy_rows(rows.data(), rows.size(), out->vectors.data());
    if (trace.sampled()) {
      obs::Tracer::instance().record(trace, obs::TraceStage::kDequantize, t0,
                                     obs::Tracer::now_ns());
    }
  }
  if (oov_count > 0) {
    // Spread the packed rows out to their request slots, last first: row
    // k moves to slot i ≥ k, so no row is overwritten before it moves.
    std::size_t k = rows.size();
    for (std::size_t i = n; i-- > 0;) {
      float* slot = out->vectors.data() + i * dim;
      if (out->oov[i]) {
        oov_fill(i, *snap, slot);
      } else if (--k != i) {
        std::memcpy(slot, out->vectors.data() + k * dim, dim * sizeof(float));
      }
    }
  }

  stats_->record_since(start, n, oov_count);
}

void LookupService::lookup_ids_into(const std::vector<std::size_t>& ids,
                                    LookupResult* out) const {
  lookup_batch_into(
      ids.size(),
      [&](std::size_t i, const EmbeddingSnapshot& snap, std::size_t* row) {
        if (ids[i] >= snap.vocab_size()) return false;
        *row = ids[i];
        return true;
      },
      // Ids outside the vocabulary have no subword string to synthesize
      // from; their slots are zeroed.
      [](std::size_t, const EmbeddingSnapshot& snap, float* out_row) {
        std::fill_n(out_row, snap.dim(), 0.0f);
      },
      out);
}

void LookupService::lookup_words_into(const std::vector<std::string>& words,
                                      LookupResult* out) const {
  lookup_batch_into(
      words.size(),
      [&](std::size_t i, const EmbeddingSnapshot& snap, std::size_t* row) {
        std::size_t id = 0;
        if (!parse_synthetic_word_id(words[i], &id) || id >= snap.vocab_size()) {
          return false;
        }
        *row = id;
        return true;
      },
      [&](std::size_t i, const EmbeddingSnapshot& snap, float* out_row) {
        snap.synthesize_oov(words[i], out_row);  // zeroes on failure
      },
      out);
}

LookupResult LookupService::lookup_ids(
    const std::vector<std::size_t>& ids) const {
  LookupResult result;
  lookup_ids_into(ids, &result);
  return result;
}

LookupResult LookupService::lookup_words(
    const std::vector<std::string>& words) const {
  LookupResult result;
  lookup_words_into(words, &result);
  return result;
}

}  // namespace anchor::serve
