#include "serve/embedding_store.hpp"

#include <algorithm>
#include <cstring>

#include "compress/pq.hpp"
#include "compress/quantize.hpp"
#include "embed/io.hpp"
#include "la/kernels.hpp"
#include "la/procrustes.hpp"
#include "util/check.hpp"

namespace anchor::serve {

namespace {

// Codes per packed byte for b-bit quantization (b ∈ {1, 2, 4, 8}).
std::size_t codes_per_byte(int bits) {
  return 8u / static_cast<std::size_t>(bits);
}

std::size_t packed_bytes(std::size_t values, int bits) {
  const std::size_t per = codes_per_byte(bits);
  return (values + per - 1) / per;
}

}  // namespace

EmbeddingSnapshot::EmbeddingSnapshot(std::string version,
                                     const embed::Embedding& source,
                                     const SnapshotConfig& config,
                                     std::uint64_t epoch, bool aligned)
    : version_(std::move(version)),
      config_(config),
      vocab_size_(source.vocab_size),
      dim_(source.dim),
      epoch_(epoch),
      aligned_(aligned) {
  ANCHOR_CHECK_GT(vocab_size_, 0u);
  ANCHOR_CHECK_GT(dim_, 0u);
  ANCHOR_CHECK_GT(config.num_shards, 0u);
  ANCHOR_CHECK_MSG(config.bits == 1 || config.bits == 2 || config.bits == 4 ||
                       config.bits == 8 || config.bits == 32,
                   "serve snapshots support bits in {1,2,4,8,32}");
  if (config_.pq_m > 0) {
    ANCHOR_CHECK_MSG(config_.bits == 32,
                     "pq mode replaces uniform quantization; leave bits at 32 "
                     "when setting pq_m");
    ANCHOR_CHECK_MSG(config_.pq_bits >= 1 && config_.pq_bits <= 8,
                     "pq codes are stored one byte each; pq_bits must be in "
                     "1..8");
    ANCHOR_CHECK_MSG(dim_ % config_.pq_m == 0,
                     "pq_m must divide the embedding dimension");
  }
  // Reject dead knobs loudly instead of encoding with them silently
  // ignored: a deployment that *thinks* it shares a clip (or codebooks)
  // across shards but doesn't would quietly lose bit-identity.
  ANCHOR_CHECK_MSG(config_.clip_override <= 0.0f || config_.bits < 32,
                   "clip_override applies only to uniform 1/2/4/8-bit "
                   "quantization; it is meaningless for fp32 and pq "
                   "snapshots");
  ANCHOR_CHECK_MSG(config_.pq_codebooks_override.empty() || config_.pq_m > 0,
                   "pq_codebooks_override requires pq mode (set pq_m > 0)");

  if (config_.bits < 32) {
    clip_ = config_.clip_override > 0.0f
                ? config_.clip_override
                : compress::optimal_clip_threshold(source.data, config_.bits);
  }

  const std::size_t num_shards = std::min(config.num_shards, vocab_size_);
  shards_.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_[s].rows = vocab_size_ / num_shards +
                      (s < vocab_size_ % num_shards ? 1 : 0);
    if (config_.pq_m > 0) {
      shards_[s].codes.resize(shards_[s].rows * config_.pq_m);
    } else if (config_.bits == 32) {
      shards_[s].fp32.resize(shards_[s].rows * dim_);
    } else {
      shards_[s].codes.resize(shards_[s].rows *
                              packed_bytes(dim_, config_.bits));
    }
  }
  if (config_.pq_m > 0) {
    // Train (or reuse) codebooks over the FULL vocabulary, then scatter the
    // byte-per-code rows into shards. Encoding against fixed codebooks is a
    // pure function of the row bytes, which is what makes shared-codebook
    // shards merge bit-identically to a single-process store.
    compress::PqConfig pq;
    pq.num_subvectors = config_.pq_m;
    pq.bits = config_.pq_bits;
    pq.codebooks_override = config_.pq_codebooks_override;
    const compress::PqResult coded = compress::pq_quantize(source, pq);
    const std::size_t m = config_.pq_m;
    const std::size_t sub_dim = dim_ / m;
    const std::size_t ksub = std::size_t{1} << config_.pq_bits;
    pq_flat_.resize(m * ksub * sub_dim);
    for (std::size_t s = 0; s < m; ++s) {
      std::copy(coded.codebooks[s].begin(), coded.codebooks[s].end(),
                pq_flat_.begin() + s * ksub * sub_dim);
    }
    for (std::size_t w = 0; w < vocab_size_; ++w) {
      std::uint8_t* row =
          shards_[w % num_shards].codes.data() + (w / num_shards) * m;
      for (std::size_t s = 0; s < m; ++s) {
        row[s] = static_cast<std::uint8_t>(coded.codes[w * m + s]);
      }
    }
  } else {
    for (std::size_t w = 0; w < vocab_size_; ++w) {
      encode_shard_row(shards_[w % num_shards], w / num_shards, source.row(w));
    }
  }

  if (config_.build_oov_table) build_oov_table(source);
}

void EmbeddingSnapshot::encode_shard_row(Shard& shard, std::size_t local_row,
                                         const float* src) {
  if (config_.bits == 32) {
    std::memcpy(shard.fp32.data() + local_row * dim_, src,
                dim_ * sizeof(float));
    return;
  }
  const std::size_t per = codes_per_byte(config_.bits);
  std::uint8_t* row_bytes =
      shard.codes.data() + local_row * packed_bytes(dim_, config_.bits);
  for (std::size_t j = 0; j < dim_; ++j) {
    const std::uint32_t code =
        compress::quantize_code(src[j], clip_, config_.bits);
    const std::size_t shift = (j % per) * static_cast<std::size_t>(config_.bits);
    row_bytes[j / per] |= static_cast<std::uint8_t>(code << shift);
  }
}

void EmbeddingSnapshot::copy_row(std::size_t w, float* out) const {
  ANCHOR_CHECK_LT(w, vocab_size_);
  const Shard& shard = shards_[w % shards_.size()];
  const std::size_t local_row = w / shards_.size();
  if (config_.pq_m > 0) {
    const std::size_t m = config_.pq_m;
    la::kernels::pq_decode_rows(shard.codes.data() + local_row * m, 1, m,
                                dim_ / m, std::size_t{1} << config_.pq_bits,
                                pq_flat_.data(), out);
    return;
  }
  if (config_.bits == 32) {
    std::memcpy(out, shard.fp32.data() + local_row * dim_,
                dim_ * sizeof(float));
    return;
  }
  la::kernels::dequantize_rows(
      shard.codes.data() + local_row * packed_bytes(dim_, config_.bits), 1,
      dim_, config_.bits, clip_, out);
}

void EmbeddingSnapshot::copy_rows(const std::size_t* ids, std::size_t n,
                                  float* out) const {
  if (config_.pq_m == 0) {
    for (std::size_t i = 0; i < n; ++i) copy_row(ids[i], out + i * dim_);
    return;
  }
  // PQ: gather the scattered rows' codes (m bytes each) into one contiguous
  // block, then decode the whole batch with a single fused kernel call —
  // the batched unit the LookupService gather hands us.
  const std::size_t m = config_.pq_m;
  thread_local std::vector<std::uint8_t> gathered;
  if (gathered.size() < n * m) gathered.resize(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    ANCHOR_CHECK_LT(ids[i], vocab_size_);
    const Shard& shard = shards_[ids[i] % shards_.size()];
    std::memcpy(gathered.data() + i * m,
                shard.codes.data() + (ids[i] / shards_.size()) * m, m);
  }
  la::kernels::pq_decode_rows(gathered.data(), n, m, dim_ / m,
                              std::size_t{1} << config_.pq_bits,
                              pq_flat_.data(), out);
}

std::size_t EmbeddingSnapshot::memory_bytes() const {
  // Every owned buffer: row storage, shared PQ codebooks, and the OOV
  // table (bucket vectors + contribution counts) — the table alone is
  // bucket_count·dim floats and can dwarf a small store, so leaving it out
  // made total_memory_bytes() under-report the resident footprint.
  std::size_t total = pq_flat_.size() * sizeof(float) +
                      oov_table_.size() * sizeof(float) +
                      oov_counts_.size() * sizeof(std::uint32_t);
  for (const Shard& s : shards_) {
    total += s.fp32.size() * sizeof(float) + s.codes.size();
  }
  return total;
}

std::string EmbeddingSnapshot::encoding() const {
  if (config_.pq_m > 0) {
    return "pq:" + std::to_string(config_.pq_m) + "x" +
           std::to_string(config_.pq_bits);
  }
  if (config_.bits == 32) return "fp32";
  return "int" + std::to_string(config_.bits);
}

std::vector<std::vector<float>> EmbeddingSnapshot::pq_codebook_vectors()
    const {
  std::vector<std::vector<float>> out(config_.pq_m);
  if (config_.pq_m == 0) return out;
  const std::size_t per = pq_flat_.size() / config_.pq_m;
  for (std::size_t s = 0; s < config_.pq_m; ++s) {
    out[s].assign(pq_flat_.begin() + s * per, pq_flat_.begin() + (s + 1) * per);
  }
  return out;
}

const std::uint8_t* EmbeddingSnapshot::pq_row_codes(std::size_t w) const {
  ANCHOR_CHECK_MSG(config_.pq_m > 0, "pq_row_codes on a non-pq snapshot");
  ANCHOR_CHECK_LT(w, vocab_size_);
  const Shard& shard = shards_[w % shards_.size()];
  return shard.codes.data() + (w / shards_.size()) * config_.pq_m;
}

void EmbeddingSnapshot::build_oov_table(const embed::Embedding& source) {
  oov_config_.dim = dim_;
  oov_config_.bucket_count = 1u << 12;  // 4096 buckets is plenty at our scale
  oov_table_.assign(oov_config_.bucket_count * dim_, 0.0f);
  std::vector<std::uint32_t> counts(oov_config_.bucket_count, 0);
  // Scatter-average every in-vocabulary word's vector into its n-gram
  // buckets; an OOV word then composes from the buckets its own n-grams
  // share with known words (the fastText compositionality assumption).
  for (std::size_t w = 0; w < vocab_size_; ++w) {
    const auto buckets = embed::word_ngram_buckets(
        text::Corpus::word_string(static_cast<std::int32_t>(w)), oov_config_);
    for (const std::uint32_t b : buckets) {
      const float* row = source.row(w);
      float* bucket = oov_table_.data() + static_cast<std::size_t>(b) * dim_;
      for (std::size_t j = 0; j < dim_; ++j) bucket[j] += row[j];
      ++counts[b];
    }
  }
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    float* bucket = oov_table_.data() + b * dim_;
    const float inv = 1.0f / static_cast<float>(counts[b]);
    for (std::size_t j = 0; j < dim_; ++j) bucket[j] *= inv;
  }
  oov_counts_ = std::move(counts);
}

bool EmbeddingSnapshot::synthesize_oov(const std::string& word,
                                       float* out) const {
  std::fill(out, out + dim_, 0.0f);
  if (oov_table_.empty()) return false;
  const auto buckets = embed::word_ngram_buckets(word, oov_config_);
  std::size_t used = 0;
  for (const std::uint32_t b : buckets) {
    if (oov_counts_[b] == 0) continue;  // bucket never seen in-vocab
    const float* bucket = oov_table_.data() + static_cast<std::size_t>(b) * dim_;
    for (std::size_t j = 0; j < dim_; ++j) out[j] += bucket[j];
    ++used;
  }
  if (used == 0) return false;
  const float inv = 1.0f / static_cast<float>(used);
  for (std::size_t j = 0; j < dim_; ++j) out[j] *= inv;
  return true;
}

la::Matrix EmbeddingSnapshot::to_matrix(std::size_t max_rows) const {
  const std::size_t rows =
      max_rows == 0 ? vocab_size_ : std::min(max_rows, vocab_size_);
  la::Matrix m(rows, dim_);
  const std::size_t num_shards = shards_.size();
  if (config_.pq_m > 0) {
    // PQ: like the quantized path below, each shard's local rows are
    // contiguous code bytes (stride pq_m), so the needed span decodes in
    // one fused call per shard, then scatters to word order.
    const std::size_t pm = config_.pq_m;
    const std::size_t sub_dim = dim_ / pm;
    const std::size_t ksub = std::size_t{1} << config_.pq_bits;
    std::vector<float> scratch;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::size_t local_rows =
          rows / num_shards + (s < rows % num_shards ? 1 : 0);
      if (local_rows == 0) continue;
      if (scratch.size() < local_rows * dim_) scratch.resize(local_rows * dim_);
      la::kernels::pq_decode_rows(shards_[s].codes.data(), local_rows, pm,
                                  sub_dim, ksub, pq_flat_.data(),
                                  scratch.data());
      for (std::size_t l = 0; l < local_rows; ++l) {
        const float* src = scratch.data() + l * dim_;
        double* dst = m.row(l * num_shards + s);
        for (std::size_t j = 0; j < dim_; ++j) dst[j] = src[j];
      }
    }
    return m;
  }
  if (config_.bits == 32) {
    for (std::size_t w = 0; w < rows; ++w) {
      const float* src =
          shards_[w % num_shards].fp32.data() + (w / num_shards) * dim_;
      double* dst = m.row(w);
      for (std::size_t j = 0; j < dim_; ++j) dst[j] = src[j];
    }
    return m;
  }
  // Quantized: each shard's local rows are contiguous in its code block, so
  // the whole needed span unpacks in one fused dequantize_rows call into a
  // scratch sized once (the largest shard), then scatters to word order
  // (word w lives at local row w / S of shard w % S).
  std::vector<float> scratch;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t local_rows =
        rows / num_shards + (s < rows % num_shards ? 1 : 0);
    if (local_rows == 0) continue;
    if (scratch.size() < local_rows * dim_) scratch.resize(local_rows * dim_);
    la::kernels::dequantize_rows(shards_[s].codes.data(), local_rows, dim_,
                                 config_.bits, clip_, scratch.data());
    for (std::size_t l = 0; l < local_rows; ++l) {
      const float* src = scratch.data() + l * dim_;
      double* dst = m.row(l * num_shards + s);
      for (std::size_t j = 0; j < dim_; ++j) dst[j] = src[j];
    }
  }
  return m;
}

namespace {

/// B·Ω with Ω fit on the shared-vocabulary prefix of live vs source —
/// the Appendix C.2 alignment, applied at ingestion time. Writes the
/// rotated rows into `*out` and returns true; returns false WITHOUT
/// allocating anything when there is nothing to align against
/// (dimension mismatch, or too few shared rows for a full-rank fit).
bool align_to_incumbent(const EmbeddingSnapshot& live,
                        const embed::Embedding& source,
                        std::size_t align_rows, embed::Embedding* out) {
  if (live.dim() != source.dim) return false;
  std::size_t rows = std::min(live.vocab_size(), source.vocab_size);
  if (align_rows > 0) rows = std::min(rows, align_rows);
  if (rows < source.dim) return false;  // BᵀA would be rank-deficient

  const la::Matrix a = live.to_matrix(rows);
  la::Matrix b(rows, source.dim);
  for (std::size_t w = 0; w < rows; ++w) {
    const float* src = source.row(w);
    double* dst = b.row(w);
    for (std::size_t j = 0; j < source.dim; ++j) dst[j] = src[j];
  }
  const la::Matrix omega = la::procrustes_rotation(a, b);

  // Rotate every row: y = Ωᵀ·x (row-vector convention x·Ω), written
  // straight into the output matrix.
  la::Matrix omega_t(source.dim, source.dim);
  for (std::size_t r = 0; r < source.dim; ++r) {
    for (std::size_t c = 0; c < source.dim; ++c) {
      omega_t(r, c) = omega(c, r);
    }
  }
  *out = embed::Embedding(source.vocab_size, source.dim);
  std::vector<double> x(source.dim), y(source.dim);
  for (std::size_t w = 0; w < source.vocab_size; ++w) {
    const float* src = source.row(w);
    float* dst = out->row(w);
    for (std::size_t j = 0; j < source.dim; ++j) x[j] = src[j];
    la::kernels::matvec_rowmajor(omega_t.data(), source.dim, source.dim,
                                 x.data(), y.data());
    for (std::size_t j = 0; j < source.dim; ++j) {
      dst[j] = static_cast<float>(y[j]);
    }
  }
  return true;
}

}  // namespace

SnapshotPtr EmbeddingStore::add_version(const std::string& version,
                                        const embed::Embedding& source,
                                        const SnapshotConfig& config) {
  ANCHOR_CHECK_MSG(!version.empty(), "version id must be non-empty");
  ANCHOR_CHECK_MSG(version.find_first_of(",\n\r") == std::string::npos,
                   "version id must not contain commas or newlines (it is "
                   "written to CSV audit logs)");
  std::uint64_t epoch = 0;
  SnapshotPtr incumbent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = next_epoch_++;
    incumbent = live_;
  }
  // Alignment and snapshot construction (clip scan, quantization, OOV
  // table) are O(vocab·dim) and up — done outside the lock so concurrent
  // lookups never stall on an ingest.
  bool aligned = false;
  embed::Embedding aligned_copy;
  const embed::Embedding* rows = &source;
  if (config.align_to_live && incumbent) {
    aligned = align_to_incumbent(*incumbent, source, config.align_rows,
                                 &aligned_copy);
    if (aligned) rows = &aligned_copy;
  }
  auto snap = std::make_shared<const EmbeddingSnapshot>(version, *rows, config,
                                                        epoch, aligned);
  std::lock_guard<std::mutex> lock(mu_);
  versions_[version] = snap;
  if (!live_) live_ = snap;
  return snap;
}

SnapshotPtr EmbeddingStore::load_version(const std::string& version,
                                         const std::filesystem::path& path,
                                         const SnapshotConfig& config) {
  return add_version(version, embed::load_text(path), config);
}

SnapshotPtr EmbeddingStore::snapshot(const std::string& version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = versions_.find(version);
  return it == versions_.end() ? nullptr : it->second;
}

bool EmbeddingStore::has_version(const std::string& version) const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_.count(version) > 0;
}

std::vector<std::string> EmbeddingStore::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(versions_.size());
  for (const auto& [id, snap] : versions_) out.push_back(id);
  return out;
}

SnapshotPtr EmbeddingStore::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

std::string EmbeddingStore::live_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_ ? live_->version() : std::string();
}

void EmbeddingStore::set_live(const std::string& version) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = versions_.find(version);
  ANCHOR_CHECK_MSG(it != versions_.end(),
                   "cannot promote unknown version '" << version << "'");
  live_ = it->second;
}

bool EmbeddingStore::set_live_snapshot(const SnapshotPtr& snap) {
  ANCHOR_CHECK_MSG(snap != nullptr, "cannot promote a null snapshot");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = versions_.find(snap->version());
  if (it == versions_.end() || it->second != snap) return false;
  live_ = snap;
  return true;
}

void EmbeddingStore::remove_version(const std::string& version) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = versions_.find(version);
  ANCHOR_CHECK_MSG(it != versions_.end(),
                   "cannot remove unknown version '" << version << "'");
  // Also refuse when the live snapshot merely *shares the name*: a same-name
  // re-register leaves live_ pointing at the older snapshot, and erasing the
  // entry would have the store serving a version it denies knowing.
  ANCHOR_CHECK_MSG(!live_ || version != live_->version(),
                   "cannot remove the live version");
  // The registry's own reference is the only one allowed at removal time:
  // anything beyond it is an outside pin (a canary's pin_snapshot, an
  // AnnService index cache, an in-flight reader) that would otherwise have
  // its version dropped mid-flight. Acquisition always happens under mu_,
  // so this probe cannot race a new pin into existence; a concurrent
  // release only makes us refuse conservatively.
  ANCHOR_CHECK_MSG(it->second.use_count() <= 1,
                   "cannot remove version '"
                       << version << "': " << (it->second.use_count() - 1)
                       << " outside holder(s) still pin its snapshot "
                          "(canary pin, AnnService cache, or in-flight "
                          "reader); retry after they release it");
  versions_.erase(it);
}

std::size_t EmbeddingStore::total_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [id, snap] : versions_) total += snap->memory_bytes();
  return total;
}

}  // namespace anchor::serve
