#include "ann/ivf_pq.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "compress/pq.hpp"
#include "la/kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace anchor::ann {
namespace {

/// Effective knobs for a given store shape: nlist/pq_bits shrink until the
/// k-means problems are well-posed (2^bits ≤ rows), pq_m shrinks to the
/// largest divisor of dim. Pure function of (config, n, dim), so every
/// process sizing an index over the same store agrees.
AnnConfig clamp_config(const AnnConfig& config, std::size_t n,
                       std::size_t dim) {
  AnnConfig c = config;
  c.nlist_bits = std::max(0, std::min(c.nlist_bits, 16));
  while (c.nlist_bits > 0 && (std::size_t{1} << c.nlist_bits) > n) {
    --c.nlist_bits;
  }
  c.pq_bits = std::max(1, std::min(c.pq_bits, 8));
  while (c.pq_bits > 1 && (std::size_t{1} << c.pq_bits) > n) {
    --c.pq_bits;
  }
  c.pq_m = std::min(std::max<std::size_t>(c.pq_m, 1), dim);
  while (dim % c.pq_m != 0) --c.pq_m;
  if (c.nprobe == 0) c.nprobe = kDefaultNprobe;
  if (c.rerank == 0) c.rerank = kDefaultRerank;
  return c;
}

/// Rows encoded per parallel_for item: enough distance work to dwarf the
/// cost of claiming it, few enough items to balance the pool.
constexpr std::size_t kEncodeChunk = 256;

/// Index of the smallest of row[0 .. count): the first minimum wins, so
/// ties break toward the lowest centroid id.
std::size_t argmin(const float* row, std::size_t count) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < count; ++c) {
    if (row[c] < row[best]) best = c;
  }
  return best;
}

/// `count` × `dim` row-major centroids transposed into `out` (dim × count),
/// the layout la::kernels::l2_sq_to_centroids reads.
void transpose_into(const float* centroids, std::size_t count,
                    std::size_t dim, float* out) {
  for (std::size_t c = 0; c < count; ++c) {
    for (std::size_t j = 0; j < dim; ++j) {
      out[j * count + c] = centroids[c * dim + j];
    }
  }
}

embed::Embedding snapshot_rows(const serve::EmbeddingSnapshot& snap) {
  embed::Embedding rows(snap.vocab_size(), snap.dim());
  std::vector<std::size_t> ids(rows.vocab_size);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  snap.copy_rows(ids.data(), ids.size(), rows.data.data());
  return rows;
}

/// Do these artifacts describe exactly the encoding a PQ snapshot already
/// stores? Requires the trivial coarse stage (one all-zero cell, so the
/// residual IS the row) and bitwise-equal codebooks. Float equality is the
/// right comparison: matching artifacts come from the same training run,
/// so anything but equality means a different encoding.
bool artifacts_match_snapshot(const IvfPqArtifacts& art,
                              const serve::EmbeddingSnapshot& snap) {
  if (!snap.is_pq()) return false;
  if (art.nlist() != 1 || art.dim != snap.dim()) return false;
  for (const float c : art.coarse) {
    if (c != 0.0f) return false;
  }
  return art.codebooks == snap.pq_codebook_vectors();
}

}  // namespace

IvfPqArtifacts train_ivfpq(const embed::Embedding& rows,
                           const AnnConfig& config) {
  ANCHOR_CHECK_GT(rows.vocab_size, std::size_t{0});
  ANCHOR_CHECK_GT(rows.dim, std::size_t{0});
  const AnnConfig c = clamp_config(config, rows.vocab_size, rows.dim);

  // Stage 1 — coarse cells. A product quantizer with a single sub-vector is
  // a full-dimension vector quantizer: its one codebook is the cell
  // centroid set and its codes are the cell assignments.
  compress::PqConfig coarse_cfg;
  coarse_cfg.num_subvectors = 1;
  coarse_cfg.bits = c.nlist_bits == 0 ? 1 : c.nlist_bits;
  coarse_cfg.max_iters = c.train_iters;
  coarse_cfg.seed = c.seed;
  std::vector<std::vector<float>> coarse =
      compress::pq_train_codebooks(rows, coarse_cfg);
  const std::vector<std::uint32_t> cells =
      compress::pq_encode(rows, coarse, coarse_cfg.bits);
  IvfPqArtifacts art;
  art.dim = rows.dim;
  art.coarse = std::move(coarse[0]);
  if (c.nlist_bits == 0) {
    // One cell: its centroid is the first (and only) trained centroid.
    art.coarse.resize(rows.dim);
  }

  // Stage 2 — residual codebooks, trained on (row − its cell centroid).
  // Residuals concentrate around 0 regardless of which cell a row landed
  // in, which is why one codebook set can be shared across all cells.
  // Training only: the index encodes the rows itself. Each sub-quantizer
  // trains on its own n × sub_dim residual slice, built just before, so
  // the stage never holds an n × dim residual matrix.
  compress::PqConfig pq_cfg;
  pq_cfg.num_subvectors = c.pq_m;
  pq_cfg.bits = c.pq_bits;
  pq_cfg.max_iters = c.train_iters;
  pq_cfg.seed = c.seed + 1;
  const std::size_t nlist = art.nlist();
  const std::size_t sub_dim = rows.dim / c.pq_m;
  std::vector<float> slice(rows.vocab_size * sub_dim);
  art.codebooks.resize(c.pq_m);
  for (std::size_t s = 0; s < c.pq_m; ++s) {
    for (std::size_t w = 0; w < rows.vocab_size; ++w) {
      std::size_t cell = cells[w];
      if (cell >= nlist) cell = 0;
      const float* cent = art.coarse.data() + cell * rows.dim + s * sub_dim;
      const float* src = rows.row(w) + s * sub_dim;
      float* dst = slice.data() + w * sub_dim;
      for (std::size_t j = 0; j < sub_dim; ++j) dst[j] = src[j] - cent[j];
    }
    art.codebooks[s] = compress::pq_train_slice(slice.data(), rows.vocab_size,
                                                sub_dim, pq_cfg, s);
  }
  return art;
}

IvfPqArtifacts snapshot_artifacts(const serve::EmbeddingSnapshot& snap) {
  ANCHOR_CHECK_MSG(snap.is_pq(),
                   "snapshot_artifacts requires a pq-mode snapshot");
  IvfPqArtifacts art;
  art.dim = snap.dim();
  art.coarse.assign(snap.dim(), 0.0f);  // one zero cell: residual == row
  art.codebooks = snap.pq_codebook_vectors();
  return art;
}

IvfPqIndex::IvfPqIndex(serve::SnapshotPtr snap, const AnnConfig& config)
    : snap_(std::move(snap)) {
  ANCHOR_CHECK(snap_ != nullptr);
  n_ = snap_->vocab_size();
  dim_ = snap_->dim();
  ANCHOR_CHECK_GT(n_, std::size_t{0});
  build(config);
}

void IvfPqIndex::build(const AnnConfig& config) {
  namespace k = la::kernels;
  config_ = clamp_config(config, n_, dim_);

  // Training and encoding read the same dequantized rows: materialize them
  // once, and only for the paths that need them.
  embed::Embedding rows;
  if (!config.artifacts.empty()) {
    ANCHOR_CHECK_EQ(config.artifacts.dim, dim_);
    ANCHOR_CHECK(!config.artifacts.codebooks.empty());
    artifacts_ = config.artifacts;
  } else if (snap_->is_pq()) {
    // The store already paid for a PQ encoding of every row — mirror it
    // instead of training a second one, so index and snapshot share one
    // set of codes/codebooks (and the build below skips re-encoding).
    artifacts_ = snapshot_artifacts(*snap_);
  } else {
    rows = snapshot_rows(*snap_);
    artifacts_ = train_ivfpq(rows, config_);
  }
  config_.artifacts = IvfPqArtifacts{};  // knobs only; artifacts_ is canonical

  nlist_ = artifacts_.nlist();
  m_ = artifacts_.codebooks.size();
  ANCHOR_CHECK_GT(nlist_, std::size_t{0});
  ANCHOR_CHECK_GT(m_, std::size_t{0});
  ANCHOR_CHECK_EQ(dim_ % m_, std::size_t{0});
  sub_dim_ = dim_ / m_;
  ksub_ = artifacts_.codebooks[0].size() / sub_dim_;
  ANCHOR_CHECK_GT(ksub_, std::size_t{0});
  ANCHOR_CHECK_LE(ksub_, std::size_t{256});  // codes_ stores bytes
  codebooks_t_.resize(m_ * sub_dim_ * ksub_);
  for (std::size_t s = 0; s < m_; ++s) {
    ANCHOR_CHECK_EQ(artifacts_.codebooks[s].size(), ksub_ * sub_dim_);
    transpose_into(artifacts_.codebooks[s].data(), ksub_, sub_dim_,
                   codebooks_t_.data() + s * sub_dim_ * ksub_);
  }

  reused_snapshot_codes_ = artifacts_match_snapshot(artifacts_, *snap_);
  if (reused_snapshot_codes_) {
    // The snapshot's stored codes ARE this index's codes: one cell holding
    // every row, ids ascending, codes transposed into the column-major
    // block adc_scan consumes. Still a pure function of (row bytes,
    // artifacts), so shards whose snapshots encode with SHARED codebooks
    // merge bit-identically to a single-process index — the same contract
    // as the trained-artifacts path, minus the O(n·ksub·dim) re-encode.
    cell_start_ = {0, static_cast<std::uint32_t>(n_)};
    cell_ids_.resize(n_);
    std::iota(cell_ids_.begin(), cell_ids_.end(), std::uint32_t{0});
    codes_.resize(n_ * m_);
    for (std::size_t w = 0; w < n_; ++w) {
      const std::uint8_t* row = snap_->pq_row_codes(w);
      for (std::size_t s = 0; s < m_; ++s) codes_[s * n_ + w] = row[s];
    }
    return;
  }

  // Encode every row: cell assignment + residual PQ codes, in parallel
  // over row chunks (each writes only its own rows' slots). Encoding is a
  // pure function of (row bytes, artifacts_) — the kernel gives the same
  // bits on every ISA — which is the shard-determinism contract from the
  // header.
  if (rows.data.empty()) rows = snapshot_rows(*snap_);
  std::vector<float> coarse_t(dim_ * nlist_);
  transpose_into(artifacts_.coarse.data(), nlist_, dim_, coarse_t.data());
  std::vector<std::uint32_t> cell_of(n_);
  std::vector<std::uint8_t> row_codes(n_ * m_);  // row-major staging
  const std::size_t chunks = (n_ + kEncodeChunk - 1) / kEncodeChunk;
  util::global_pool().parallel_for(0, chunks, [&](std::size_t chunk) {
    std::vector<float> dist(std::max(nlist_, ksub_));
    std::vector<float> residual(dim_);
    const std::size_t end = std::min(n_, (chunk + 1) * kEncodeChunk);
    for (std::size_t w = chunk * kEncodeChunk; w < end; ++w) {
      const float* src = rows.row(w);
      k::l2_sq_to_centroids(src, coarse_t.data(), dim_, nlist_, dist.data());
      const std::size_t cell = argmin(dist.data(), nlist_);
      cell_of[w] = static_cast<std::uint32_t>(cell);
      const float* cent = artifacts_.coarse.data() + cell * dim_;
      for (std::size_t j = 0; j < dim_; ++j) residual[j] = src[j] - cent[j];
      for (std::size_t s = 0; s < m_; ++s) {
        k::l2_sq_to_centroids(residual.data() + s * sub_dim_,
                              codebooks_t_.data() + s * sub_dim_ * ksub_,
                              sub_dim_, ksub_, dist.data());
        row_codes[w * m_ + s] =
            static_cast<std::uint8_t>(argmin(dist.data(), ksub_));
      }
    }
  });
  std::vector<std::uint32_t> cell_count(nlist_, 0);
  for (std::size_t w = 0; w < n_; ++w) ++cell_count[cell_of[w]];

  // Inverted lists with ids ascending within each cell (rows are visited in
  // id order below), plus the per-cell column-major code blocks adc_scan
  // consumes.
  cell_start_.assign(nlist_ + 1, 0);
  for (std::size_t c = 0; c < nlist_; ++c) {
    cell_start_[c + 1] = cell_start_[c] + cell_count[c];
  }
  cell_ids_.resize(n_);
  codes_.resize(n_ * m_);
  std::vector<std::uint32_t> fill(nlist_, 0);
  for (std::size_t w = 0; w < n_; ++w) {
    const std::size_t c = cell_of[w];
    const std::size_t pos = fill[c]++;
    cell_ids_[cell_start_[c] + pos] = static_cast<std::uint32_t>(w);
    const std::size_t base = std::size_t{cell_start_[c]} * m_;
    const std::size_t count = cell_count[c];
    for (std::size_t s = 0; s < m_; ++s) {
      codes_[base + s * count + pos] = row_codes[w * m_ + s];
    }
  }
}

TopKResult IvfPqIndex::candidates(const float* query, std::size_t rerank,
                                  std::size_t nprobe) const {
  namespace k = la::kernels;
  if (rerank == 0) rerank = config_.rerank;
  if (nprobe == 0) nprobe = config_.nprobe;
  nprobe = std::min(nprobe, nlist_);

  // Rank cells by coarse distance; ties break toward the lower cell id so
  // the probe set is deterministic (and identical on every shard — coarse
  // distances depend only on the shared centroids and the query).
  std::vector<std::pair<float, std::uint32_t>> cell_rank(nlist_);
  for (std::size_t c = 0; c < nlist_; ++c) {
    cell_rank[c] = {k::l2_sq_f32(query, artifacts_.coarse.data() + c * dim_,
                                 dim_),
                    static_cast<std::uint32_t>(c)};
  }
  std::partial_sort(cell_rank.begin(), cell_rank.begin() + nprobe,
                    cell_rank.end());

  // ADC over each probed cell: per-cell LUT (the residual target is
  // query − centroid, so the LUT is per cell, not per query), then one
  // adc_scan sweep over the cell's column-major code block.
  std::vector<float> lut(m_ * ksub_);
  std::vector<float> residual(dim_);
  std::vector<float> adc;
  std::vector<std::pair<float, std::uint32_t>> pool;  // (adc, local id)
  for (std::size_t p = 0; p < nprobe; ++p) {
    const std::uint32_t c = cell_rank[p].second;
    const std::size_t begin = cell_start_[c];
    const std::size_t count = cell_start_[c + 1] - begin;
    if (count == 0) continue;
    const float* cent = artifacts_.coarse.data() + std::size_t{c} * dim_;
    for (std::size_t j = 0; j < dim_; ++j) residual[j] = query[j] - cent[j];
    for (std::size_t s = 0; s < m_; ++s) {
      k::l2_sq_to_centroids(residual.data() + s * sub_dim_,
                            codebooks_t_.data() + s * sub_dim_ * ksub_,
                            sub_dim_, ksub_, lut.data() + s * ksub_);
    }
    adc.resize(count);
    k::adc_scan(codes_.data() + begin * m_, count, m_, ksub_, lut.data(),
                adc.data());
    for (std::size_t i = 0; i < count; ++i) {
      pool.emplace_back(adc[i], cell_ids_[begin + i]);
    }
  }

  // Shortlist: best `rerank` by (adc, id) — the id tiebreak is what makes
  // the router-side merge reconstruct this exact selection.
  const std::size_t keep = std::min(rerank, pool.size());
  std::partial_sort(pool.begin(), pool.begin() + keep, pool.end());
  pool.resize(keep);

  TopKResult out;
  out.version = snap_->version();
  out.cells_probed = static_cast<std::uint32_t>(nprobe);
  out.shortlist = static_cast<std::uint32_t>(keep);
  out.hits.resize(keep);
  if (keep > 0) {
    // Exact re-rank distances against the true snapshot rows.
    std::vector<std::size_t> ids(keep);
    for (std::size_t i = 0; i < keep; ++i) ids[i] = pool[i].second;
    std::vector<float> exact_rows(keep * dim_);
    snap_->copy_rows(ids.data(), keep, exact_rows.data());
    for (std::size_t i = 0; i < keep; ++i) {
      out.hits[i].id = pool[i].second;
      out.hits[i].adc = pool[i].first;
      out.hits[i].exact =
          k::l2_sq_f32(query, exact_rows.data() + i * dim_, dim_);
    }
  }
  return out;
}

TopKResult IvfPqIndex::search(const float* query, std::size_t k,
                              std::size_t nprobe, std::size_t rerank) const {
  TopKResult out = candidates(query, rerank, nprobe);
  std::sort(out.hits.begin(), out.hits.end(),
            [](const TopKHit& a, const TopKHit& b) {
              return a.exact != b.exact ? a.exact < b.exact : a.id < b.id;
            });
  if (out.hits.size() > k) out.hits.resize(k);
  return out;
}

}  // namespace anchor::ann
