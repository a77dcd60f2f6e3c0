// IVF-PQ approximate nearest-neighbor index over an embedding snapshot —
// the serving-path realization of the paper's k-NN instability measure:
// the same top-k sets whose churn across versions core/measures scores
// offline are served online from this index (and their churn across INDEX
// versions is the new promotion-gate measure, ann::AnnService::topk_churn).
//
// Structure (Jégou et al., 2011):
//   • A coarse quantizer of 2^nlist_bits k-means cells, trained with the
//     vector k-means already inside compress/pq (a PQ with one sub-vector
//     IS a full-dimension vector quantizer — the codebook is the cell
//     centroid set, the codes are the cell assignments).
//   • Per-row PQ codes of the RESIDUAL (row − its cell centroid), m
//     sub-quantizers × 2^pq_bits centroids each, trained one residual
//     slice at a time with compress::pq_train_slice.
//   • Search: probe the nprobe cells nearest the query, score every row in
//     them with the asymmetric-distance (ADC) LUT kernel
//     la::kernels::adc_scan, keep the `rerank` best as a shortlist, and
//     re-rank the shortlist with exact fp32 L2 against the snapshot rows.
//
// Determinism contract (what the cluster merge test pins): every float in
// a search result is a deterministic function of (row bytes, training
// artifacts, query, knobs). Shards that encode their row slices with
// SHARED artifacts (IvfPqArtifacts — the shared-across-shards codebooks,
// same protocol as the PQ codebooks_override / shared clip threshold of
// Appendix C.2) produce per-row cell assignments, codes, ADC and exact
// distances identical to a single-process index over the concatenated
// rows, so a router-side merge of per-shard candidate lists reconstructs
// the single-process result bit for bit (ties broken by ascending id).
//
// Training and encoding parallelize over points only: each pool chunk
// writes its own rows' cell, codes and distances, and everything that
// combines rows (training's distortion and centroid sums, the cell counts
// and inverted lists) runs serially in id order. Every nearest-centroid
// distance — training, encoding and the search LUT — comes from one
// kernel, la::kernels::l2_sq_to_centroids, whose AVX2 and scalar paths
// give the same bits. So artifacts, codes and inverted lists are the same
// bits at any pool size and on any ISA.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/embedding_store.hpp"

namespace anchor::ann {

/// Shared default knobs: the router fills unset (0) per-request knobs with
/// these same values it assumes the backends use, so an explicit value is
/// always on the wire for merged searches.
inline constexpr std::size_t kDefaultNprobe = 8;
inline constexpr std::size_t kDefaultRerank = 64;

/// Deployment-shared training artifacts. Train once (on the full
/// concatenated rows, or any common sample), hand the SAME artifacts to
/// every shard: row encoding becomes a pure function of the row bytes, the
/// precondition for router-merged top-k ≡ single-process top-k.
struct IvfPqArtifacts {
  std::size_t dim = 0;
  /// nlist × dim row-major cell centroids.
  std::vector<float> coarse;
  /// codebooks[s]: 2^pq_bits × (dim/m) row-major residual centroids.
  std::vector<std::vector<float>> codebooks;

  bool empty() const { return coarse.empty(); }
  std::size_t nlist() const {
    return dim == 0 ? 0 : coarse.size() / dim;
  }
};

struct AnnConfig {
  /// Coarse cells = 2^nlist_bits, clamped down so cells ≤ vocab.
  int nlist_bits = 6;
  /// PQ sub-quantizers; clamped to the largest divisor of dim ≤ pq_m.
  std::size_t pq_m = 8;
  /// Code width per sub-quantizer (≤ 8: codes are stored as bytes);
  /// clamped down so 2^pq_bits ≤ vocab.
  int pq_bits = 8;
  /// Default cells probed / shortlist re-ranked when a query passes 0.
  std::size_t nprobe = kDefaultNprobe;
  std::size_t rerank = kDefaultRerank;
  /// Lloyd iterations + seed for both training stages.
  std::size_t train_iters = 25;
  std::uint64_t seed = 42;
  /// When non-empty, skip training and encode with these shared artifacts
  /// (the multi-shard deployment contract).
  IvfPqArtifacts artifacts;
};

/// One search hit. `id` is a row id in the index's own (local) id space;
/// the cluster layer translates to global ids via the shard's row_begin.
struct TopKHit {
  std::uint64_t id = 0;
  float exact = 0.0f;  // exact fp32 L2² to the snapshot row
  float adc = 0.0f;    // ADC (LUT-approximated) L2² that shortlisted it
};

/// Reply shape of the TOPK RPC (wire codec in net/wire.hpp).
inline constexpr std::uint8_t kTopKFlagPartial = 1;  // ≥1 shard degraded

struct TopKResult {
  std::string version;             // snapshot the index was built from
  std::uint32_t cells_probed = 0;  // summed across shards when merged
  std::uint32_t shortlist = 0;     // ADC candidates re-ranked exactly
  std::uint8_t flags = 0;
  std::vector<TopKHit> hits;
};

/// Trains coarse + residual codebooks on `rows` with AnnConfig's knobs.
/// Deterministic given (rows, config): shards training on the same rows
/// (e.g. the full pre-slice matrix) get identical artifacts.
IvfPqArtifacts train_ivfpq(const embed::Embedding& rows,
                           const AnnConfig& config);

/// Artifacts mirroring a PQ-mode snapshot's own encoding: one all-zero
/// coarse cell (residual ≡ row) plus the snapshot's codebooks. An index
/// built with these artifacts over that snapshot reuses the stored codes
/// verbatim — the store and the index share one encoding, no re-encode,
/// no training pass. Requires snap.is_pq().
IvfPqArtifacts snapshot_artifacts(const serve::EmbeddingSnapshot& snap);

class IvfPqIndex {
 public:
  /// Builds the index over every row of `snap` (dequantized through the
  /// same path lookups serve, so quantized deployments sharing a clip
  /// threshold stay byte-deterministic across shards). Trains artifacts
  /// on the snapshot's own rows unless config.artifacts is set — except
  /// for PQ-mode snapshots, which default to snapshot_artifacts() so the
  /// index reuses the store's codes/codebooks instead of re-encoding.
  IvfPqIndex(serve::SnapshotPtr snap, const AnnConfig& config);

  const std::string& version() const { return snap_->version(); }
  std::uint64_t epoch() const { return snap_->epoch(); }
  std::size_t vocab_size() const { return n_; }
  std::size_t dim() const { return dim_; }
  std::size_t nlist() const { return nlist_; }
  std::size_t pq_m() const { return m_; }
  std::size_t ksub() const { return ksub_; }
  const AnnConfig& config() const { return config_; }
  /// The artifacts this index encodes with (trained or shared) — what a
  /// deployment extracts from its reference index to hand to shards.
  const IvfPqArtifacts& artifacts() const { return artifacts_; }
  /// True when the build copied the snapshot's stored PQ codes instead of
  /// re-encoding every row: the snapshot is PQ-mode and the artifacts
  /// (explicit or defaulted) match its encoding exactly.
  bool reused_snapshot_codes() const { return reused_snapshot_codes_; }
  /// The encoded index as built: inverted-list offsets and ids, and the
  /// cell-block code bytes (layout documented on the members below).
  const std::vector<std::uint32_t>& cell_start() const { return cell_start_; }
  const std::vector<std::uint32_t>& cell_ids() const { return cell_ids_; }
  const std::vector<std::uint8_t>& codes() const { return codes_; }

  /// The candidate stage: the `rerank` rows with the smallest ADC distance
  /// among the nprobe probed cells, each scored exactly as well, sorted by
  /// (adc, id) ascending. hits[i].id is a local row id. This is what a
  /// shard returns for a router-merged search (TOPK mode 1).
  TopKResult candidates(const float* query, std::size_t rerank,
                        std::size_t nprobe) const;

  /// Full search: candidates, then the k best by (exact, id) ascending.
  /// 0-valued knobs fall back to config defaults.
  TopKResult search(const float* query, std::size_t k, std::size_t nprobe = 0,
                    std::size_t rerank = 0) const;

 private:
  void build(const AnnConfig& config);

  serve::SnapshotPtr snap_;
  AnnConfig config_;  // effective (clamped) knobs
  std::size_t n_ = 0, dim_ = 0;
  std::size_t nlist_ = 0;    // coarse cells
  std::size_t m_ = 0;        // PQ sub-quantizers (divides dim_)
  std::size_t sub_dim_ = 0;  // dim_ / m_
  std::size_t ksub_ = 0;     // 2^pq_bits residual centroids per sub-quantizer
  bool reused_snapshot_codes_ = false;
  IvfPqArtifacts artifacts_;
  /// artifacts_.codebooks transposed for la::kernels::l2_sq_to_centroids:
  /// sub-quantizer s's sub_dim_ × ksub_ block starts at s·sub_dim_·ksub_.
  std::vector<float> codebooks_t_;
  /// Inverted lists: rows grouped by cell, ids ascending within each cell.
  std::vector<std::uint32_t> cell_start_;  // nlist_+1 prefix offsets
  std::vector<std::uint32_t> cell_ids_;    // n_ local row ids
  /// PQ codes in the cell-block column-major layout adc_scan consumes:
  /// cell c's block starts at cell_start_[c]·m_ and holds, for each
  /// sub-quantizer s, cell_count contiguous code bytes.
  std::vector<std::uint8_t> codes_;
};

using IvfPqIndexPtr = std::shared_ptr<const IvfPqIndex>;

}  // namespace anchor::ann
