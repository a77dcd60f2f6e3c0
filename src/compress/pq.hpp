// Product quantization of embedding rows (Jégou et al., 2011 style), as a
// stand-in for the "deep compositional code learning" family the paper's
// §2.3 cites (Shu & Nakayama, 2018): each row is split into m sub-vectors
// and each sub-vector is replaced by the nearest of 2^b learned centroids,
// so a row costs m·b bits plus a shared codebook. Like DCCL it is a
// vector-level (not scalar) compressor, which is the property that matters
// for the stability comparison.
//
// The Wiki'18 member of a pair can reuse its partner's codebooks
// (`codebooks_override`), mirroring the shared-clip-threshold protocol of
// Appendix C.2.
//
// Determinism: training and encoding run the nearest-centroid search in
// parallel over points (util::global_pool) through one distance kernel,
// la::kernels::l2_sq_to_centroids, whose AVX2 and scalar paths give the
// same bits. Everything that combines points — distortion sums, the
// farthest-point scan that re-seeds empty clusters, the centroid sums —
// runs serially in point order. So codebooks, codes and distortion are
// the same bits at any pool size and on any ISA.
#pragma once

#include <cstdint>
#include <vector>

#include "embed/embedding.hpp"

namespace anchor::compress {

struct PqConfig {
  std::size_t num_subvectors = 4;  // m; must divide the embedding dimension
  int bits = 6;                    // per sub-vector code width; 2^b centroids
  std::size_t max_iters = 40;      // Lloyd iterations per sub-quantizer
  double tol = 1e-7;
  std::uint64_t seed = 1;
  /// When non-empty: m codebooks, each 2^b × (dim/m) row-major floats.
  std::vector<std::vector<float>> codebooks_override;
};

struct PqResult {
  embed::Embedding embedding;  // rows reconstructed from their codes
  /// codebooks[s] holds 2^b centroids of sub-dimension dim/m, row-major.
  std::vector<std::vector<float>> codebooks;
  /// codes[w·m + s] = centroid index of word w's sub-vector s.
  std::vector<std::uint32_t> codes;
  double distortion = 0.0;     // mean squared reconstruction error per entry

  /// Storage cost of the coded representation in bits per word (excludes
  /// the shared codebook, amortized across the vocabulary).
  std::size_t bits_per_word() const { return codebooks.size() * code_bits; }
  int code_bits = 0;
};

/// Learns (or reuses) per-sub-vector codebooks with Lloyd k-means and
/// reconstructs every row from its nearest codes: pq_train_codebooks (or
/// config.codebooks_override), then pq_encode, then the reconstruction.
PqResult pq_quantize(const embed::Embedding& input, const PqConfig& config);

/// The training half of pq_quantize alone: the m codebooks it learns when
/// config.codebooks_override is empty (the override is not consulted), with
/// no codes, reconstruction or distortion.
std::vector<std::vector<float>> pq_train_codebooks(
    const embed::Embedding& input, const PqConfig& config);

/// The codebook pq_train_codebooks learns for sub-vector `s`, trained on
/// `n` contiguous sub-vectors of `sub_dim` floats that the caller laid out
/// (the IVF-PQ residual stage builds one residual slice at a time, so no
/// n × dim residual matrix exists). config.num_subvectors and the override
/// are not consulted; the seed is config.seed + s.
std::vector<float> pq_train_slice(const float* points, std::size_t n,
                                  std::size_t sub_dim, const PqConfig& config,
                                  std::size_t s);

/// The encoding half of pq_quantize alone: codes[w·m + s], the nearest of
/// codebooks[s]'s 2^bits centroids to row w's sub-vector s, with no n × dim
/// reconstruction. m = codebooks.size() must divide input.dim and each
/// codebook hold 2^bits × (dim/m) floats. A pure function of (row bytes,
/// codebooks): the same codes pq_quantize returns, at any pool size.
std::vector<std::uint32_t> pq_encode(
    const embed::Embedding& input,
    const std::vector<std::vector<float>>& codebooks, int bits);

}  // namespace anchor::compress
