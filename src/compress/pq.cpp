#include "compress/pq.hpp"

#include <algorithm>
#include <limits>

#include "la/kernels.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor::compress {

namespace {

/// Points per parallel_for item: enough k·d distance work to dwarf the
/// cost of claiming it, few enough items to balance the pool.
constexpr std::size_t kChunk = 256;

/// The s-th sub-vector of every row, contiguous (n × sub_dim): the input's
/// own storage when there is one sub-vector, else gathered into `buf`.
const float* slice_of(const embed::Embedding& input, std::size_t s,
                      std::size_t sub_dim, std::vector<float>& buf) {
  if (sub_dim == input.dim) return input.data.data();
  buf.resize(input.vocab_size * sub_dim);
  for (std::size_t w = 0; w < input.vocab_size; ++w) {
    std::copy_n(input.row(w) + s * sub_dim, sub_dim, buf.data() + w * sub_dim);
  }
  return buf.data();
}

/// Nearest centroid of each of the n points: assign[i] is the first
/// centroid at the least squared distance (a NaN distance never wins; a
/// point with no finite distance goes to centroid 0) and dist[i] the
/// distance to it. Parallel over chunks of points, each writing only its
/// own slots, so the result is the same at any pool size; the kernel
/// makes it the same on any ISA.
void assign_nearest(const float* points, std::size_t n, std::size_t sub_dim,
                    const std::vector<float>& codebook, std::size_t k,
                    std::vector<std::uint32_t>& assign,
                    std::vector<double>& dist) {
  // Transposed (sub_dim × k) and widened to double: the kernel's layout.
  std::vector<double> cents(sub_dim * k);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < sub_dim; ++j) {
      cents[j * k + c] = codebook[c * sub_dim + j];
    }
  }
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  util::global_pool().parallel_for(0, chunks, [&](std::size_t chunk) {
    std::vector<double> row(k);
    const std::size_t end = std::min(n, (chunk + 1) * kChunk);
    for (std::size_t i = chunk * kChunk; i < end; ++i) {
      la::kernels::l2_sq_to_centroids(points + i * sub_dim, cents.data(),
                                      sub_dim, k, row.data());
      std::uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < k; ++c) {
        if (row[c] < best_dist) {
          best_dist = row[c];
          best = static_cast<std::uint32_t>(c);
        }
      }
      assign[i] = best;
      dist[i] = row[best];
    }
  });
}

/// Lloyd k-means over the `n` sub-vectors of one slice. Initialization is
/// deterministic given the seed (distinct random rows), and empty clusters
/// are re-seeded from the point currently farthest from its centroid. The
/// assignment runs in parallel; the distortion, the farthest-point scan
/// and the centroid sums run serially in point order.
std::vector<float> lloyd(const float* points, std::size_t n,
                         std::size_t sub_dim, std::size_t k,
                         std::size_t max_iters, double tol,
                         std::uint64_t seed) {
  anchor::Rng rng(seed);
  std::vector<float> codebook(k * sub_dim);
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t pick = rng.index(n);
    std::copy_n(points + pick * sub_dim, sub_dim,
                codebook.data() + c * sub_dim);
  }

  std::vector<std::uint32_t> assign(n, 0);
  std::vector<double> dist(n);
  std::vector<double> sums(k * sub_dim);
  std::vector<std::size_t> counts(k);
  double prev_distortion = std::numeric_limits<double>::max();

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    assign_nearest(points, n, sub_dim, codebook, k, assign, dist);
    double distortion = 0.0;
    double worst_dist = -1.0;
    std::size_t worst_point = 0;
    for (std::size_t i = 0; i < n; ++i) {
      distortion += dist[i];
      if (dist[i] > worst_dist) {
        worst_dist = dist[i];
        worst_point = i;
      }
    }
    distortion /= static_cast<double>(n);

    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      for (std::size_t j = 0; j < sub_dim; ++j) {
        sums[assign[i] * sub_dim + j] += points[i * sub_dim + j];
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        std::copy_n(points + worst_point * sub_dim, sub_dim,
                    codebook.data() + c * sub_dim);
        continue;
      }
      for (std::size_t j = 0; j < sub_dim; ++j) {
        codebook[c * sub_dim + j] = static_cast<float>(
            sums[c * sub_dim + j] / static_cast<double>(counts[c]));
      }
    }
    if (prev_distortion - distortion <
        tol * std::max(prev_distortion, 1e-30)) {
      break;
    }
    prev_distortion = distortion;
  }
  return codebook;
}

void check_shape(const embed::Embedding& input, const PqConfig& config) {
  ANCHOR_CHECK_GT(config.num_subvectors, 0u);
  ANCHOR_CHECK_GT(config.bits, 0);
  ANCHOR_CHECK_LE(config.bits, 16);
  ANCHOR_CHECK_EQ(input.dim % config.num_subvectors, 0u);
  ANCHOR_CHECK_GT(input.vocab_size, 0u);
}

/// pq_encode's body: writes the codes to `codes` and returns the summed
/// squared distance of every sub-vector to its centroid, added in
/// (sub-vector, row) order — pq_quantize's distortion numerator.
double encode_rows(const embed::Embedding& input,
                   const std::vector<std::vector<float>>& codebooks, int bits,
                   std::vector<std::uint32_t>& codes) {
  const std::size_t m = codebooks.size();
  ANCHOR_CHECK_GT(m, 0u);
  ANCHOR_CHECK_GT(bits, 0);
  ANCHOR_CHECK_LE(bits, 16);
  ANCHOR_CHECK_EQ(input.dim % m, 0u);
  const std::size_t sub_dim = input.dim / m;
  const std::size_t k = std::size_t{1} << bits;
  const std::size_t n = input.vocab_size;
  for (const std::vector<float>& codebook : codebooks) {
    ANCHOR_CHECK_EQ(codebook.size(), k * sub_dim);
  }
  codes.assign(n * m, 0);
  double total_err = 0.0;
  std::vector<float> buf;
  std::vector<std::uint32_t> assign(n);
  std::vector<double> dist(n);
  for (std::size_t s = 0; s < m; ++s) {
    assign_nearest(slice_of(input, s, sub_dim, buf), n, sub_dim, codebooks[s],
                   k, assign, dist);
    for (std::size_t w = 0; w < n; ++w) {
      codes[w * m + s] = assign[w];
      total_err += dist[w];
    }
  }
  return total_err;
}

}  // namespace

std::vector<float> pq_train_slice(const float* points, std::size_t n,
                                  std::size_t sub_dim, const PqConfig& config,
                                  std::size_t s) {
  ANCHOR_CHECK_GT(config.bits, 0);
  ANCHOR_CHECK_LE(config.bits, 16);
  const std::size_t k = std::size_t{1} << config.bits;
  // More centroids than points would silently shrink the codebook and break
  // the shared-codebook protocol between a pair; reject loudly instead.
  ANCHOR_CHECK_MSG(k <= n, "2^bits centroids exceed the vocabulary size");
  return lloyd(points, n, sub_dim, k, config.max_iters, config.tol,
               config.seed + s);
}

std::vector<std::vector<float>> pq_train_codebooks(
    const embed::Embedding& input, const PqConfig& config) {
  check_shape(input, config);
  const std::size_t m = config.num_subvectors;
  const std::size_t sub_dim = input.dim / m;
  std::vector<std::vector<float>> codebooks(m);
  std::vector<float> buf;
  for (std::size_t s = 0; s < m; ++s) {
    codebooks[s] = pq_train_slice(slice_of(input, s, sub_dim, buf),
                                  input.vocab_size, sub_dim, config, s);
  }
  return codebooks;
}

std::vector<std::uint32_t> pq_encode(
    const embed::Embedding& input,
    const std::vector<std::vector<float>>& codebooks, int bits) {
  std::vector<std::uint32_t> codes;
  encode_rows(input, codebooks, bits, codes);
  return codes;
}

PqResult pq_quantize(const embed::Embedding& input, const PqConfig& config) {
  check_shape(input, config);
  const std::size_t m = config.num_subvectors;
  const std::size_t sub_dim = input.dim / m;

  PqResult result;
  result.code_bits = config.bits;
  if (config.codebooks_override.empty()) {
    result.codebooks = pq_train_codebooks(input, config);
  } else {
    // The codebook is fixed, not trained, so a slice smaller than k (e.g.
    // one shard of a sharded store encoding with shared codebooks) is fine.
    ANCHOR_CHECK_EQ(config.codebooks_override.size(), m);
    result.codebooks = config.codebooks_override;
  }
  const double total_err =
      encode_rows(input, result.codebooks, config.bits, result.codes);
  result.distortion = total_err / static_cast<double>(input.data.size());

  result.embedding = embed::Embedding(input.vocab_size, input.dim);
  for (std::size_t w = 0; w < input.vocab_size; ++w) {
    for (std::size_t s = 0; s < m; ++s) {
      std::copy_n(result.codebooks[s].data() +
                      std::size_t{result.codes[w * m + s]} * sub_dim,
                  sub_dim, result.embedding.row(w) + s * sub_dim);
    }
  }
  return result;
}

}  // namespace anchor::compress
