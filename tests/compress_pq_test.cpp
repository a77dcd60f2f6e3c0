// Dedicated suite for compress/pq (product quantization): codebook
// shapes, code→centroid reconstruction round-trip, distortion accounting,
// rate-matched comparison against uniform quantization, and the shared-
// codebook protocol a Wiki'17/Wiki'18 pair uses (Appendix C.2 analogue).
// PQ snapshots are the ROADMAP rung after canarying, so this pins the
// contract that storage backend will build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "compress/pq.hpp"
#include "compress/quantize.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor::compress {
namespace {

embed::Embedding random_embedding(std::size_t vocab, std::size_t dim,
                                  std::uint64_t seed) {
  embed::Embedding e(vocab, dim);
  Rng rng(seed);
  for (auto& x : e.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  return e;
}

double mse(const embed::Embedding& a, const embed::Embedding& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    const double d = static_cast<double>(a.data[i]) - b.data[i];
    acc += d * d;
  }
  return acc / static_cast<double>(a.data.size());
}

TEST(Pq, CodebookShapesCodesAndReconstructionRoundTrip) {
  const auto input = random_embedding(96, 16, 5);
  PqConfig config;
  config.num_subvectors = 4;
  config.bits = 4;
  const PqResult result = pq_quantize(input, config);

  const std::size_t m = 4, sub_dim = 4, k = 16;
  ASSERT_EQ(result.codebooks.size(), m);
  for (const auto& cb : result.codebooks) {
    EXPECT_EQ(cb.size(), k * sub_dim);
  }
  ASSERT_EQ(result.codes.size(), input.vocab_size * m);
  EXPECT_EQ(result.code_bits, 4);
  EXPECT_EQ(result.bits_per_word(), m * 4u);
  ASSERT_EQ(result.embedding.vocab_size, input.vocab_size);
  ASSERT_EQ(result.embedding.dim, input.dim);

  // The reconstructed rows must be EXACTLY what the codes say: row w,
  // slice s is the codebook centroid codes[w·m + s], bit for bit. This
  // is the round-trip a future PQ snapshot backend depends on (store
  // codes, decode in copy_row).
  for (std::size_t w = 0; w < input.vocab_size; ++w) {
    for (std::size_t s = 0; s < m; ++s) {
      const std::uint32_t code = result.codes[w * m + s];
      ASSERT_LT(code, k);
      const float* centroid =
          result.codebooks[s].data() + code * sub_dim;
      const float* rec = result.embedding.row(w) + s * sub_dim;
      for (std::size_t j = 0; j < sub_dim; ++j) {
        EXPECT_EQ(rec[j], centroid[j]) << "w=" << w << " s=" << s;
      }
    }
  }

  // Reported distortion is the mean squared reconstruction error.
  EXPECT_NEAR(result.distortion, mse(input, result.embedding),
              1e-12 + 1e-9 * result.distortion);
  // Each code must also be the NEAREST centroid for its sub-vector.
  for (std::size_t w = 0; w < input.vocab_size; ++w) {
    for (std::size_t s = 0; s < m; ++s) {
      const float* sub = input.row(w) + s * sub_dim;
      const std::uint32_t assigned = result.codes[w * m + s];
      double assigned_dist = 0.0;
      for (std::size_t j = 0; j < sub_dim; ++j) {
        const double d =
            sub[j] - result.codebooks[s][assigned * sub_dim + j];
        assigned_dist += d * d;
      }
      for (std::size_t c = 0; c < k; ++c) {
        double dist = 0.0;
        for (std::size_t j = 0; j < sub_dim; ++j) {
          const double d = sub[j] - result.codebooks[s][c * sub_dim + j];
          dist += d * d;
        }
        EXPECT_GE(dist, assigned_dist - 1e-9);
      }
    }
  }
}

TEST(Pq, BeatsUniformQuantizationAtTheSameRate) {
  // Rate-matched comparison on the same rows: m=4 sub-vectors × 8 bits =
  // 32 bits/word, exactly what 2-bit uniform quantization costs at
  // dim 16. A vector quantizer with 256 centroids per 4-dim slice should
  // crush a 4-level scalar grid.
  const auto input = random_embedding(640, 16, 9);
  PqConfig pq;
  pq.num_subvectors = 4;
  pq.bits = 8;
  const PqResult coded = pq_quantize(input, pq);
  ASSERT_EQ(coded.bits_per_word(), 32u);

  QuantizeConfig uniform;
  uniform.bits = 2;
  ASSERT_EQ(bits_per_word(input.dim, uniform.bits), 32u);
  const QuantizeResult grid = uniform_quantize(input, uniform);

  const double pq_mse = coded.distortion;
  const double uniform_mse = mse(input, grid.embedding);
  EXPECT_LT(pq_mse, uniform_mse);
  // And not marginally: vector quantization at this rate is typically
  // several times better on Gaussian rows.
  EXPECT_LT(pq_mse, 0.5 * uniform_mse);

  // More code bits → monotonically better (sanity on the rate axis).
  PqConfig small = pq;
  small.bits = 2;
  EXPECT_GT(pq_quantize(input, small).distortion, pq_mse);
}

TEST(Pq, SharedCodebookOverrideReproducesPartnerGeometry) {
  // The Wiki'18 member of a pair reuses its partner's codebooks so the
  // compression itself adds no disagreement (Appendix C.2 protocol).
  const auto wiki17 = random_embedding(200, 12, 13);
  auto wiki18 = wiki17;
  Rng rng(14);
  for (auto& x : wiki18.data) {
    x += static_cast<float>(rng.normal(0.0, 0.02));
  }

  PqConfig config;
  config.num_subvectors = 3;
  config.bits = 5;
  const PqResult first = pq_quantize(wiki17, config);

  PqConfig reuse = config;
  reuse.codebooks_override = first.codebooks;
  const PqResult second = pq_quantize(wiki18, reuse);
  // The override is used verbatim — no re-training.
  ASSERT_EQ(second.codebooks.size(), first.codebooks.size());
  for (std::size_t s = 0; s < first.codebooks.size(); ++s) {
    EXPECT_EQ(second.codebooks[s], first.codebooks[s]);
  }

  // Re-coding the ORIGINAL embedding against its own codebooks is a
  // fixed point: same codes, same reconstruction.
  PqConfig self = config;
  self.codebooks_override = first.codebooks;
  const PqResult again = pq_quantize(wiki17, self);
  EXPECT_EQ(again.codes, first.codes);
  EXPECT_EQ(again.embedding.data, first.embedding.data);

  // A near-identical partner coded on shared codebooks lands on mostly
  // the same codes — the whole point of sharing them.
  std::size_t same = 0;
  for (std::size_t i = 0; i < first.codes.size(); ++i) {
    same += first.codes[i] == second.codes[i] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(same) /
                static_cast<double>(first.codes.size()),
            0.9);
}

TEST(Pq, DeterministicAcrossRunsAndRejectsBadShapes) {
  const auto input = random_embedding(64, 8, 21);
  PqConfig config;
  config.num_subvectors = 2;
  config.bits = 3;
  const PqResult a = pq_quantize(input, config);
  const PqResult b = pq_quantize(input, config);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.embedding.data, b.embedding.data);
  EXPECT_EQ(a.distortion, b.distortion);

  // m must divide dim; 2^bits must not exceed the vocabulary.
  PqConfig bad_m = config;
  bad_m.num_subvectors = 3;
  EXPECT_THROW(pq_quantize(input, bad_m), std::exception);
  PqConfig bad_k = config;
  bad_k.bits = 7;  // 128 centroids > 64 rows
  EXPECT_THROW(pq_quantize(input, bad_k), std::exception);

  // ... unless the codebooks come from an override: a fixed codebook is
  // not trained, so a slice smaller than 2^bits (one shard of a sharded
  // store encoding with shared codebooks) must encode fine.
  const auto big = random_embedding(256, 8, 22);
  PqConfig train7 = config;
  train7.bits = 7;
  const PqResult full = pq_quantize(big, train7);
  embed::Embedding tiny(4, 8);
  std::copy_n(big.data.begin(), tiny.data.size(), tiny.data.begin());
  PqConfig shard = train7;
  shard.codebooks_override = full.codebooks;
  const PqResult sliced = pq_quantize(tiny, shard);
  for (std::size_t w = 0; w < tiny.vocab_size; ++w) {
    for (std::size_t s = 0; s < shard.num_subvectors; ++s) {
      EXPECT_EQ(sliced.codes[w * shard.num_subvectors + s],
                full.codes[w * shard.num_subvectors + s]);
    }
  }
}

TEST(Pq, EncodeAloneGivesPqQuantizesCodesAtEveryPoolSize) {
  // pq_encode is pq_quantize without the reconstruction: against the
  // codebooks pq_quantize trained (and against an override), it must give
  // the same codes, whatever the pool size.
  const auto input = random_embedding(1200, 24, 31);
  const auto other = random_embedding(500, 24, 32);
  PqConfig config;
  config.num_subvectors = 3;
  config.bits = 5;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::set_global_pool_threads(threads);
    const PqResult trained = pq_quantize(input, config);
    EXPECT_EQ(pq_encode(input, trained.codebooks, config.bits), trained.codes)
        << threads << " threads";
    EXPECT_EQ(pq_train_codebooks(input, config), trained.codebooks)
        << threads << " threads";
    PqConfig shared = config;
    shared.codebooks_override = trained.codebooks;
    EXPECT_EQ(pq_encode(other, trained.codebooks, config.bits),
              pq_quantize(other, shared).codes)
        << threads << " threads";
  }
  util::set_global_pool_threads(0);
  // Codebooks that do not match the bit width are rejected.
  const PqResult trained = pq_quantize(input, config);
  EXPECT_THROW(pq_encode(input, trained.codebooks, config.bits + 1),
               std::exception);
}

}  // namespace
}  // namespace anchor::compress
