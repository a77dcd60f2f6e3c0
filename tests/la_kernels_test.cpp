// Parity and determinism suite for the la/kernels SIMD layer.
//
// Three invariants hold the kernel substrate together:
//   1. the AVX2 paths agree with the scalar references to 1e-6 on random
//      inputs of every alignment (reductions reassociate; axpy and
//      dequantize_rows are bit-exact),
//   2. fused dequantize_rows reproduces the per-code compress grid exactly
//      for all of 1/2/4/8 bits, and
//   3. the parallel measures are bit-for-bit identical at any thread count.
#include "la/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "compress/quantize.hpp"
#include "core/measures.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor {
namespace {

namespace k = la::kernels;

// Sizes straddling every SIMD boundary: sub-lane, lane, unroll width, and
// non-multiples of 4/8/16.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 17,
                              31, 32, 33, 100, 255, 300, 301};

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

TEST(Kernels, DotMatchesScalar) {
  Rng rng(1);
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    EXPECT_NEAR(k::dot(a.data(), b.data(), n),
                k::scalar::dot(a.data(), b.data(), n), 1e-6)
        << "n=" << n;
  }
}

TEST(Kernels, AxpyIsBitExactWithScalar) {
  Rng rng(2);
  for (const std::size_t n : kSizes) {
    const auto x = random_vec(n, rng);
    auto y1 = random_vec(n, rng);
    auto y2 = y1;
    k::axpy(0.37, x.data(), y1.data(), n);
    k::scalar::axpy(0.37, x.data(), y2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y1[i], y2[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, RotIsBitExactWithScalar) {
  Rng rng(21);
  const double c = std::cos(0.7);
  const double s = std::sin(0.7);
  for (const std::size_t n : kSizes) {
    auto x1 = random_vec(n, rng);
    auto y1 = random_vec(n, rng);
    auto x2 = x1;
    auto y2 = y1;
    k::rot(x1.data(), y1.data(), n, c, s);
    k::scalar::rot(x2.data(), y2.data(), n, c, s);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x1[i], x2[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(y1[i], y2[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, L2NormalizeMatchesScalar) {
  Rng rng(3);
  for (const std::size_t n : kSizes) {
    auto x1 = random_vec(n, rng);
    auto x2 = x1;
    const double n1 = k::l2_normalize(x1.data(), n);
    const double n2 = k::scalar::l2_normalize(x2.data(), n);
    EXPECT_NEAR(n1, n2, 1e-6) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x1[i], x2[i], 1e-6) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, L2NormalizeLeavesZeroVectorsUntouched) {
  std::vector<double> z(13, 0.0);
  EXPECT_EQ(k::l2_normalize(z.data(), z.size()), 0.0);
  for (const double v : z) EXPECT_EQ(v, 0.0);
}

TEST(Kernels, MatvecMatchesScalar) {
  Rng rng(4);
  for (const std::size_t cols : {1u, 5u, 8u, 13u, 64u, 301u}) {
    const std::size_t rows = 17;  // odd: exercises the 2-row + tail split
    const auto m = random_vec(rows * cols, rng);
    const auto x = random_vec(cols, rng);
    std::vector<double> y1(rows), y2(rows);
    k::matvec_rowmajor(m.data(), rows, cols, x.data(), y1.data());
    k::scalar::matvec_rowmajor(m.data(), rows, cols, x.data(), y2.data());
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_NEAR(y1[i], y2[i], 1e-6) << "cols=" << cols << " i=" << i;
    }
  }
}

TEST(Kernels, GemmNtMatchesScalar) {
  Rng rng(5);
  // Shapes crossing the 32-row A tile and 4-row B block boundaries.
  const struct { std::size_t ar, br, c; } shapes[] = {
      {1, 1, 1}, {3, 5, 7}, {4, 4, 8}, {33, 9, 13}, {65, 34, 31}, {40, 41, 300}};
  for (const auto& s : shapes) {
    const auto a = random_vec(s.ar * s.c, rng);
    const auto b = random_vec(s.br * s.c, rng);
    std::vector<double> c1(s.ar * s.br), c2(s.ar * s.br);
    k::gemm_nt(a.data(), s.ar, b.data(), s.br, s.c, c1.data());
    k::scalar::gemm_nt(a.data(), s.ar, b.data(), s.br, s.c, c2.data());
    for (std::size_t i = 0; i < c1.size(); ++i) {
      EXPECT_NEAR(c1[i], c2[i], 1e-6)
          << s.ar << "x" << s.br << "x" << s.c << " i=" << i;
    }
  }
}

TEST(Kernels, ForcedScalarDispatchStillWorks) {
  const bool was = k::simd_enabled();
  k::set_simd_enabled(false);
  EXPECT_STREQ(k::active_isa(), "scalar");
  Rng rng(6);
  const auto a = random_vec(37, rng);
  const auto b = random_vec(37, rng);
  EXPECT_EQ(k::dot(a.data(), b.data(), 37),
            k::scalar::dot(a.data(), b.data(), 37));
  k::set_simd_enabled(was);
  EXPECT_EQ(k::simd_enabled(), was && k::simd_available());
}

// Packs `values` the way EmbeddingSnapshot::encode_shard_row does:
// little-endian codes within each byte, rows padded to whole bytes.
std::vector<std::uint8_t> pack_rows(const std::vector<float>& values,
                                    std::size_t rows, std::size_t dim,
                                    int bits, float clip) {
  const std::size_t stride = k::packed_row_bytes(dim, bits);
  const std::size_t per = 8u / static_cast<std::size_t>(bits);
  std::vector<std::uint8_t> packed(rows * stride, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < dim; ++j) {
      const std::uint32_t code =
          compress::quantize_code(values[r * dim + j], clip, bits);
      packed[r * stride + j / per] |= static_cast<std::uint8_t>(
          code << ((j % per) * static_cast<std::size_t>(bits)));
    }
  }
  return packed;
}

TEST(Kernels, DequantizeRowsMatchesPerCodePathForAllBitWidths) {
  Rng rng(7);
  const float clip = 0.9f;
  for (const int bits : {1, 2, 4, 8}) {
    // dim 13 exercises the sub-byte tail and the non-multiple-of-8 SIMD tail.
    for (const std::size_t dim : {1u, 7u, 8u, 13u, 64u, 300u}) {
      const std::size_t rows = 5;
      std::vector<float> values(rows * dim);
      for (auto& v : values) v = static_cast<float>(rng.normal(0.0, 0.5));
      const auto packed = pack_rows(values, rows, dim, bits, clip);

      std::vector<float> fused(rows * dim), scalar(rows * dim);
      k::dequantize_rows(packed.data(), rows, dim, bits, clip, fused.data());
      k::scalar::dequantize_rows(packed.data(), rows, dim, bits, clip,
                                 scalar.data());
      for (std::size_t i = 0; i < values.size(); ++i) {
        // Bit-exact round trip: fused == scalar == the per-code grid.
        const std::uint32_t code =
            compress::quantize_code(values[i], clip, bits);
        const float reference = compress::dequantize_code(code, clip, bits);
        EXPECT_EQ(fused[i], reference)
            << "bits=" << bits << " dim=" << dim << " i=" << i;
        EXPECT_EQ(fused[i], scalar[i])
            << "bits=" << bits << " dim=" << dim << " i=" << i;
      }
    }
  }
}

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  la::Matrix m(rows, cols);
  Rng rng(seed);
  for (auto& x : m.storage()) x = rng.normal(0.0, 1.0);
  return m;
}

TEST(Kernels, ParallelKnnMeasureIsBitForBitDeterministic) {
  const la::Matrix x = random_matrix(120, 24, 11);
  la::Matrix xt = x;
  Rng noise(12);
  for (auto& v : xt.storage()) v += 0.05 * noise.normal(0.0, 1.0);

  util::set_global_pool_threads(1);
  const double single = core::knn_measure(x, xt, 5, 60, 42);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::set_global_pool_threads(threads);
    const double parallel = core::knn_measure(x, xt, 5, 60, 42);
    EXPECT_EQ(single, parallel) << "threads=" << threads;
  }
  util::set_global_pool_threads(0);  // restore default sizing
}

TEST(Kernels, ParallelSemanticDisplacementIsBitForBitDeterministic) {
  const la::Matrix x = random_matrix(80, 16, 13);
  la::Matrix xt = x;
  Rng noise(14);
  for (auto& v : xt.storage()) v += 0.1 * noise.normal(0.0, 1.0);

  util::set_global_pool_threads(1);
  const double single = core::semantic_displacement(x, xt);
  util::set_global_pool_threads(4);
  EXPECT_EQ(single, core::semantic_displacement(x, xt));
  util::set_global_pool_threads(0);
}

TEST(Kernels, AdcScanIsBitExactWithScalar) {
  // The IVF-PQ merge contract leans on adc_scan being bit-exact between
  // the AVX2 gather path and the scalar reference: shards and the single-
  // process oracle must produce identical ADC distances. Sweep counts, m,
  // and ksub across SIMD boundaries (odd counts exercise the scalar tail,
  // ksub 3 a non-power-of-two LUT stride).
  Rng rng(41);
  for (const std::size_t count : {1u, 2u, 7u, 8u, 9u, 16u, 31u, 100u}) {
    for (const std::size_t m : {1u, 2u, 3u, 8u, 13u}) {
      for (const std::size_t ksub : {2u, 3u, 16u, 256u}) {
        std::vector<std::uint8_t> codes(count * m);
        for (auto& c : codes) {
          c = static_cast<std::uint8_t>(rng.index(ksub));
        }
        std::vector<float> lut(m * ksub);
        for (auto& v : lut) v = static_cast<float>(rng.normal(0.0, 1.0));
        std::vector<float> simd(count, -1.0f), ref(count, -2.0f);
        k::adc_scan(codes.data(), count, m, ksub, lut.data(), simd.data());
        k::scalar::adc_scan(codes.data(), count, m, ksub, lut.data(),
                            ref.data());
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(simd[i], ref[i])
              << "count=" << count << " m=" << m << " ksub=" << ksub
              << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, PqDecodeRowsIsBitExactWithScalar) {
  // The PQ snapshot merge contract (shared-codebook shards decode the same
  // bytes to the same floats) leans on pq_decode_rows being bit-exact
  // between the AVX2 and scalar paths. Pure centroid copies make that hold
  // by construction; this pins it. Sub-dims straddle the 8- and 4-lane
  // boundaries (odd sub-dims exercise the scalar tail).
  Rng rng(59);
  for (const std::size_t rows : {1u, 2u, 7u, 16u, 33u}) {
    for (const std::size_t m : {1u, 2u, 3u, 8u}) {
      for (const std::size_t sub_dim : {1u, 3u, 4u, 7u, 8u, 11u, 16u, 19u}) {
        const std::size_t ksub = 16;
        std::vector<std::uint8_t> codes(rows * m);
        for (auto& c : codes) c = static_cast<std::uint8_t>(rng.index(ksub));
        std::vector<float> books(m * ksub * sub_dim);
        for (auto& v : books) v = static_cast<float>(rng.normal(0.0, 1.0));
        std::vector<float> simd(rows * m * sub_dim, -1.0f);
        std::vector<float> ref(rows * m * sub_dim, -2.0f);
        k::pq_decode_rows(codes.data(), rows, m, sub_dim, ksub, books.data(),
                          simd.data());
        k::scalar::pq_decode_rows(codes.data(), rows, m, sub_dim, ksub,
                                  books.data(), ref.data());
        for (std::size_t i = 0; i < simd.size(); ++i) {
          EXPECT_EQ(simd[i], ref[i]) << "rows=" << rows << " m=" << m
                                     << " sub_dim=" << sub_dim << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, L2SqF32MatchesScalar) {
  // Reduction: FMA reassociation allowed, so tolerance not bit-equality.
  Rng rng(43);
  for (const std::size_t n : kSizes) {
    std::vector<float> a(n), b(n);
    for (auto& x : a) x = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& x : b) x = static_cast<float>(rng.normal(0.0, 1.0));
    const float simd = k::l2_sq_f32(a.data(), b.data(), n);
    const float ref = k::scalar::l2_sq_f32(a.data(), b.data(), n);
    EXPECT_NEAR(simd, ref, 1e-5 * (1.0 + std::abs(ref))) << "n=" << n;
  }
}

TEST(Kernels, L2SqToCentroidsIsBitExactWithScalarAndThePlainLoop) {
  // PQ training and IVF-PQ encoding promise the same codebooks and codes
  // on every ISA, so both instances must match the scalar reference and a
  // plain per-centroid loop (the per-pair sequence the kernel replaces)
  // bit for bit. k straddles the 4/8-lane registers and the 32/64-lane
  // blocks; d covers a single coordinate up to a full coarse row.
  Rng rng(61);
  for (const std::size_t d : {1u, 3u, 8u, 17u, 64u}) {
    for (const std::size_t kc : {1u, 2u, 3u, 4u, 7u, 8u, 13u, 31u, 32u, 33u,
                                 63u, 64u, 65u, 100u, 256u}) {
      std::vector<float> point(d), cents(kc * d);
      for (auto& x : point) x = static_cast<float>(rng.normal(0.0, 1.0));
      for (auto& x : cents) x = static_cast<float>(rng.normal(0.0, 1.0));
      std::vector<double> t64(d * kc);
      std::vector<float> t32(d * kc);
      for (std::size_t c = 0; c < kc; ++c) {
        for (std::size_t j = 0; j < d; ++j) {
          t64[j * kc + c] = cents[c * d + j];
          t32[j * kc + c] = cents[c * d + j];
        }
      }
      std::vector<double> simd64(kc, -1.0), ref64(kc, -2.0);
      std::vector<float> simd32(kc, -1.0f), ref32(kc, -2.0f);
      k::l2_sq_to_centroids(point.data(), t64.data(), d, kc, simd64.data());
      k::scalar::l2_sq_to_centroids(point.data(), t64.data(), d, kc,
                                    ref64.data());
      k::l2_sq_to_centroids(point.data(), t32.data(), d, kc, simd32.data());
      k::scalar::l2_sq_to_centroids(point.data(), t32.data(), d, kc,
                                    ref32.data());
      for (std::size_t c = 0; c < kc; ++c) {
        double plain64 = 0.0;
        float plain32 = 0.0f;
        for (std::size_t j = 0; j < d; ++j) {
          const double diff64 =
              static_cast<double>(cents[c * d + j]) - point[j];
          plain64 += diff64 * diff64;
          const float diff32 = point[j] - cents[c * d + j];
          plain32 += diff32 * diff32;
        }
        EXPECT_EQ(simd64[c], ref64[c]) << "d=" << d << " k=" << kc;
        EXPECT_EQ(ref64[c], plain64) << "d=" << d << " k=" << kc;
        EXPECT_EQ(simd32[c], ref32[c]) << "d=" << d << " k=" << kc;
        EXPECT_EQ(ref32[c], plain32) << "d=" << d << " k=" << kc;
      }
    }
  }
}

TEST(Kernels, PrenormalizedKnnEqualsPlainKnn) {
  const la::Matrix x = random_matrix(60, 12, 15);
  const la::Matrix xt = random_matrix(60, 12, 16);
  const double plain = core::knn_measure(x, xt, 3, 40, 7);
  const double pre = core::knn_measure_normalized(
      core::normalize_rows_l2(x), core::normalize_rows_l2(xt), 3, 40, 7);
  EXPECT_EQ(plain, pre);
}

}  // namespace
}  // namespace anchor
