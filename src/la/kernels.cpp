#include "la/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "util/check.hpp"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(ANCHOR_DISABLE_SIMD)
#define ANCHOR_KERNELS_AVX2 1
#include <immintrin.h>
#else
#define ANCHOR_KERNELS_AVX2 0
#endif

namespace anchor::la::kernels {

// ---- scalar reference path ---------------------------------------------

namespace scalar {

double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void rot(double* x, double* y, std::size_t n, double c, double s) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

double l2_normalize(double* x, std::size_t n) {
  const double norm = std::sqrt(dot(x, x, n));
  if (norm > 0.0) {
    const double inv = 1.0 / norm;
    for (std::size_t i = 0; i < n; ++i) x[i] *= inv;
  }
  return norm;
}

void matvec_rowmajor(const double* m, std::size_t rows, std::size_t cols,
                     const double* x, double* y) {
  for (std::size_t i = 0; i < rows; ++i) y[i] = dot(m + i * cols, x, cols);
}

void gemm_nt(const double* a, std::size_t a_rows, const double* b,
             std::size_t b_rows, std::size_t cols, double* c) {
  for (std::size_t i = 0; i < a_rows; ++i) {
    const double* arow = a + i * cols;
    double* crow = c + i * b_rows;
    for (std::size_t j = 0; j < b_rows; ++j) {
      crow[j] = dot(arow, b + j * cols, cols);
    }
  }
}

void dequantize_rows(const std::uint8_t* codes, std::size_t num_rows,
                     std::size_t dim, int bits, float clip, float* out) {
  ANCHOR_CHECK_MSG(bits == 1 || bits == 2 || bits == 4 || bits == 8,
                   "dequantize_rows supports bits in {1,2,4,8}");
  const std::size_t stride = packed_row_bytes(dim, bits);
  // Same expression shape as compress::dequantize_code: -clip + code·delta,
  // delta computed once per call — fused per-row instead of per-code.
  const float levels = static_cast<float>((1u << bits) - 1u);
  const float delta = (2.0f * clip) / levels;
  const std::size_t per = 8u / static_cast<std::size_t>(bits);
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << bits) - 1u);
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::uint8_t* row_bytes = codes + r * stride;
    float* dst = out + r * dim;
    for (std::size_t j = 0; j < dim; ++j) {
      const std::size_t shift = (j % per) * static_cast<std::size_t>(bits);
      const std::uint8_t code =
          static_cast<std::uint8_t>((row_bytes[j / per] >> shift) & mask);
      dst[j] = -clip + static_cast<float>(code) * delta;
    }
  }
}

void adc_scan(const std::uint8_t* codes, std::size_t count, std::size_t m,
              std::size_t ksub, const float* lut, float* out) {
  for (std::size_t i = 0; i < count; ++i) {
    float acc = 0.0f;
    for (std::size_t s = 0; s < m; ++s) {
      acc += lut[s * ksub + codes[s * count + i]];
    }
    out[i] = acc;
  }
}

void pq_decode_rows(const std::uint8_t* codes, std::size_t num_rows,
                    std::size_t m, std::size_t sub_dim, std::size_t ksub,
                    const float* codebooks, float* out) {
  const std::size_t dim = m * sub_dim;
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::uint8_t* row_codes = codes + r * m;
    float* dst = out + r * dim;
    for (std::size_t s = 0; s < m; ++s) {
      const float* centroid =
          codebooks + (s * ksub + row_codes[s]) * sub_dim;
      for (std::size_t j = 0; j < sub_dim; ++j) {
        dst[s * sub_dim + j] = centroid[j];
      }
    }
  }
}

float l2_sq_f32(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

namespace {

template <typename T>
void l2_sq_to_centroids_impl(const float* point, const T* centroids_t,
                             std::size_t d, std::size_t k, T* out) {
  std::fill_n(out, k, T{0});
  for (std::size_t j = 0; j < d; ++j) {
    const T p = point[j];
    const T* row = centroids_t + j * k;
    for (std::size_t c = 0; c < k; ++c) {
      const T diff = p - row[c];
      out[c] += diff * diff;
    }
  }
}

}  // namespace

void l2_sq_to_centroids(const float* point, const double* centroids_t,
                        std::size_t d, std::size_t k, double* out) {
  l2_sq_to_centroids_impl(point, centroids_t, d, k, out);
}

void l2_sq_to_centroids(const float* point, const float* centroids_t,
                        std::size_t d, std::size_t k, float* out) {
  l2_sq_to_centroids_impl(point, centroids_t, d, k, out);
}

}  // namespace scalar

std::size_t packed_row_bytes(std::size_t dim, int bits) {
  const std::size_t per = 8u / static_cast<std::size_t>(bits);
  return (dim + per - 1) / per;
}

namespace {

// Expands one bit-packed row (lowest bits first within each byte, the
// EmbeddingSnapshot layout) into byte-per-code form. Byte-at-a-time with
// unrolled shifts — ~3× the per-code modulo walk the scalar baseline keeps.
inline void unpack_codes_fast(const std::uint8_t* row_bytes, std::size_t dim,
                              int bits, std::uint8_t* codes) {
  std::size_t j = 0;
  std::size_t b = 0;
  switch (bits) {
    case 1:
      for (; j + 8 <= dim; j += 8, ++b) {
        const std::uint8_t v = row_bytes[b];
        codes[j] = v & 1u;
        codes[j + 1] = (v >> 1) & 1u;
        codes[j + 2] = (v >> 2) & 1u;
        codes[j + 3] = (v >> 3) & 1u;
        codes[j + 4] = (v >> 4) & 1u;
        codes[j + 5] = (v >> 5) & 1u;
        codes[j + 6] = (v >> 6) & 1u;
        codes[j + 7] = (v >> 7) & 1u;
      }
      for (; j < dim; ++j) codes[j] = (row_bytes[b] >> (j % 8)) & 1u;
      break;
    case 2:
      for (; j + 4 <= dim; j += 4, ++b) {
        const std::uint8_t v = row_bytes[b];
        codes[j] = v & 3u;
        codes[j + 1] = (v >> 2) & 3u;
        codes[j + 2] = (v >> 4) & 3u;
        codes[j + 3] = v >> 6;
      }
      for (; j < dim; ++j) codes[j] = (row_bytes[b] >> ((j % 4) * 2)) & 3u;
      break;
    case 4:
      for (; j + 2 <= dim; j += 2, ++b) {
        const std::uint8_t v = row_bytes[b];
        codes[j] = v & 15u;
        codes[j + 1] = v >> 4;
      }
      if (j < dim) codes[j] = row_bytes[b] & 15u;
      break;
    default:
      break;
  }
}

}  // namespace

// ---- AVX2 + FMA path ---------------------------------------------------

#if ANCHOR_KERNELS_AVX2

namespace avx2 {

__attribute__((target("avx2,fma"))) static inline double hsum(__m256d v) {
  // ((v0+v2) + (v1+v3)) — fixed lane order keeps repeated calls identical.
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

__attribute__((target("avx2,fma"))) double dot(const double* a,
                                               const double* b,
                                               std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
  }
  double total =
      hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

__attribute__((target("avx2,fma"))) void axpy(double alpha, const double* x,
                                              double* y, std::size_t n) {
  // mul+add rather than fmadd: the contract is bit-exactness with the
  // scalar y[i] += alpha·x[i] (the project builds with -ffp-contract=off).
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
    _mm256_storeu_pd(
        y + i + 4,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                      _mm256_mul_pd(va, _mm256_loadu_pd(x + i + 4))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) void rot(double* x, double* y,
                                             std::size_t n, double c,
                                             double s) {
  // mul/sub/add without contraction: bit-exact with scalar::rot.
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(
        x + i, _mm256_sub_pd(_mm256_mul_pd(vc, vx), _mm256_mul_pd(vs, vy)));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(vs, vx), _mm256_mul_pd(vc, vy)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

__attribute__((target("avx2,fma"))) double l2_normalize(double* x,
                                                        std::size_t n) {
  const double norm = std::sqrt(dot(x, x, n));
  if (norm > 0.0) {
    const __m256d vinv = _mm256_set1_pd(1.0 / norm);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), vinv));
    }
    const double inv = 1.0 / norm;
    for (; i < n; ++i) x[i] *= inv;
  }
  return norm;
}

__attribute__((target("avx2,fma"))) void matvec_rowmajor(
    const double* m, std::size_t rows, std::size_t cols, const double* x,
    double* y) {
  // Two rows per iteration share each load of x.
  std::size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    const double* r0 = m + i * cols;
    const double* r1 = r0 + cols;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      const __m256d vx = _mm256_loadu_pd(x + j);
      a0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j), vx, a0);
      a1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j), vx, a1);
    }
    double s0 = hsum(a0);
    double s1 = hsum(a1);
    for (; j < cols; ++j) {
      s0 += r0[j] * x[j];
      s1 += r1[j] * x[j];
    }
    y[i] = s0;
    y[i + 1] = s1;
  }
  for (; i < rows; ++i) y[i] = dot(m + i * cols, x, cols);
}

__attribute__((target("avx2,fma"))) void gemm_nt(const double* a,
                                                 std::size_t a_rows,
                                                 const double* b,
                                                 std::size_t b_rows,
                                                 std::size_t cols, double* c) {
  // Register blocking: 4 B-rows share each A load (4 independent FMA
  // accumulators); cache blocking: a 32-row A tile stays L2-resident while
  // the B panel streams past it once.
  constexpr std::size_t kARowTile = 32;
  for (std::size_t ib = 0; ib < a_rows; ib += kARowTile) {
    const std::size_t i_end = std::min(ib + kARowTile, a_rows);
    std::size_t j = 0;
    for (; j + 4 <= b_rows; j += 4) {
      const double* b0 = b + j * cols;
      const double* b1 = b0 + cols;
      const double* b2 = b1 + cols;
      const double* b3 = b2 + cols;
      for (std::size_t i = ib; i < i_end; ++i) {
        const double* arow = a + i * cols;
        __m256d a0 = _mm256_setzero_pd();
        __m256d a1 = _mm256_setzero_pd();
        __m256d a2 = _mm256_setzero_pd();
        __m256d a3 = _mm256_setzero_pd();
        std::size_t k = 0;
        for (; k + 4 <= cols; k += 4) {
          const __m256d va = _mm256_loadu_pd(arow + k);
          a0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b0 + k), a0);
          a1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b1 + k), a1);
          a2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b2 + k), a2);
          a3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b3 + k), a3);
        }
        double s0 = hsum(a0);
        double s1 = hsum(a1);
        double s2 = hsum(a2);
        double s3 = hsum(a3);
        for (; k < cols; ++k) {
          const double av = arow[k];
          s0 += av * b0[k];
          s1 += av * b1[k];
          s2 += av * b2[k];
          s3 += av * b3[k];
        }
        double* crow = c + i * b_rows + j;
        crow[0] = s0;
        crow[1] = s1;
        crow[2] = s2;
        crow[3] = s3;
      }
    }
    for (; j < b_rows; ++j) {
      const double* brow = b + j * cols;
      for (std::size_t i = ib; i < i_end; ++i) {
        c[i * b_rows + j] = dot(a + i * cols, brow, cols);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void dequantize_codes8(
    const std::uint8_t* codes, std::size_t n, float clip, float delta,
    float* out) {
  // mul+add (not fma) matches the scalar -clip + code·delta bit-for-bit.
  const __m256 vdelta = _mm256_set1_ps(delta);
  const __m256 vnegclip = _mm256_set1_ps(-clip);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i b8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + j));
    const __m256 vf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b8));
    _mm256_storeu_ps(out + j,
                     _mm256_add_ps(_mm256_mul_ps(vf, vdelta), vnegclip));
  }
  for (; j < n; ++j) {
    out[j] = -clip + static_cast<float>(codes[j]) * delta;
  }
}

void dequantize_rows(const std::uint8_t* codes, std::size_t num_rows,
                     std::size_t dim, int bits, float clip, float* out) {
  ANCHOR_CHECK_MSG(bits == 1 || bits == 2 || bits == 4 || bits == 8,
                   "dequantize_rows supports bits in {1,2,4,8}");
  const std::size_t stride = packed_row_bytes(dim, bits);
  const float levels = static_cast<float>((1u << bits) - 1u);
  const float delta = (2.0f * clip) / levels;
  // Sub-byte codes unpack into a reused byte-per-code scratch first; the
  // byte→float conversion then shares the 8-bit SIMD path.
  thread_local std::vector<std::uint8_t> scratch;
  if (bits < 8 && scratch.size() < dim) scratch.resize(dim);
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::uint8_t* row_bytes = codes + r * stride;
    const std::uint8_t* row_codes = row_bytes;
    if (bits < 8) {
      unpack_codes_fast(row_bytes, dim, bits, scratch.data());
      row_codes = scratch.data();
    }
    dequantize_codes8(row_codes, dim, clip, delta, out + r * dim);
  }
}

__attribute__((target("avx2,fma"))) void adc_scan(
    const std::uint8_t* codes, std::size_t count, std::size_t m,
    std::size_t ksub, const float* lut, float* out) {
  // 8 rows per iteration: one 8-byte load per sub-quantizer picks up the
  // rows' codes (the column-major cell layout makes them contiguous), a
  // gather fetches their LUT entries. Plain adds in ascending s order —
  // each out[i] sums in exactly the scalar order, so this path is
  // bit-exact with scalar::adc_scan.
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t s = 0; s < m; ++s) {
      const __m128i b8 = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(codes + s * count + i));
      const __m256i idx = _mm256_cvtepu8_epi32(b8);
      acc = _mm256_add_ps(
          acc, _mm256_i32gather_ps(lut + s * ksub, idx, sizeof(float)));
    }
    _mm256_storeu_ps(out + i, acc);
  }
  for (; i < count; ++i) {
    float acc = 0.0f;
    for (std::size_t s = 0; s < m; ++s) {
      acc += lut[s * ksub + codes[s * count + i]];
    }
    out[i] = acc;
  }
}

__attribute__((target("avx2,fma"))) void pq_decode_rows(
    const std::uint8_t* codes, std::size_t num_rows, std::size_t m,
    std::size_t sub_dim, std::size_t ksub, const float* codebooks,
    float* out) {
  // Pure centroid copies, widened to 8-float vector moves. No arithmetic
  // touches the values, so this path is bit-exact with scalar by
  // construction. Two sub-quantizers per iteration keep both the code
  // fetch and the store stream busy.
  const std::size_t dim = m * sub_dim;
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::uint8_t* row_codes = codes + r * m;
    float* dst = out + r * dim;
    for (std::size_t s = 0; s < m; ++s) {
      const float* centroid = codebooks + (s * ksub + row_codes[s]) * sub_dim;
      float* slice = dst + s * sub_dim;
      std::size_t j = 0;
      for (; j + 8 <= sub_dim; j += 8) {
        _mm256_storeu_ps(slice + j, _mm256_loadu_ps(centroid + j));
      }
      for (; j + 4 <= sub_dim; j += 4) {
        _mm_storeu_ps(slice + j, _mm_loadu_ps(centroid + j));
      }
      for (; j < sub_dim; ++j) slice[j] = centroid[j];
    }
  }
}

__attribute__((target("avx2,fma"))) float l2_sq_f32(const float* a,
                                                    const float* b,
                                                    std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  // Fixed lane order, like hsum: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
  const __m256 acc = _mm256_add_ps(acc0, acc1);
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  float total = _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 1)));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

// l2_sq_to_centroids: each lane owns one centroid and runs the scalar
// sequence acc += (p − c)·(p − c) in ascending j — separate sub, mul and
// add, never an FMA — so every out[c] is bit-exact with scalar. Eight
// accumulators per block keep enough independent add chains in flight to
// cover the add latency; a one-register loop and a scalar tail take the
// rest of k. Vec is the float or double lane set of one ymm register.
struct VecD {
  using T = double;
  using V = __m256d;
  static constexpr std::size_t kLanes = 4;
  __attribute__((target("avx2,fma"))) static V zero() {
    return _mm256_setzero_pd();
  }
  __attribute__((target("avx2,fma"))) static V set1(double x) {
    return _mm256_set1_pd(x);
  }
  __attribute__((target("avx2,fma"))) static V load(const double* p) {
    return _mm256_loadu_pd(p);
  }
  __attribute__((target("avx2,fma"))) static void store(double* p, V v) {
    _mm256_storeu_pd(p, v);
  }
  __attribute__((target("avx2,fma"))) static V step(V acc, V p, V c) {
    const V diff = _mm256_sub_pd(p, c);
    return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
};

struct VecF {
  using T = float;
  using V = __m256;
  static constexpr std::size_t kLanes = 8;
  __attribute__((target("avx2,fma"))) static V zero() {
    return _mm256_setzero_ps();
  }
  __attribute__((target("avx2,fma"))) static V set1(float x) {
    return _mm256_set1_ps(x);
  }
  __attribute__((target("avx2,fma"))) static V load(const float* p) {
    return _mm256_loadu_ps(p);
  }
  __attribute__((target("avx2,fma"))) static void store(float* p, V v) {
    _mm256_storeu_ps(p, v);
  }
  __attribute__((target("avx2,fma"))) static V step(V acc, V p, V c) {
    const V diff = _mm256_sub_ps(p, c);
    return _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
};

template <typename Vec>
__attribute__((target("avx2,fma"))) inline void l2_sq_to_centroids_avx2(
    const float* point, const typename Vec::T* centroids_t, std::size_t d,
    std::size_t k, typename Vec::T* out) {
  using T = typename Vec::T;
  using V = typename Vec::V;
  constexpr std::size_t L = Vec::kLanes;
  constexpr std::size_t kBlock = 8 * L;
  std::size_t c = 0;
  for (; c + kBlock <= k; c += kBlock) {
    V acc[8];
    for (V& a : acc) a = Vec::zero();
    for (std::size_t j = 0; j < d; ++j) {
      const V p = Vec::set1(static_cast<T>(point[j]));
      const T* row = centroids_t + j * k + c;
      for (std::size_t b = 0; b < 8; ++b) {
        acc[b] = Vec::step(acc[b], p, Vec::load(row + b * L));
      }
    }
    for (std::size_t b = 0; b < 8; ++b) Vec::store(out + c + b * L, acc[b]);
  }
  for (; c + L <= k; c += L) {
    V acc = Vec::zero();
    for (std::size_t j = 0; j < d; ++j) {
      acc = Vec::step(acc, Vec::set1(static_cast<T>(point[j])),
                      Vec::load(centroids_t + j * k + c));
    }
    Vec::store(out + c, acc);
  }
  for (; c < k; ++c) {
    T acc = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const T diff = static_cast<T>(point[j]) - centroids_t[j * k + c];
      acc += diff * diff;
    }
    out[c] = acc;
  }
}

__attribute__((target("avx2,fma"))) void l2_sq_to_centroids(
    const float* point, const double* centroids_t, std::size_t d,
    std::size_t k, double* out) {
  l2_sq_to_centroids_avx2<VecD>(point, centroids_t, d, k, out);
}

__attribute__((target("avx2,fma"))) void l2_sq_to_centroids(
    const float* point, const float* centroids_t, std::size_t d,
    std::size_t k, float* out) {
  l2_sq_to_centroids_avx2<VecF>(point, centroids_t, d, k, out);
}

}  // namespace avx2

#endif  // ANCHOR_KERNELS_AVX2

// ---- dispatch ----------------------------------------------------------

namespace {

bool detect_simd() {
#if ANCHOR_KERNELS_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::atomic<bool>& simd_flag() {
  static std::atomic<bool> enabled{detect_simd()};
  return enabled;
}

inline bool use_simd() {
#if ANCHOR_KERNELS_AVX2
  return simd_flag().load(std::memory_order_relaxed);
#else
  return false;
#endif
}

}  // namespace

bool simd_available() { return detect_simd(); }

bool simd_enabled() { return use_simd(); }

void set_simd_enabled(bool on) { simd_flag().store(on && detect_simd()); }

const char* active_isa() { return use_simd() ? "avx2" : "scalar"; }

double dot(const double* a, const double* b, std::size_t n) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::dot(a, b, n);
#endif
  return scalar::dot(a, b, n);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::axpy(alpha, x, y, n);
#endif
  scalar::axpy(alpha, x, y, n);
}

void rot(double* x, double* y, std::size_t n, double c, double s) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::rot(x, y, n, c, s);
#endif
  scalar::rot(x, y, n, c, s);
}

double l2_normalize(double* x, std::size_t n) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::l2_normalize(x, n);
#endif
  return scalar::l2_normalize(x, n);
}

void matvec_rowmajor(const double* m, std::size_t rows, std::size_t cols,
                     const double* x, double* y) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::matvec_rowmajor(m, rows, cols, x, y);
#endif
  scalar::matvec_rowmajor(m, rows, cols, x, y);
}

void gemm_nt(const double* a, std::size_t a_rows, const double* b,
             std::size_t b_rows, std::size_t cols, double* c) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::gemm_nt(a, a_rows, b, b_rows, cols, c);
#endif
  scalar::gemm_nt(a, a_rows, b, b_rows, cols, c);
}

void dequantize_rows(const std::uint8_t* codes, std::size_t num_rows,
                     std::size_t dim, int bits, float clip, float* out) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) {
    return avx2::dequantize_rows(codes, num_rows, dim, bits, clip, out);
  }
#endif
  scalar::dequantize_rows(codes, num_rows, dim, bits, clip, out);
}

void adc_scan(const std::uint8_t* codes, std::size_t count, std::size_t m,
              std::size_t ksub, const float* lut, float* out) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::adc_scan(codes, count, m, ksub, lut, out);
#endif
  scalar::adc_scan(codes, count, m, ksub, lut, out);
}

void pq_decode_rows(const std::uint8_t* codes, std::size_t num_rows,
                    std::size_t m, std::size_t sub_dim, std::size_t ksub,
                    const float* codebooks, float* out) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) {
    return avx2::pq_decode_rows(codes, num_rows, m, sub_dim, ksub, codebooks,
                                out);
  }
#endif
  scalar::pq_decode_rows(codes, num_rows, m, sub_dim, ksub, codebooks, out);
}

float l2_sq_f32(const float* a, const float* b, std::size_t n) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) return avx2::l2_sq_f32(a, b, n);
#endif
  return scalar::l2_sq_f32(a, b, n);
}

void l2_sq_to_centroids(const float* point, const double* centroids_t,
                        std::size_t d, std::size_t k, double* out) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) {
    return avx2::l2_sq_to_centroids(point, centroids_t, d, k, out);
  }
#endif
  scalar::l2_sq_to_centroids(point, centroids_t, d, k, out);
}

void l2_sq_to_centroids(const float* point, const float* centroids_t,
                        std::size_t d, std::size_t k, float* out) {
#if ANCHOR_KERNELS_AVX2
  if (use_simd()) {
    return avx2::l2_sq_to_centroids(point, centroids_t, d, k, out);
  }
#endif
  scalar::l2_sq_to_centroids(point, centroids_t, d, k, out);
}

}  // namespace anchor::la::kernels
