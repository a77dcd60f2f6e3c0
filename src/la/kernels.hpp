// Runtime-dispatched SIMD kernel layer.
//
// Every hot inner loop of the library funnels through the handful of
// primitives here: cosine/dot scoring for the k-NN measure, axpy-style
// row updates inside the matmul family, row normalization, X·Yᵀ tiles for
// neighbor scoring, and fused dequantization of the serving layer's
// bit-packed snapshot rows. Each primitive has
//   • a portable scalar implementation (namespace scalar, always compiled,
//     the parity baseline for tests and benches), and
//   • an AVX2+FMA implementation selected at runtime via
//     __builtin_cpu_supports, compiled with function-level target attributes
//     so the rest of the library needs no special flags.
// Define ANCHOR_DISABLE_SIMD (CMake: -DANCHOR_DISABLE_SIMD=ON) to compile
// the scalar paths only; set_simd_enabled(false) switches at runtime.
//
// Numerical contract: axpy, dequantize_rows, adc_scan and
// l2_sq_to_centroids perform the same operations in the same per-element
// order as their scalar versions and are bit-exact with them. The reduction kernels (dot, l2_normalize, matvec_rowmajor,
// gemm_nt) reassociate the accumulation across SIMD lanes, so they agree
// with scalar only to rounding (the parity tests bound this at 1e-6 on
// random data; in practice ~1e-13). Dispatch is per-process, not per-call:
// a given process always runs one implementation, so repeated measure
// evaluations are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>

namespace anchor::la::kernels {

/// True when this binary carries the AVX2+FMA code path and the CPU
/// reports avx2 && fma at runtime.
bool simd_available();

/// Runtime dispatch toggle; defaults to simd_available(). Disabling falls
/// back to the scalar implementations (used by parity tests and the
/// scalar-baseline bench cells).
bool simd_enabled();
void set_simd_enabled(bool on);

/// Name of the active code path: "avx2" or "scalar".
const char* active_isa();

/// Σ a[i]·b[i].
double dot(const double* a, const double* b, std::size_t n);

/// y[i] += alpha·x[i]. Bit-exact with the scalar loop.
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// Scales x to unit L2 norm in place; returns the pre-scaling norm.
/// Zero vectors are left untouched (norm 0 is returned).
double l2_normalize(double* x, std::size_t n);

/// Givens rotation applied in place to two length-n vectors:
/// x[i] ← c·x[i] − s·y[i], y[i] ← s·x[i] + c·y[i]. Bit-exact with the
/// scalar loop (mul+sub / mul+add, no fused contraction) — the QL
/// eigensolver's inner update on contiguous rows.
void rot(double* x, double* y, std::size_t n, double c, double s);

/// y[i] = dot(row i of m, x) for row-major m (rows × cols).
void matvec_rowmajor(const double* m, std::size_t rows, std::size_t cols,
                     const double* x, double* y);

/// C = A·Bᵀ for row-major A (a_rows × cols) and B (b_rows × cols); C is
/// a_rows × b_rows, fully overwritten. Blocked over row tiles of both
/// operands so the B tile stays cache-resident while A streams — the
/// neighbor-scoring shape (queries × vocab similarity panels).
void gemm_nt(const double* a, std::size_t a_rows, const double* b,
             std::size_t b_rows, std::size_t cols, double* c);

/// Bytes per bit-packed row of `dim` codes at `bits` ∈ {1,2,4,8} (codes are
/// packed little-endian within each byte, the serve snapshot layout).
std::size_t packed_row_bytes(std::size_t dim, int bits);

/// Unpacks `num_rows` consecutive bit-packed rows (stride
/// packed_row_bytes(dim, bits)) into out[0 .. num_rows·dim), dequantizing on
/// the compress::dequantize_code grid: value = -clip + code·(2·clip/levels).
/// Bit-exact with the per-code scalar path for all of bits ∈ {1,2,4,8}.
void dequantize_rows(const std::uint8_t* codes, std::size_t num_rows,
                     std::size_t dim, int bits, float clip, float* out);

/// Asymmetric-distance (ADC) scan over product-quantized codes — the ANN
/// engine's hot loop, sibling of dequantize_rows. `codes` holds one cell's
/// codes COLUMN-MAJOR: for each sub-quantizer s ∈ [0, m), `count`
/// contiguous bytes, i.e. codes[s·count + i] is row i's code for
/// sub-quantizer s (the transposed layout is what lets the AVX2 path load
/// 8 rows' codes of one sub-quantizer with a single 8-byte load). `lut` is
/// the per-query table, m × ksub floats, row-major. Writes
///   out[i] = Σ_s lut[s·ksub + codes[s·count + i]]
/// for i ∈ [0, count). Each element accumulates in ascending s order in
/// both paths, so the AVX2 path is bit-exact with scalar (like axpy).
void adc_scan(const std::uint8_t* codes, std::size_t count, std::size_t m,
              std::size_t ksub, const float* lut, float* out);

/// Fused decode of product-quantized rows — the serving twin of adc_scan.
/// `codes` holds `num_rows` consecutive rows ROW-MAJOR, one byte per code:
/// codes[r·m + s] is row r's centroid index for sub-quantizer s (the
/// EmbeddingSnapshot PQ layout; contrast adc_scan's column-major cells).
/// `codebooks` is m × ksub × sub_dim floats: sub-quantizer s's centroid c
/// lives at codebooks[(s·ksub + c)·sub_dim]. Writes
///   out[r·(m·sub_dim) + s·sub_dim .. +sub_dim) = centroid(s, codes[r·m+s])
/// for r ∈ [0, num_rows). Pure centroid copies — no arithmetic — so the
/// AVX2 path (vector loads/stores over each slice) is bit-exact with
/// scalar by construction, like axpy and dequantize_rows.
void pq_decode_rows(const std::uint8_t* codes, std::size_t num_rows,
                    std::size_t m, std::size_t sub_dim, std::size_t ksub,
                    const float* codebooks, float* out);

/// Σ (a[i]−b[i])² over float vectors — the exact re-rank distance of the
/// ANN engine. Reduction kernel: the AVX2 path reassociates across lanes
/// like dot, so it agrees with scalar only to rounding (parity tests
/// bound the relative error at 1e-5 on random data).
float l2_sq_f32(const float* a, const float* b, std::size_t n);

/// Squared L2 distance from one point to each of k centroids — the
/// nearest-centroid step of PQ / IVF-PQ training, encoding and the ADC
/// LUT. Centroids are stored TRANSPOSED, d × k row-major:
/// centroids_t[j·k + c] is coordinate j of centroid c, so one vector load
/// picks up coordinate j of consecutive centroids. Writes
///   out[c] = Σ_j (point[j] − centroids_t[j·k + c])²   for c ∈ [0, k),
/// each lane doing the scalar sequence — subtract, multiply, add, in
/// ascending j, starting from 0, no FMA, no reassociation — so the AVX2
/// path is bit-exact with scalar. The double instance widens each point
/// coordinate (exactly) and works in double; the float instance stays in
/// float.
void l2_sq_to_centroids(const float* point, const double* centroids_t,
                        std::size_t d, std::size_t k, double* out);
void l2_sq_to_centroids(const float* point, const float* centroids_t,
                        std::size_t d, std::size_t k, float* out);

/// Portable reference implementations — always compiled, identical
/// signatures. Tests pin parity against these; benches use them as the
/// scalar baseline.
namespace scalar {
double dot(const double* a, const double* b, std::size_t n);
void axpy(double alpha, const double* x, double* y, std::size_t n);
void rot(double* x, double* y, std::size_t n, double c, double s);
double l2_normalize(double* x, std::size_t n);
void matvec_rowmajor(const double* m, std::size_t rows, std::size_t cols,
                     const double* x, double* y);
void gemm_nt(const double* a, std::size_t a_rows, const double* b,
             std::size_t b_rows, std::size_t cols, double* c);
void dequantize_rows(const std::uint8_t* codes, std::size_t num_rows,
                     std::size_t dim, int bits, float clip, float* out);
void adc_scan(const std::uint8_t* codes, std::size_t count, std::size_t m,
              std::size_t ksub, const float* lut, float* out);
void pq_decode_rows(const std::uint8_t* codes, std::size_t num_rows,
                    std::size_t m, std::size_t sub_dim, std::size_t ksub,
                    const float* codebooks, float* out);
float l2_sq_f32(const float* a, const float* b, std::size_t n);
void l2_sq_to_centroids(const float* point, const double* centroids_t,
                        std::size_t d, std::size_t k, double* out);
void l2_sq_to_centroids(const float* point, const float* centroids_t,
                        std::size_t d, std::size_t k, float* out);
}  // namespace scalar

}  // namespace anchor::la::kernels
