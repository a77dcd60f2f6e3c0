#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "la/kernels.hpp"
#include "util/thread_pool.hpp"

namespace anchor::la {

namespace {

// Every product is split into tiles of output rows, and each output
// element is summed in the same order whatever the tiling, so results are
// bit-for-bit identical to the serial loop at any thread count (the
// determinism contract of the measure layer). Products below
// kParallelWork multiply-adds stay on the calling thread, where a pool
// hand-off would cost more than it saves.
constexpr std::size_t kParallelWork = std::size_t{1} << 20;
constexpr std::size_t kAtbRowTile = 16;   // matmul_at_b / gram tiles
constexpr std::size_t kGemmRowTile = 64;  // matmul / matmul_a_bt tiles

/// Runs body(lo, hi) over [0, rows) in tiles of `tile` rows: on the pool
/// when the product is worth `work` ≥ kParallelWork multiply-adds, else
/// in one serial call.
template <typename Body>
void for_row_tiles(std::size_t rows, std::size_t tile, std::size_t work,
                   const Body& body) {
  if (work < kParallelWork || rows <= tile) {
    body(0, rows);
    return;
  }
  const std::size_t tiles = (rows + tile - 1) / tile;
  util::global_pool().parallel_for(0, tiles, [&](std::size_t t) {
    body(t * tile, std::min((t + 1) * tile, rows));
  });
}

}  // namespace

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  ANCHOR_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols(), 0.0);
  // ikj loop order keeps the inner loop streaming over contiguous rows.
  for_row_tiles(a.rows(), kGemmRowTile, a.rows() * a.cols() * b.cols(),
                [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) {
                    const double* arow = a.row(i);
                    double* crow = c.row(i);
                    for (std::size_t k = 0; k < a.cols(); ++k) {
                      const double aik = arow[k];
                      if (aik == 0.0) continue;
                      kernels::axpy(aik, b.row(k), crow, b.cols());
                    }
                  }
                });
  return c;
}

namespace {

/// c(i, j) += a(r, i)·b(r, j) over every input row r in order, for output
/// rows i ∈ [lo, hi) and columns j ≥ i when `upper_only` (else all j). A
/// tile of C stays cache-resident while A and B stream past it.
void accumulate_at_b(const Matrix& a, const Matrix& b, Matrix& c,
                     std::size_t lo, std::size_t hi, bool upper_only) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.row(r);
    const double* brow = b.row(r);
    for (std::size_t i = lo; i < hi; ++i) {
      const double ari = arow[i];
      if (ari == 0.0) continue;
      const std::size_t j0 = upper_only ? i : 0;
      kernels::axpy(ari, brow + j0, c.row(i) + j0, b.cols() - j0);
    }
  }
}

}  // namespace

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  ANCHOR_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols(), 0.0);
  for_row_tiles(a.cols(), kAtbRowTile, a.rows() * a.cols() * b.cols(),
                [&](std::size_t lo, std::size_t hi) {
                  accumulate_at_b(a, b, c, lo, hi, /*upper_only=*/false);
                });
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  ANCHOR_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  // Every output element is an independent dot product, so tiles of A rows
  // are bit-exact with the single-call gemm.
  for_row_tiles(a.rows(), kGemmRowTile, a.rows() * a.cols() * b.rows(),
                [&](std::size_t lo, std::size_t hi) {
                  kernels::gemm_nt(a.data() + lo * a.cols(), hi - lo,
                                   b.data(), b.rows(), a.cols(),
                                   c.data() + lo * b.rows());
                });
  return c;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
  }
  return t;
}

Matrix gram(const Matrix& a) {
  // The upper triangle sums the same products in the same order as
  // matmul_at_b(a, a), and the mirror copies them, so the result equals
  // that product bit for bit at half the work.
  const std::size_t d = a.cols();
  Matrix c(d, d, 0.0);
  for_row_tiles(d, kAtbRowTile, a.rows() * d * d / 2,
                [&](std::size_t lo, std::size_t hi) {
                  accumulate_at_b(a, a, c, lo, hi, /*upper_only=*/true);
                });
  for (std::size_t i = 1; i < d; ++i) {
    for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  }
  return c;
}

Matrix add(const Matrix& a, const Matrix& b) {
  ANCHOR_CHECK_EQ(a.rows(), b.rows());
  ANCHOR_CHECK_EQ(a.cols(), b.cols());
  Matrix c = a;
  for (std::size_t i = 0; i < c.size(); ++i) c.storage()[i] += b.storage()[i];
  return c;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  ANCHOR_CHECK_EQ(a.rows(), b.rows());
  ANCHOR_CHECK_EQ(a.cols(), b.cols());
  Matrix c = a;
  for (std::size_t i = 0; i < c.size(); ++i) c.storage()[i] -= b.storage()[i];
  return c;
}

Matrix scale(const Matrix& a, double s) {
  Matrix c = a;
  for (double& x : c.storage()) x *= s;
  return c;
}

double frobenius_norm_sq(const Matrix& m) {
  return kernels::dot(m.data(), m.data(), m.size());
}

double frobenius_norm(const Matrix& m) { return std::sqrt(frobenius_norm_sq(m)); }

double trace(const Matrix& m) {
  const std::size_t n = std::min(m.rows(), m.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += m(i, i);
  return acc;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  ANCHOR_CHECK_EQ(a.rows(), b.rows());
  ANCHOR_CHECK_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a.storage()[i] - b.storage()[i]));
  }
  return worst;
}

std::vector<double> matvec(const Matrix& m, const std::vector<double>& x) {
  ANCHOR_CHECK_EQ(m.cols(), x.size());
  std::vector<double> y(m.rows(), 0.0);
  kernels::matvec_rowmajor(m.data(), m.rows(), m.cols(), x.data(), y.data());
  return y;
}

}  // namespace anchor::la
