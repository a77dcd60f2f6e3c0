#include "la/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "la/kernels.hpp"

namespace anchor::la {

namespace {

/// QL sweeps allowed per eigenvalue; two or three suffice in practice.
constexpr int kMaxQlIterations = 64;

/// Householder reduction of the symmetric matrix in `vt` to tridiagonal
/// form T = Qᵀ·A·Q (tred2, last row first). On return d holds T's diagonal,
/// e[1..n) its subdiagonal (e[0] = 0), and vt holds Qᵀ — row j of vt is
/// column j of Q. Relative to the textbook column-oriented loops everything
/// is transposed: the shrinking working block lives in vt's upper triangle
/// and each Householder vector in the leading part of a row, so every inner
/// loop is a contiguous dot or axpy.
void tridiagonalize(Matrix& vt, std::vector<double>& d,
                    std::vector<double>& e) {
  const std::size_t n = vt.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = vt(j, n - 1);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    double h = 0.0;
    if (scale == 0.0) {
      // Row already reduced: nothing to annihilate.
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = vt(j, i - 1);
        vt(j, i) = 0.0;
        vt(i, j) = 0.0;
      }
    } else {
      // Householder vector u (in d, scaled against under/overflow).
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;

      // e = A·u over the leading i×i block, read row-wise from its upper
      // triangle; u is saved in row i for the accumulation pass.
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
      double* saved_u = vt.row(i);
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        saved_u[j] = f;
        const double* aj = vt.row(j);
        const std::size_t tail = i - 1 - j;  // k = j+1 .. i-1
        g = e[j] + aj[j] * f + kernels::dot(aj + j + 1, d.data() + j + 1, tail);
        kernels::axpy(f, aj + j + 1, e.data() + j + 1, tail);
        e[j] = g;
      }
      // p = A·u / h, K = uᵀp / 2h, q = p − K·u.
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      // A ← A − u·qᵀ − q·uᵀ on the upper triangle.
      for (std::size_t j = 0; j < i; ++j) {
        double* aj = vt.row(j);
        kernels::axpy(-d[j], e.data() + j, aj + j, i - j);
        kernels::axpy(-e[j], d.data() + j, aj + j, i - j);
        d[j] = aj[i - 1];
        aj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate Q = H_{n-1}···H_1 into vt, transposed: each reflector is one
  // dot + axpy per row.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    vt(i, n - 1) = vt(i, i);
    vt(i, i) = 1.0;
    const double h = d[i + 1];
    double* u = vt.row(i + 1);
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* vj = vt.row(j);
        kernels::axpy(-kernels::dot(u, vj, i + 1), d.data(), vj, i + 1);
      }
    }
    std::fill(u, u + i + 1, 0.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = vt(j, n - 1);
    vt(j, n - 1) = 0.0;
  }
  vt(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize (tql2).
/// Leaves the eigenvalues in d and rotates the rows of vt into the matching
/// eigenvectors; each Givens rotation is one kernels::rot over two
/// contiguous rows.
void ql_implicit(std::vector<double>& d, std::vector<double>& e,
                 Matrix& vt) {
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  double shift_sum = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Split off at the first negligible subdiagonal element at or below l.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && std::abs(e[m]) > eps * tst1) ++m;

    if (m > l) {
      int iter = 0;
      do {
        ANCHOR_CHECK_MSG(++iter <= kMaxQlIterations,
                         "eigen_symmetric: QL iteration did not converge");
        // Wilkinson-style shift from the leading 2×2 block.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        shift_sum += h;

        // One implicit QL sweep from m−1 up to l.
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          kernels::rot(vt.row(i), vt.row(i + 1), n, c, s);
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += shift_sum;
    e[l] = 0.0;
  }
}

}  // namespace

EigenResult eigen_symmetric(const Matrix& input) {
  ANCHOR_CHECK_EQ(input.rows(), input.cols());
  const std::size_t n = input.rows();
  EigenResult result;
  if (n == 0) return result;

  // Symmetrize; reject matrices that are non-symmetric beyond round-off.
  // A symmetric matrix is its own transpose, so this is also the initial Qᵀ
  // workspace of the transposed reduction.
  Matrix vt(n, n);
  double asym = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      vt(i, j) = 0.5 * (input(i, j) + input(j, i));
      asym = std::max(asym, std::abs(input(i, j) - input(j, i)));
      scale = std::max(scale, std::abs(input(i, j)));
    }
  }
  ANCHOR_CHECK_MSG(asym <= 1e-6 * std::max(1.0, scale),
                   "eigen_symmetric: input is not symmetric (max asym=" << asym
                                                                        << ")");

  std::vector<double> values(n);
  std::vector<double> off(n);
  tridiagonalize(vt, values, off);
  ql_implicit(values, off, vt);

  // Sort descending by eigenvalue; row order[i] of vt becomes column i.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return values[x] > values[y]; });

  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    result.values[i] = values[order[i]];
    const double* vrow = vt.row(order[i]);
    for (std::size_t k = 0; k < n; ++k) result.vectors(k, i) = vrow[k];
  }
  return result;
}

}  // namespace anchor::la
