// Tests for the linear-algebra substrate: matrix kernels against closed-form
// oracles, eigensolver/SVD invariants (property-style TEST_P sweeps),
// Procrustes planted-rotation recovery, least squares, and statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "la/eigen.hpp"
#include "la/lstsq.hpp"
#include "la/matrix.hpp"
#include "la/procrustes.hpp"
#include "la/stats.hpp"
#include "la/svd.hpp"
#include "util/rng.hpp"

namespace anchor::la {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     double scale = 1.0) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& x : m.storage()) x = rng.normal(0.0, scale);
  return m;
}

Matrix random_orthogonal(std::size_t n, std::uint64_t seed) {
  // QR-free: take left singular vectors of a random square matrix.
  return left_singular_vectors(random_matrix(n, n, seed));
}

TEST(Matrix, IndexingAndIdentity) {
  Matrix m = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_THROW(m(3, 0), CheckError);
}

TEST(Matrix, MatmulHandOracle) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), CheckError);
}

TEST(Matrix, AtBMatchesExplicitTranspose) {
  const Matrix a = random_matrix(7, 3, 1);
  const Matrix b = random_matrix(7, 4, 2);
  EXPECT_LT(max_abs_diff(matmul_at_b(a, b), matmul(transpose(a), b)), 1e-12);
}

TEST(Matrix, ABtMatchesExplicitTranspose) {
  const Matrix a = random_matrix(5, 3, 3);
  const Matrix b = random_matrix(6, 3, 4);
  EXPECT_LT(max_abs_diff(matmul_a_bt(a, b), matmul(a, transpose(b))), 1e-12);
}

TEST(Matrix, GramIsSymmetric) {
  const Matrix g = gram(random_matrix(8, 4, 5));
  EXPECT_LT(max_abs_diff(g, transpose(g)), 1e-12);
}

TEST(Matrix, FrobeniusNormOracle) {
  Matrix m(2, 2, {3, 0, 0, 4});
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
  EXPECT_DOUBLE_EQ(frobenius_norm_sq(m), 25.0);
}

TEST(Matrix, TraceAndArithmetic) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(trace(a), 5.0);
  EXPECT_DOUBLE_EQ(add(a, b)(1, 1), 44.0);
  EXPECT_DOUBLE_EQ(subtract(b, a)(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(scale(a, 2.0)(1, 0), 6.0);
}

TEST(Matrix, MatvecOracle) {
  Matrix m(2, 3, {1, 0, 2, 0, 1, -1});
  const std::vector<double> y = matvec(m, {1, 2, 3});
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Eigen, DiagonalMatrix) {
  Matrix m(3, 3, 0.0);
  m(0, 0) = 1.0;
  m(1, 1) = 5.0;
  m(2, 2) = 3.0;
  const EigenResult e = eigen_symmetric(m);
  EXPECT_NEAR(e.values[0], 5.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
  EXPECT_NEAR(e.values[2], 1.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m(2, 2, {2, 1, 1, 2});
  const EigenResult e = eigen_symmetric(m);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/√2 up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(Eigen, RejectsNonSymmetric) {
  Matrix m(2, 2, {1, 5, 0, 1});
  EXPECT_THROW(eigen_symmetric(m), CheckError);
}

class EigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenProperty, ReconstructionAndOrthogonality) {
  const std::size_t n = GetParam();
  const Matrix base = random_matrix(n, n, 100 + n);
  const Matrix sym = scale(add(base, transpose(base)), 0.5);
  const EigenResult e = eigen_symmetric(sym);

  // VᵀV = I.
  EXPECT_LT(max_abs_diff(gram(e.vectors), Matrix::identity(n)), 1e-9);
  // V·diag(λ)·Vᵀ reconstructs the input.
  Matrix vl = e.vectors;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) vl(i, j) *= e.values[j];
  }
  EXPECT_LT(max_abs_diff(matmul_a_bt(vl, e.vectors), sym), 1e-8);
  // Sorted descending.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 300));

/// VᵀV = I, V·diag(λ)·Vᵀ = A, and λ sorted descending.
void expect_eigendecomposition(const Matrix& a, const EigenResult& e,
                               double tol) {
  const std::size_t n = a.rows();
  ASSERT_EQ(e.values.size(), n);
  EXPECT_LT(max_abs_diff(gram(e.vectors), Matrix::identity(n)), tol);
  Matrix vl = e.vectors;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) vl(i, j) *= e.values[j];
  }
  EXPECT_LT(max_abs_diff(matmul_a_bt(vl, e.vectors), a), tol);
  for (std::size_t i = 1; i < n; ++i) EXPECT_GE(e.values[i - 1], e.values[i]);
}

TEST(Eigen, IdentityHasOneRepeatedEigenvalue) {
  const Matrix id = Matrix::identity(7);
  const EigenResult e = eigen_symmetric(id);
  for (const double v : e.values) EXPECT_NEAR(v, 1.0, 1e-14);
  expect_eigendecomposition(id, e, 1e-13);
}

TEST(Eigen, TwoFoldBlocksKeepTheirEigenspaces) {
  // Q·diag(5,5,2,2,-1,-1)·Qᵀ: each repeated eigenvalue owns a 2-d
  // eigenspace, which the solver must return exactly (as a projector)
  // even though any basis of it is valid.
  const std::vector<double> lambda = {5, 5, 2, 2, -1, -1};
  const std::size_t n = lambda.size();
  const Matrix q = random_orthogonal(n, 12);
  Matrix ql = q;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) ql(i, j) *= lambda[j];
  }
  const Matrix a = matmul_a_bt(ql, q);
  const EigenResult e = eigen_symmetric(a);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(e.values[i], lambda[i], 1e-12);
  expect_eigendecomposition(a, e, 1e-12);
  const auto projector = [n](const Matrix& basis, std::size_t first) {
    Matrix p(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t c = first; c < first + 2; ++c) {
          p(i, j) += basis(i, c) * basis(j, c);
        }
      }
    }
    return p;
  };
  for (const std::size_t first : {0u, 2u, 4u}) {
    EXPECT_LT(max_abs_diff(projector(e.vectors, first), projector(q, first)),
              1e-10)
        << "eigenspace starting at column " << first;
  }
}

TEST(Eigen, ZeroMatrix) {
  const Matrix z(5, 5, 0.0);
  const EigenResult e = eigen_symmetric(z);
  for (const double v : e.values) EXPECT_EQ(v, 0.0);
  expect_eigendecomposition(z, e, 1e-15);
}

TEST(Eigen, OneByOne) {
  const EigenResult e = eigen_symmetric(Matrix(1, 1, -3.5));
  ASSERT_EQ(e.values.size(), 1u);
  EXPECT_EQ(e.values[0], -3.5);
  EXPECT_EQ(std::abs(e.vectors(0, 0)), 1.0);
}

TEST(Eigen, GradedDiagonalKeepsRelativeAccuracy) {
  // 1e-12 … 1 in scrambled order: every eigenvalue to full relative
  // precision, every eigenvector a signed canonical axis.
  const std::vector<std::size_t> slot = {4, 11, 0, 7, 12, 2, 9, 5, 1, 10, 6,
                                         3, 8};
  const std::size_t n = slot.size();
  Matrix a(n, n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    a(slot[k], slot[k]) = std::pow(10.0, -static_cast<double>(k));
  }
  const EigenResult e = eigen_symmetric(a);
  for (std::size_t k = 0; k < n; ++k) {
    const double want = std::pow(10.0, -static_cast<double>(k));
    EXPECT_NEAR(e.values[k], want, 1e-14 * want) << "eigenvalue " << k;
    EXPECT_NEAR(std::abs(e.vectors(slot[k], k)), 1.0, 1e-14);
  }
  expect_eigendecomposition(a, e, 1e-14);
}

TEST(Svd, KnownDiagonal) {
  Matrix m(3, 2, {3, 0, 0, 2, 0, 0});
  const SvdResult s = svd(m);
  EXPECT_NEAR(s.singular_values[0], 3.0, 1e-10);
  EXPECT_NEAR(s.singular_values[1], 2.0, 1e-10);
}

class SvdProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SvdProperty, ThinSvdInvariants) {
  const auto [n, d] = GetParam();
  const Matrix x = random_matrix(n, d, 7 * n + d);
  const SvdResult s = svd(x);
  const std::size_t r = std::min(n, d);
  ASSERT_EQ(s.u.rows(), n);
  ASSERT_EQ(s.u.cols(), r);
  ASSERT_EQ(s.v.rows(), d);
  ASSERT_EQ(s.v.cols(), r);

  // UᵀU = I, VᵀV = I.
  EXPECT_LT(max_abs_diff(gram(s.u), Matrix::identity(r)), 1e-8);
  EXPECT_LT(max_abs_diff(gram(s.v), Matrix::identity(r)), 1e-8);
  // U·S·Vᵀ = X.
  Matrix us = s.u;
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t i = 0; i < n; ++i) us(i, j) *= s.singular_values[j];
  }
  EXPECT_LT(max_abs_diff(matmul_a_bt(us, s.v), x), 1e-7);
  // Non-negative, descending.
  for (std::size_t i = 0; i < r; ++i) {
    EXPECT_GE(s.singular_values[i], 0.0);
    if (i > 0) {
      EXPECT_GE(s.singular_values[i - 1], s.singular_values[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{5, 5},
                      std::pair<std::size_t, std::size_t>{20, 4},
                      std::pair<std::size_t, std::size_t>{4, 20},
                      std::pair<std::size_t, std::size_t>{50, 8},
                      std::pair<std::size_t, std::size_t>{1, 3},
                      std::pair<std::size_t, std::size_t>{3, 1}));

TEST(Svd, RankDeficientStillOrthonormal) {
  // Rank-1 matrix: u-completion must still deliver orthonormal U.
  Matrix x(6, 3, 0.0);
  for (std::size_t i = 0; i < 6; ++i) {
    x(i, 0) = static_cast<double>(i + 1);
    x(i, 1) = 2.0 * static_cast<double>(i + 1);
    x(i, 2) = -1.0 * static_cast<double>(i + 1);
  }
  const SvdResult s = svd(x);
  EXPECT_EQ(s.rank(), 1u);
  EXPECT_LT(max_abs_diff(gram(s.u), Matrix::identity(3)), 1e-8);
}

TEST(Procrustes, RecoversPlantedRotation) {
  const Matrix b = random_matrix(30, 5, 42);
  const Matrix omega = random_orthogonal(5, 43);
  const Matrix a = matmul(b, omega);
  const Matrix recovered = procrustes_rotation(a, b);
  EXPECT_LT(max_abs_diff(recovered, omega), 1e-8);
  EXPECT_LT(max_abs_diff(procrustes_align(a, b), a), 1e-8);
}

TEST(Procrustes, ResultIsOrthogonal) {
  const Matrix a = random_matrix(20, 4, 1);
  const Matrix b = random_matrix(20, 4, 2);
  const Matrix r = procrustes_rotation(a, b);
  EXPECT_LT(max_abs_diff(gram(r), Matrix::identity(4)), 1e-9);
}

TEST(Procrustes, AlignmentNeverIncreasesDistance) {
  const Matrix a = random_matrix(25, 6, 9);
  const Matrix b = random_matrix(25, 6, 10);
  const double before = frobenius_norm(subtract(a, b));
  const double after = frobenius_norm(subtract(a, procrustes_align(a, b)));
  EXPECT_LE(after, before + 1e-12);
}

TEST(Cholesky, KnownFactor) {
  Matrix a(2, 2, {4, 2, 2, 5});
  const Matrix l = cholesky(a);
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), 2.0, 1e-12);
  EXPECT_LT(max_abs_diff(matmul_a_bt(l, l), a), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2, {1, 2, 2, 1});  // eigenvalues 3, −1
  EXPECT_THROW(cholesky(a), CheckError);
}

TEST(SolveSpd, RecoversKnownSolution) {
  Matrix a(3, 3, {4, 1, 0, 1, 3, 1, 0, 1, 2});
  const std::vector<double> x_true = {1.0, -2.0, 3.0};
  const std::vector<double> b = matvec(a, x_true);
  const std::vector<double> x = solve_spd(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Lstsq, ExactSystemRecovered) {
  const Matrix x = random_matrix(40, 5, 77);
  Rng rng(78);
  std::vector<double> w_true(5);
  for (auto& w : w_true) w = rng.normal();
  const std::vector<double> y = matvec(x, w_true);
  const std::vector<double> w = lstsq(x, y);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(w[i], w_true[i], 1e-6);
}

TEST(Lstsq, PredictionsEqualProjectionOntoLeftSingularSpace) {
  // Footnote 7 of the paper: ŷ = X(XᵀX)⁻¹Xᵀy = U·Uᵀ·y.
  const Matrix x = random_matrix(30, 4, 55);
  Rng rng(56);
  std::vector<double> y(30);
  for (auto& v : y) v = rng.normal();
  const std::vector<double> pred = lstsq_predictions(x, y);
  const Matrix u = left_singular_vectors(x);
  std::vector<double> z(u.cols(), 0.0);
  for (std::size_t i = 0; i < u.rows(); ++i) {
    for (std::size_t j = 0; j < u.cols(); ++j) z[j] += u(i, j) * y[i];
  }
  for (std::size_t i = 0; i < u.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < u.cols(); ++j) acc += u(i, j) * z[j];
    EXPECT_NEAR(pred[i], acc, 1e-6);
  }
}

TEST(Stats, PearsonPerfectCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Stats, RanksWithTies) {
  const std::vector<double> r = ranks_with_ties({10, 20, 20, 30});
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanMonotoneNonlinear) {
  // Spearman is rank-based: any monotone transform gives exactly 1.
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, SpearmanAntitone) {
  EXPECT_NEAR(spearman({1, 2, 3}, {9, 4, 1}), -1.0, 1e-12);
}

TEST(Stats, TrendFitRecoversPlantedSlope) {
  // Two tasks with different intercepts, shared slope −1.3 (the paper's
  // rule-of-thumb shape), plus small noise.
  Rng rng(99);
  std::vector<TrendPoint> points;
  for (std::size_t task = 0; task < 2; ++task) {
    const double intercept = task == 0 ? 20.0 : 12.0;
    for (double m = 3; m <= 10; m += 0.5) {
      TrendPoint p;
      p.task_id = task;
      p.log2_x = m;
      p.disagreement_pct = intercept - 1.3 * m + rng.normal(0.0, 0.05);
      points.push_back(p);
    }
  }
  const TrendFit fit = fit_shared_slope(points);
  EXPECT_NEAR(fit.slope, -1.3, 0.05);
  ASSERT_EQ(fit.intercepts.size(), 2u);
  EXPECT_NEAR(fit.intercepts[0], 20.0, 0.3);
  EXPECT_NEAR(fit.intercepts[1], 12.0, 0.3);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Stats, TrendFitExactWithoutNoise) {
  std::vector<TrendPoint> points;
  for (double m = 1; m <= 5; ++m) {
    points.push_back({0, m, 10.0 - 2.0 * m});
  }
  const TrendFit fit = fit_shared_slope(points);
  EXPECT_NEAR(fit.slope, -2.0, 1e-6);
  EXPECT_NEAR(fit.intercepts[0], 10.0, 1e-5);
}

}  // namespace
}  // namespace anchor::la
