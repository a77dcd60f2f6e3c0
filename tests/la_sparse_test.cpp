// Tests for the CSR sparse matrix and the top-k subspace eigensolver:
// assembly semantics (duplicates, empty rows), product agreement with the
// dense oracle, and eigenpair recovery against the dense eigensolver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "la/eigen.hpp"
#include "la/sparse.hpp"
#include "la/subspace.hpp"
#include "util/rng.hpp"

namespace anchor::la {
namespace {

/// Random symmetric matrix with a controlled spectral gap: A = V·diag(λ)·Vᵀ
/// where V comes from orthonormalizing a Gaussian block.
Matrix planted_symmetric(std::size_t n, const std::vector<double>& lambdas,
                         std::uint64_t seed) {
  Rng rng(seed);
  Matrix v(n, n);
  for (double& x : v.storage()) x = rng.normal();
  orthonormalize_columns(v);
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < lambdas.size(); ++k) {
        acc += v(i, k) * lambdas[k] * v(j, k);
      }
      a(i, j) = acc;
    }
  }
  return a;
}

std::vector<SparseEntry> dense_to_triplets(const Matrix& a) {
  std::vector<SparseEntry> out;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != 0.0) {
        out.push_back({static_cast<std::int32_t>(i),
                       static_cast<std::int32_t>(j), a(i, j)});
      }
    }
  }
  return out;
}

TEST(SparseMatrix, EmptyMatrixHasZeroProducts) {
  const SparseMatrix m = SparseMatrix::from_triplets(3, {});
  EXPECT_EQ(m.nnz(), 0u);
  const std::vector<double> y = m.multiply(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(y, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_EQ(m.inf_norm(), 0.0);
}

TEST(SparseMatrix, DuplicateTripletsAreSummed) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      2, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 5.0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(SparseMatrix, RejectsOutOfRangeIndices) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, {{0, 2, 1.0}}), CheckError);
  EXPECT_THROW(SparseMatrix::from_triplets(2, {{2, 0, 1.0}}), CheckError);
}

TEST(SparseMatrix, MatvecMatchesDense) {
  Rng rng(3);
  Matrix dense(7, 7, 0.0);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (rng.bernoulli(0.4)) {
        const double v = rng.normal();
        dense(i, j) = v;
        dense(j, i) = v;
      }
    }
  }
  const SparseMatrix sparse =
      SparseMatrix::from_triplets(7, dense_to_triplets(dense));
  std::vector<double> x(7);
  for (double& v : x) v = rng.normal();

  const std::vector<double> y_sparse = sparse.multiply(x);
  const std::vector<double> y_dense = matvec(dense, x);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
  }
  EXPECT_LT(max_abs_diff(sparse.to_dense(), dense), 1e-15);
}

TEST(SparseMatrix, MatmatMatchesDense) {
  Rng rng(4);
  Matrix dense(6, 6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) {
    dense(i, i) = rng.normal();
    if (i + 1 < 6) {
      const double v = rng.normal();
      dense(i, i + 1) = v;
      dense(i + 1, i) = v;
    }
  }
  const SparseMatrix sparse =
      SparseMatrix::from_triplets(6, dense_to_triplets(dense));
  Matrix x(6, 3);
  for (double& v : x.storage()) v = rng.normal();

  EXPECT_LT(max_abs_diff(sparse.multiply(x), matmul(dense, x)), 1e-12);
}

TEST(SparseMatrix, InfNormIsMaxAbsRowSum) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      3, {{0, 0, -4.0}, {0, 2, 1.0}, {2, 1, 2.0}});
  EXPECT_DOUBLE_EQ(m.inf_norm(), 5.0);
}

TEST(Orthonormalize, ProducesOrthonormalColumns) {
  Rng rng(5);
  Matrix x(20, 6);
  for (double& v : x.storage()) v = rng.normal();
  orthonormalize_columns(x);
  const Matrix g = gram(x);
  EXPECT_LT(max_abs_diff(g, Matrix::identity(6)), 1e-10);
}

TEST(Orthonormalize, RepairsRankDeficientInput) {
  Matrix x(10, 3);
  for (std::size_t r = 0; r < 10; ++r) {
    x(r, 0) = 1.0;
    x(r, 1) = 2.0;  // colinear with column 0
    x(r, 2) = static_cast<double>(r);
  }
  orthonormalize_columns(x);
  const Matrix g = gram(x);
  EXPECT_LT(max_abs_diff(g, Matrix::identity(3)), 1e-10)
      << "collapsed column must be refilled with an orthogonal direction";
}

TEST(TopEigs, RecoversPlantedSpectrum) {
  const std::vector<double> lambdas = {9.0, 5.0, 2.0, 0.5, 0.1};
  const Matrix a = planted_symmetric(30, lambdas, 6);
  const SparseMatrix sparse =
      SparseMatrix::from_triplets(30, dense_to_triplets(a));

  const TopEigsResult r = top_eigs(sparse, 3);
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], 9.0, 1e-6);
  EXPECT_NEAR(r.values[1], 5.0, 1e-6);
  EXPECT_NEAR(r.values[2], 2.0, 1e-6);

  // Residual check: ‖A·v − λ·v‖ small for each returned pair.
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<double> v(30);
    for (std::size_t i = 0; i < 30; ++i) v[i] = r.vectors(i, j);
    const std::vector<double> av = sparse.multiply(v);
    double residual = 0.0;
    for (std::size_t i = 0; i < 30; ++i) {
      residual += (av[i] - r.values[j] * v[i]) * (av[i] - r.values[j] * v[i]);
    }
    EXPECT_LT(std::sqrt(residual), 1e-5);
  }
}

TEST(TopEigs, VectorsAreOrthonormal) {
  const Matrix a = planted_symmetric(25, {4.0, 3.0, 2.0, 1.0}, 7);
  const SparseMatrix sparse =
      SparseMatrix::from_triplets(25, dense_to_triplets(a));
  const TopEigsResult r = top_eigs(sparse, 4);
  EXPECT_LT(max_abs_diff(gram(r.vectors), Matrix::identity(4)), 1e-8);
}

TEST(TopEigs, MatchesDenseEigensolverOnRandomPsdMatrix) {
  Rng rng(8);
  Matrix b(15, 15);
  for (double& v : b.storage()) v = rng.normal();
  const Matrix a = gram(b);  // PSD with generic spectrum
  const SparseMatrix sparse =
      SparseMatrix::from_triplets(15, dense_to_triplets(a));

  const EigenResult dense = eigen_symmetric(a);
  const TopEigsResult sub = top_eigs(sparse, 5);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(sub.values[j], dense.values[j],
                1e-7 * std::max(1.0, dense.values[0]));
  }
}

TEST(TopEigs, FunctorInterfaceSupportsImplicitOperators) {
  // A = 2·I implicitly; every Ritz value must be 2.
  const auto apply = [](const Matrix& x) { return scale(x, 2.0); };
  const TopEigsResult r = top_eigs(apply, 12, 3);
  for (const double v : r.values) EXPECT_NEAR(v, 2.0, 1e-9);
}

TEST(TopEigs, RejectsInvalidK) {
  const auto apply = [](const Matrix& x) { return x; };
  EXPECT_THROW(top_eigs(apply, 5, 0), CheckError);
  EXPECT_THROW(top_eigs(apply, 5, 6), CheckError);
}

class TopEigsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopEigsSweep, ResidualsSmallAcrossK) {
  const std::size_t k = GetParam();
  const Matrix a =
      planted_symmetric(40, {8.0, 6.5, 5.0, 3.5, 2.0, 1.0, 0.5, 0.25}, 9);
  const SparseMatrix sparse =
      SparseMatrix::from_triplets(40, dense_to_triplets(a));
  const TopEigsResult r = top_eigs(sparse, k);
  ASSERT_EQ(r.vectors.cols(), k);
  const Matrix av = sparse.multiply(r.vectors);
  for (std::size_t j = 0; j < k; ++j) {
    double residual = 0.0;
    for (std::size_t i = 0; i < 40; ++i) {
      const double d = av(i, j) - r.values[j] * r.vectors(i, j);
      residual += d * d;
    }
    EXPECT_LT(std::sqrt(residual), 1e-5) << "k=" << k << " column " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopEigsSweep,
                         ::testing::Values<std::size_t>(1, 2, 4, 6, 8));

}  // namespace
}  // namespace anchor::la
