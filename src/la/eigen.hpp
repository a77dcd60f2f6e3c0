// Symmetric eigendecomposition: Householder tridiagonalization followed by
// the implicit QL algorithm (the EISPACK tred2/tql2 pair).
//
// The matrices are small (d×d for embedding dimension d ≤ a few hundred),
// and both phases are backward stable and deliver orthogonal eigenvectors —
// which the eigenspace measures depend on. The eigenvectors are accumulated
// transposed, so every Householder update is a contiguous dot/axpy and every
// QL rotation is one SIMD Givens update of two contiguous rows.
#pragma once

#include "la/matrix.hpp"

namespace anchor::la {

/// Result of eigendecomposition A = V · diag(values) · Vᵀ.
/// Eigenvalues are sorted descending; eigenvectors are the *columns* of V.
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;  // n×n, column i pairs with values[i]
};

/// Eigendecomposition of a symmetric matrix. The input is symmetrized
/// (averaged with its transpose) to absorb round-off asymmetry; a genuinely
/// non-symmetric input is a caller bug and is rejected beyond a tolerance.
/// Eigenvalues are accurate to a few ulps of the matrix norm.
EigenResult eigen_symmetric(const Matrix& a);

}  // namespace anchor::la
