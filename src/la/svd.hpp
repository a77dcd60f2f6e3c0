// Thin singular value decomposition for tall matrices.
//
// For X ∈ R^{n×d} with n ≥ d we take the Gram route: eigendecompose
// XᵀX = V·Λ·Vᵀ (d×d, via la::eigen_symmetric's tridiagonal QL), set
// S = √Λ, and recover U = X·V·S⁻¹. This is O(n·d²) time and O(d²) extra
// memory — exactly the cost model Appendix B.1 of the paper assumes — and
// is accurate for the moderately conditioned embedding matrices this
// library works with. Directions whose singular value falls below a
// relative rank tolerance are re-orthogonalized against the retained ones
// so U always has orthonormal columns. Callers that need only products of
// U with another factor (the gate's eigenspace instability) can stay in
// d×d space instead; see core::eigenspace_instability_self.
#pragma once

#include "la/matrix.hpp"

namespace anchor::la {

/// X = U · diag(singular_values) · Vᵀ with U ∈ R^{n×r}, V ∈ R^{d×r} where
/// r = min(n, d) (thin SVD). Singular values are sorted descending.
struct SvdResult {
  Matrix u;
  std::vector<double> singular_values;
  Matrix v;  // d×r, right singular vectors as columns

  /// Numerical rank. The default tolerance reflects the Gram route's
  /// squared condition number: eigenvalues of XᵀX carry ~1e-14 relative
  /// error, so singular values below ~1e-7·σ_max are numerically zero.
  std::size_t rank(double rel_tol = 1e-6) const;
};

/// Thin SVD of an arbitrary matrix (n ≥ d or n < d both supported; the
/// wide case is handled by decomposing the transpose).
SvdResult svd(const Matrix& x);

/// Left singular vectors only — the quantity the eigenspace measures need.
/// Equivalent to svd(x).u but skips the V recovery when n < d.
Matrix left_singular_vectors(const Matrix& x);

}  // namespace anchor::la
