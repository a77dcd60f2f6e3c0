// Top-k symmetric eigensolver by orthogonal (block power) iteration.
//
// The dense solver in eigen.hpp is O(n³) — right for d×d Gram
// matrices, wrong for the n×n sparse PPMI matrix the SVD embedding factors.
// Orthogonal iteration with a Rayleigh–Ritz projection needs only A·X
// products, so it runs in O(nnz·k) per sweep and never densifies A.
#pragma once

#include <cstdint>
#include <functional>

#include "la/matrix.hpp"
#include "la/sparse.hpp"

namespace anchor::la {

/// Replaces the columns of `x` with an orthonormal basis of their span
/// (modified Gram–Schmidt with one re-orthogonalization pass). Columns that
/// collapse below `tol`·‖column‖ are replaced by deterministic pseudo-random
/// directions re-orthogonalized against the basis, so the result always has
/// full column rank.
void orthonormalize_columns(Matrix& x, double tol = 1e-12,
                            std::uint64_t refill_seed = 99);

struct SubspaceOptions {
  std::size_t max_iters = 300;
  /// Convergence: stop when every Ritz value's relative change across one
  /// iteration falls below this tolerance.
  double tol = 1e-9;
  std::uint64_t seed = 7;
  /// Extra basis vectors beyond k; oversampling sharpens convergence of the
  /// trailing wanted eigenpairs (discarded from the result).
  std::size_t oversample = 4;
};

/// Top-k eigenpairs (by |eigenvalue|... in practice the PPMI use-case has a
/// PSD-dominant spectrum, and Ritz values are reported signed and sorted
/// descending). `apply` computes Y = A·X for the implicit symmetric A of
/// order n.
struct TopEigsResult {
  std::vector<double> values;  // k Ritz values, sorted descending
  Matrix vectors;              // n×k, orthonormal columns
  std::size_t iterations = 0;
};

TopEigsResult top_eigs(const std::function<Matrix(const Matrix&)>& apply,
                       std::size_t n, std::size_t k,
                       const SubspaceOptions& options = {});

/// Convenience overload for a CSR matrix.
TopEigsResult top_eigs(const SparseMatrix& a, std::size_t k,
                       const SubspaceOptions& options = {});

}  // namespace anchor::la
