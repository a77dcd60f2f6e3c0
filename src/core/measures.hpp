// Embedding distance measures (paper §2.4 and §4.1).
//
// Five measures quantify how different two embeddings X ∈ R^{n×d} and
// X̃ ∈ R^{n×k} of the same vocabulary are:
//   • k-NN measure              (Hellrich & Hahn 2016 and others)
//   • semantic displacement     (Hamilton et al., 2016)
//   • PIP loss                  (Yin & Shen, 2018)
//   • eigenspace overlap score  (May et al., 2019)
//   • eigenspace instability    (THIS paper's contribution, Definition 2)
//
// Every implementation avoids n×n intermediates: PIP loss uses the Gram
// trick and the eigenspace instability measure uses the O(n·d²) expansion of
// Appendix B.1. When the reference pair defining Σ is the evaluated pair
// itself (the serving gate's case), eigenspace_instability_self needs no n×d
// factor at all: three Gram products and two d×d eigensolves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/svd.hpp"

namespace anchor::core {

/// k-NN measure: average overlap between the k nearest neighbors (cosine) of
/// Q sampled query words in X vs X̃. Returns a similarity in [0, 1]; the
/// paper uses 1 − kNN as the distance. Queries are sampled without
/// replacement with `seed`; the query word itself is excluded from its own
/// neighbor list.
double knn_measure(const la::Matrix& x, const la::Matrix& x_tilde,
                   std::size_t k = 5, std::size_t num_queries = 1000,
                   std::uint64_t seed = 42);

/// Row-L2-normalized copy of m (zero rows stay zero) — the cosine-scoring
/// form knn_measure consumes. Exposed so callers evaluating several
/// candidates against one incumbent (e.g. the DeploymentGate) can normalize
/// once and reuse the copy.
la::Matrix normalize_rows_l2(const la::Matrix& m);

/// knn_measure on matrices already row-normalized via normalize_rows_l2.
/// Sampled queries are scored in fixed panels of 16 (one gemm_nt per panel
/// and matrix) in parallel over the shared util::global_pool(); panels are
/// cut by query index, never by pool width, and overlaps are reduced in
/// query order, so the result is bit-for-bit identical at any thread count.
double knn_measure_normalized(const la::Matrix& nx, const la::Matrix& nxt,
                              std::size_t k = 5,
                              std::size_t num_queries = 1000,
                              std::uint64_t seed = 42);

/// Semantic displacement: mean cosine distance between rows of X and the
/// Procrustes-rotated rows of X̃ (requires equal dimensions).
double semantic_displacement(const la::Matrix& x, const la::Matrix& x_tilde);

/// PIP loss ‖XXᵀ − X̃X̃ᵀ‖F, computed as
/// √(‖XᵀX‖F² + ‖X̃ᵀX̃‖F² − 2‖X̃ᵀX‖F²) — O(n·d²) instead of O(n²·d).
double pip_loss(const la::Matrix& x, const la::Matrix& x_tilde);

/// Eigenspace overlap score ‖UᵀŨ‖F² / max(d, k) ∈ [0, 1]; the paper uses
/// 1 − overlap as the distance.
double eigenspace_overlap(const la::Matrix& x, const la::Matrix& x_tilde);

/// Precomputed SVD context for the eigenspace instability measure: the
/// reference embeddings E, Ẽ defining Σ = (EEᵀ)^α + (ẼẼᵀ)^α. In the paper
/// these are the highest-dimensional full-precision Wiki'17/Wiki'18
/// embeddings. Reusable across many (X, X̃) evaluations.
struct EisContext {
  la::Matrix v;                    // right singular vectors of E
  std::vector<double> r;           // singular values of E
  la::Matrix v_tilde;              // right singular vectors of Ẽ... stored as
                                   // *left*-side factors V, Ṽ of EEᵀ = VR²Vᵀ
  std::vector<double> r_tilde;
  double alpha = 3.0;              // eigenvalue-importance exponent (Tab. 8)

  /// Builds the context from the reference embedding matrices.
  static EisContext build(const la::Matrix& e, const la::Matrix& e_tilde,
                          double alpha = 3.0);
};

/// Eigenspace instability measure EI_Σ(X, X̃) (Definition 2), evaluated with
/// the efficient expansion of Appendix B.1. `u` and `u_tilde` are the left
/// singular vectors of X and X̃ (see la::left_singular_vectors).
double eigenspace_instability(const la::Matrix& u, const la::Matrix& u_tilde,
                              const EisContext& ctx);

/// Convenience overload computing the SVDs of X and X̃ internally.
double eigenspace_instability_of(const la::Matrix& x,
                                 const la::Matrix& x_tilde,
                                 const EisContext& ctx);

/// EI_Σ(X, X̃) with the evaluated pair as its own reference pair,
/// Σ = (XXᵀ)^α + (X̃X̃ᵀ)^α, computed in d×d space: from G = XᵀX = W·S²·Wᵀ,
/// G̃ = X̃ᵀX̃ = W̃·S̃²·W̃ᵀ and C = XᵀX̃, P = S⁻¹·WᵀCW̃·S̃⁻¹ is UᵀŨ, and
///   EI = 1 − Σᵢⱼ Pᵢⱼ²·(sᵢ^{2α} + s̃ⱼ^{2α}) / (Σᵢ sᵢ^{2α} + Σⱼ s̃ⱼ^{2α}),
/// which is what the general expansion reduces to when UᵀU = I. Equal to
/// eigenspace_instability(svd(x).u, svd(x̃).u, EisContext::build(x, x̃, α))
/// for full-rank inputs. For a rank-deficient X it keeps only the
/// directions above SvdResult::rank()'s cutoff, i.e. it projects onto
/// range(X) — the rank-r projector of Proposition 1's linear model — where
/// svd(x).u would pad U with arbitrary canonical-seeded completion columns.
/// The two eigensolves overlap on the global pool unless called from a pool
/// worker; the value is the same either way.
double eigenspace_instability_self(const la::Matrix& x,
                                   const la::Matrix& x_tilde, double alpha);

/// Reference implementation via the explicit n×n Σ (Definition 2 verbatim).
/// O(n²·d) time, O(n²) memory — used by tests to validate the fast path.
double eigenspace_instability_naive(const la::Matrix& x,
                                    const la::Matrix& x_tilde,
                                    const la::Matrix& sigma);

/// Explicit Σ = (EEᵀ)^α + (ẼẼᵀ)^α for tests (n×n — small inputs only).
la::Matrix build_sigma_naive(const la::Matrix& e, const la::Matrix& e_tilde,
                             double alpha);

/// The measures as selection criteria, oriented so that *larger = more
/// unstable* (i.e. k-NN and eigenspace overlap enter as 1 − similarity).
enum class Measure {
  kEigenspaceInstability,
  kOneMinusKnn,
  kSemanticDisplacement,
  kPipLoss,
  kOneMinusEigenspaceOverlap,
};

inline constexpr Measure kAllMeasures[] = {
    Measure::kEigenspaceInstability,   Measure::kOneMinusKnn,
    Measure::kSemanticDisplacement,    Measure::kPipLoss,
    Measure::kOneMinusEigenspaceOverlap,
};

std::string measure_name(Measure m);

}  // namespace anchor::core
