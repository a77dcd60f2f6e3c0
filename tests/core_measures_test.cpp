// Tests for the embedding distance measures — including the paper's central
// theoretical claims:
//   • the efficient eigenspace instability computation (Appendix B.1)
//     matches the Definition-2 formula evaluated with an explicit Σ;
//   • Proposition 1: EI_Σ(X, X̃) equals the (normalized) expected squared
//     disagreement of linear regression models trained on X and X̃.
#include <gtest/gtest.h>

#include <cmath>

#include "core/instability.hpp"
#include "core/measures.hpp"
#include "core/theory.hpp"
#include "la/procrustes.hpp"
#include "la/svd.hpp"
#include "util/rng.hpp"

namespace anchor::core {
namespace {

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (auto& x : m.storage()) x = rng.normal();
  return m;
}

la::Matrix random_orthogonal(std::size_t n, std::uint64_t seed) {
  return la::left_singular_vectors(random_matrix(n, n, seed));
}

la::Matrix perturbed(const la::Matrix& m, double sigma, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix out = m;
  for (auto& x : out.storage()) x += rng.normal(0.0, sigma);
  return out;
}

// ---------- k-NN measure ----------

TEST(Knn, IdenticalEmbeddingsScoreOne) {
  const la::Matrix x = random_matrix(50, 6, 1);
  EXPECT_DOUBLE_EQ(knn_measure(x, x, 5, 50, 7), 1.0);
}

TEST(Knn, UnrelatedEmbeddingsScoreLow) {
  const la::Matrix x = random_matrix(120, 8, 2);
  const la::Matrix y = random_matrix(120, 8, 3);
  EXPECT_LT(knn_measure(x, y, 5, 120, 7), 0.3);
}

TEST(Knn, InvariantToRotation) {
  // Cosine neighborhoods are rotation-invariant.
  const la::Matrix x = random_matrix(60, 5, 4);
  const la::Matrix y = la::matmul(x, random_orthogonal(5, 5));
  EXPECT_DOUBLE_EQ(knn_measure(x, y, 5, 60, 7), 1.0);
}

TEST(Knn, SmallPerturbationScoresBetweenExtremes) {
  const la::Matrix x = random_matrix(100, 6, 6);
  const la::Matrix y = perturbed(x, 0.15, 7);
  const double s = knn_measure(x, y, 5, 100, 7);
  EXPECT_GT(s, 0.4);
  EXPECT_LT(s, 1.0);
}

TEST(Knn, MorePerturbationLowerScore) {
  const la::Matrix x = random_matrix(100, 6, 8);
  const double s_small = knn_measure(x, perturbed(x, 0.05, 9), 5, 100, 7);
  const double s_large = knn_measure(x, perturbed(x, 0.8, 9), 5, 100, 7);
  EXPECT_GT(s_small, s_large);
}

TEST(Knn, DeterministicGivenSeed) {
  const la::Matrix x = random_matrix(80, 6, 10);
  const la::Matrix y = perturbed(x, 0.2, 11);
  EXPECT_DOUBLE_EQ(knn_measure(x, y, 5, 40, 7), knn_measure(x, y, 5, 40, 7));
}

// ---------- semantic displacement ----------

TEST(SemanticDisplacement, ZeroUnderPureRotation) {
  const la::Matrix x = random_matrix(60, 5, 12);
  const la::Matrix y = la::matmul(x, random_orthogonal(5, 13));
  EXPECT_NEAR(semantic_displacement(x, y), 0.0, 1e-8);
}

TEST(SemanticDisplacement, GrowsWithPerturbation) {
  const la::Matrix x = random_matrix(60, 5, 14);
  const double small = semantic_displacement(x, perturbed(x, 0.05, 15));
  const double large = semantic_displacement(x, perturbed(x, 0.5, 15));
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

// ---------- PIP loss ----------

TEST(PipLoss, ZeroOnSelf) {
  const la::Matrix x = random_matrix(40, 6, 16);
  EXPECT_NEAR(pip_loss(x, x), 0.0, 1e-8);
}

TEST(PipLoss, TrickMatchesNaiveComputation) {
  // ‖XXᵀ − YYᵀ‖F computed directly on the n×n matrices.
  for (const std::uint64_t seed : {17u, 18u, 19u}) {
    const la::Matrix x = random_matrix(25, 4, seed);
    const la::Matrix y = random_matrix(25, 7, seed + 100);
    const la::Matrix naive =
        la::subtract(la::matmul_a_bt(x, x), la::matmul_a_bt(y, y));
    EXPECT_NEAR(pip_loss(x, y), la::frobenius_norm(naive), 1e-8);
  }
}

TEST(PipLoss, InvariantToRotation) {
  const la::Matrix x = random_matrix(30, 5, 20);
  const la::Matrix y = la::matmul(x, random_orthogonal(5, 21));
  EXPECT_NEAR(pip_loss(x, y), 0.0, 1e-7);
}

TEST(PipLoss, SymmetricInArguments) {
  const la::Matrix x = random_matrix(30, 4, 22);
  const la::Matrix y = random_matrix(30, 6, 23);
  EXPECT_NEAR(pip_loss(x, y), pip_loss(y, x), 1e-8);
}

// ---------- eigenspace overlap ----------

TEST(EigenspaceOverlap, OneOnSelf) {
  const la::Matrix x = random_matrix(40, 5, 24);
  EXPECT_NEAR(eigenspace_overlap(x, x), 1.0, 1e-8);
}

TEST(EigenspaceOverlap, InvariantToRightMultiplication) {
  // Column space is unchanged by any invertible right factor.
  const la::Matrix x = random_matrix(40, 5, 25);
  const la::Matrix y = la::matmul(x, random_orthogonal(5, 26));
  EXPECT_NEAR(eigenspace_overlap(x, y), 1.0, 1e-8);
}

TEST(EigenspaceOverlap, DisjointSubspacesScoreZero) {
  // X lives on coordinates 0–2, Y on coordinates 3–5 of R^6.
  la::Matrix x(6, 2, 0.0), y(6, 2, 0.0);
  x(0, 0) = 1.0;
  x(1, 1) = 1.0;
  y(3, 0) = 1.0;
  y(4, 1) = 1.0;
  EXPECT_NEAR(eigenspace_overlap(x, y), 0.0, 1e-10);
}

TEST(EigenspaceOverlap, NestedSubspaceNormalizedByLargerDim) {
  // Y spans a 2-dim subspace of X's 4-dim span ⇒ overlap = 2/4.
  const la::Matrix base = random_matrix(30, 4, 27);
  la::Matrix y(30, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    y(i, 0) = base(i, 0);
    y(i, 1) = base(i, 1);
  }
  EXPECT_NEAR(eigenspace_overlap(base, y), 0.5, 1e-8);
}

// ---------- eigenspace instability ----------

struct EisCase {
  std::size_t n, d, k;
  double alpha;
};

class EisAgainstNaive : public ::testing::TestWithParam<EisCase> {};

TEST_P(EisAgainstNaive, FastFormulaMatchesExplicitSigma) {
  const auto [n, d, k, alpha] = GetParam();
  const la::Matrix x = random_matrix(n, d, 30 + n);
  const la::Matrix x_tilde = random_matrix(n, k, 31 + n);
  const la::Matrix e = random_matrix(n, 6, 32 + n);
  const la::Matrix e_tilde = perturbed(e, 0.2, 33);

  const EisContext ctx = EisContext::build(e, e_tilde, alpha);
  const double fast = eigenspace_instability_of(x, x_tilde, ctx);

  const la::Matrix sigma = build_sigma_naive(e, e_tilde, alpha);
  const double naive = eigenspace_instability_naive(x, x_tilde, sigma);
  EXPECT_NEAR(fast, naive, 1e-6 * std::max(1.0, std::abs(naive)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EisAgainstNaive,
    ::testing::Values(EisCase{20, 4, 4, 1.0}, EisCase{20, 4, 7, 1.0},
                      EisCase{35, 8, 3, 2.0}, EisCase{35, 8, 8, 3.0},
                      EisCase{16, 5, 5, 0.0}, EisCase{40, 10, 6, 3.0}));

// ---------- eigenspace instability, self-referenced (the gate's case) ----

struct SelfCase {
  std::size_t n, d, k;
};

class EisSelfAgainstNaive
    : public ::testing::TestWithParam<std::tuple<SelfCase, double>> {};

TEST_P(EisSelfAgainstNaive, ClosedFormMatchesDefinition2) {
  const auto [shape, alpha] = GetParam();
  const la::Matrix x = random_matrix(shape.n, shape.d, 80 + shape.n);
  // Equal widths: a nearby candidate (the small-EIS regime the gate
  // admits); unequal widths: an unrelated one.
  const la::Matrix x_tilde = shape.k == shape.d
                                 ? perturbed(x, 0.3, 81 + shape.n)
                                 : random_matrix(shape.n, shape.k, 82);

  const double fast = eigenspace_instability_self(x, x_tilde, alpha);
  const double naive = eigenspace_instability_naive(
      x, x_tilde, build_sigma_naive(x, x_tilde, alpha));
  EXPECT_NEAR(fast, naive, 1e-6 * std::abs(naive));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EisSelfAgainstNaive,
    ::testing::Combine(::testing::Values(SelfCase{40, 6, 6},  // n > d
                                         SelfCase{40, 8, 5},  // k ≠ d
                                         SelfCase{12, 20, 8},   // n < d
                                         SelfCase{16, 6, 24}),  // n < k
                       ::testing::Values(0.0, 1.0, 3.0)));

TEST(EisSelf, MatchesTheGeneralPathWithTheEvaluatedPairAsReference) {
  const la::Matrix x = random_matrix(300, 12, 90);
  const la::Matrix y = perturbed(x, 0.2, 91);
  const EisContext ctx = EisContext::build(x, y, 3.0);
  EXPECT_NEAR(eigenspace_instability_self(x, y, 3.0),
              eigenspace_instability(ctx.v, ctx.v_tilde, ctx), 1e-10);
}

TEST(EisSelf, RankDeficientInputProjectsOntoItsRange) {
  // Column 4 duplicates column 1, so X has rank 4 of 5. The oracle is
  // Definition 2 built from the first rank() columns of svd(x).u — the
  // rank-r projector of Proposition 1's linear model.
  la::Matrix x = random_matrix(30, 5, 92);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 4) = x(i, 1);
  const la::Matrix y = perturbed(random_matrix(30, 4, 93), 0.1, 94);
  const la::SvdResult sx = la::svd(x);
  const std::size_t r = sx.rank();
  ASSERT_EQ(r, 4u);
  la::Matrix x_range(x.rows(), r);  // U_r·S_r: same range, same spectrum
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      x_range(i, j) = sx.u(i, j) * sx.singular_values[j];
    }
  }
  for (const double alpha : {0.0, 1.0, 3.0}) {
    const double naive = eigenspace_instability_naive(
        x_range, y, build_sigma_naive(x_range, y, alpha));
    EXPECT_NEAR(eigenspace_instability_self(x, y, alpha), naive,
                1e-6 * std::abs(naive))
        << "alpha " << alpha;
  }
}

TEST(Eis, ZeroWhenSpansIdentical) {
  const la::Matrix x = random_matrix(30, 5, 40);
  const la::Matrix y = la::matmul(x, random_orthogonal(5, 41));
  const la::Matrix e = random_matrix(30, 5, 42);
  const EisContext ctx = EisContext::build(e, perturbed(e, 0.1, 43), 1.0);
  EXPECT_NEAR(eigenspace_instability_of(x, y, ctx), 0.0, 1e-8);
}

TEST(Eis, SymmetricInXAndXTilde) {
  const la::Matrix x = random_matrix(30, 4, 44);
  const la::Matrix y = random_matrix(30, 6, 45);
  const la::Matrix e = random_matrix(30, 5, 46);
  const EisContext ctx = EisContext::build(e, perturbed(e, 0.1, 47), 2.0);
  EXPECT_NEAR(eigenspace_instability_of(x, y, ctx),
              eigenspace_instability_of(y, x, ctx), 1e-8);
}

TEST(Eis, BoundedZeroOne) {
  for (const std::uint64_t seed : {50u, 51u, 52u, 53u}) {
    const la::Matrix x = random_matrix(25, 4, seed);
    const la::Matrix y = random_matrix(25, 5, seed + 10);
    const la::Matrix e = random_matrix(25, 6, seed + 20);
    const EisContext ctx = EisContext::build(e, perturbed(e, 0.3, 1), 3.0);
    const double v = eigenspace_instability_of(x, y, ctx);
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST(Eis, OneForOrthogonalComplementarySubspaces) {
  // U spans coords 0–1, Ũ spans coords 2–3, Σ supported on their union.
  la::Matrix x(4, 2, 0.0), y(4, 2, 0.0);
  x(0, 0) = 1.0;
  x(1, 1) = 1.0;
  y(2, 0) = 1.0;
  y(3, 1) = 1.0;
  // E = identity basis ⇒ Σ = 2·I with α = 0... use explicit Σ via naive.
  const la::Matrix sigma = la::Matrix::identity(4);
  EXPECT_NEAR(eigenspace_instability_naive(x, y, sigma), 1.0, 1e-10);
}

TEST(Eis, GrowsWithPerturbation) {
  const la::Matrix x = random_matrix(40, 6, 60);
  const la::Matrix e = random_matrix(40, 8, 61);
  const EisContext ctx = EisContext::build(e, perturbed(e, 0.1, 62), 3.0);
  const double small =
      eigenspace_instability_of(x, perturbed(x, 0.05, 63), ctx);
  const double large =
      eigenspace_instability_of(x, perturbed(x, 1.0, 63), ctx);
  EXPECT_GT(large, small);
}

// ---------- Proposition 1 ----------

TEST(Proposition1, LinearModelPredictionsAreProjection) {
  const la::Matrix x = random_matrix(25, 4, 70);
  const la::Matrix u = la::left_singular_vectors(x);
  Rng rng(71);
  std::vector<double> y(25);
  for (auto& v : y) v = rng.normal();
  // U·Uᵀ·y is idempotent: applying twice changes nothing.
  const auto once = linear_model_predictions(u, y);
  const auto twice = linear_model_predictions(u, once);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(once[i], twice[i], 1e-9);
  }
}

TEST(Proposition1, EisEqualsMonteCarloDisagreement) {
  // The central identity: EI_Σ(X, X̃) = E‖UUᵀy − ŨŨᵀy‖² / E‖y‖² with
  // y ~ N(0, Σ). Monte-Carlo with many samples, moderate tolerance.
  const la::Matrix x = random_matrix(30, 5, 72);
  const la::Matrix x_tilde = perturbed(x, 0.4, 73);
  const la::Matrix e = random_matrix(30, 6, 74);
  const la::Matrix e_tilde = perturbed(e, 0.2, 75);
  const double alpha = 1.0;

  const EisContext ctx = EisContext::build(e, e_tilde, alpha);
  const double eis = eigenspace_instability_of(x, x_tilde, ctx);

  const la::Matrix f = sigma_factor(e, e_tilde, alpha);
  const la::Matrix u = la::left_singular_vectors(x);
  const la::Matrix ut = la::left_singular_vectors(x_tilde);
  const double mc = expected_disagreement_mc(u, ut, f, 4000, 76);
  EXPECT_NEAR(mc, eis, 0.05 * std::max(eis, 0.01));
}

TEST(Proposition1, SigmaFactorReproducesSigma) {
  const la::Matrix e = random_matrix(15, 4, 80);
  const la::Matrix e_tilde = perturbed(e, 0.3, 81);
  const la::Matrix f = sigma_factor(e, e_tilde, 2.0);
  const la::Matrix sigma = build_sigma_naive(e, e_tilde, 2.0);
  EXPECT_LT(la::max_abs_diff(la::matmul_a_bt(f, f), sigma), 1e-7);
}

TEST(Proposition1, DisagreementSampleMatchesDefinition) {
  const la::Matrix x = random_matrix(20, 3, 82);
  const la::Matrix y_emb = random_matrix(20, 4, 83);
  const la::Matrix u = la::left_singular_vectors(x);
  const la::Matrix ut = la::left_singular_vectors(y_emb);
  Rng rng(84);
  std::vector<double> label(20);
  for (auto& v : label) v = rng.normal();
  const auto pa = linear_model_predictions(u, label);
  const auto pb = linear_model_predictions(ut, label);
  double num = 0.0, denom = 0.0;
  for (std::size_t i = 0; i < label.size(); ++i) {
    num += (pa[i] - pb[i]) * (pa[i] - pb[i]);
    denom += label[i] * label[i];
  }
  EXPECT_NEAR(disagreement_sample(u, ut, label), num / denom, 1e-12);
}

// ---------- downstream instability helpers ----------

TEST(Instability, DisagreementPct) {
  EXPECT_DOUBLE_EQ(prediction_disagreement_pct({1, 0, 1, 0}, {1, 0, 1, 0}),
                   0.0);
  EXPECT_DOUBLE_EQ(prediction_disagreement_pct({1, 0, 1, 0}, {0, 1, 0, 1}),
                   100.0);
  EXPECT_DOUBLE_EQ(prediction_disagreement_pct({1, 0, 1, 0}, {1, 0, 0, 0}),
                   25.0);
}

TEST(Instability, MaskedDisagreementIgnoresUnmasked) {
  const std::vector<std::int32_t> a = {1, 2, 3, 4};
  const std::vector<std::int32_t> b = {9, 2, 9, 4};
  EXPECT_DOUBLE_EQ(masked_disagreement_pct(a, b, {0, 1, 1, 1}),
                   100.0 / 3.0);
  EXPECT_THROW(masked_disagreement_pct(a, b, {0, 0, 0, 0}), CheckError);
}

TEST(Instability, AccuracyPct) {
  EXPECT_DOUBLE_EQ(accuracy_pct({1, 1, 0}, {1, 0, 0}), 100.0 * 2.0 / 3.0);
}

TEST(Instability, MicroF1IgnoresOClass) {
  // gold:  O  1  2  1 ; pred: O  1  1  O
  // tp = 1 (pos 1), fp = 1 (pos 2 wrong type), fn = 2 (pos 2 counted? ...)
  //   pos2: pred 1 gold 2 → fp and fn; pos3: pred O gold 1 → fn.
  const std::vector<std::int32_t> gold = {0, 1, 2, 1};
  const std::vector<std::int32_t> pred = {0, 1, 1, 0};
  // tp=1, fp=1, fn=2 → F1 = 2·1/(2+1+2) = 0.4.
  EXPECT_NEAR(micro_f1_pct(pred, gold, 0), 40.0, 1e-9);
}

TEST(Instability, MicroF1PerfectAndEmpty) {
  EXPECT_DOUBLE_EQ(micro_f1_pct({1, 2, 0}, {1, 2, 0}, 0), 100.0);
  EXPECT_DOUBLE_EQ(micro_f1_pct({0, 0}, {0, 0}, 0), 0.0);
}

TEST(MeasureNames, AllDistinct) {
  std::set<std::string> names;
  for (const Measure m : kAllMeasures) names.insert(measure_name(m));
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace anchor::core
