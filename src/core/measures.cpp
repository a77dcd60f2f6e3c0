#include "core/measures.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "la/eigen.hpp"
#include "la/kernels.hpp"
#include "la/procrustes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor::core {

namespace {

/// Queries scored per similarity panel: one gemm_nt of a panel's query
/// rows against the whole vocabulary streams the matrix once per panel
/// instead of once per query.
constexpr std::size_t kKnnPanel = 16;

/// Indices of the k largest entries of one similarity row `sims` (length
/// n), excluding `query` itself. Overwrites sims[query].
std::vector<std::size_t> top_k_neighbors(double* sims, std::size_t n,
                                         std::size_t query, std::size_t k) {
  sims[query] = -2.0;  // exclude self

  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  const std::size_t kk = std::min(k, n - 1);
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(kk),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      // Deterministic tie-break on index keeps the measure
                      // reproducible across platforms.
                      return sims[a] != sims[b] ? sims[a] > sims[b] : a < b;
                    });
  idx.resize(kk);
  return idx;
}

/// Cosine similarities of the `count` queries starting at `first` against
/// every row of `normalized`: a count × n panel, row-major.
std::vector<double> similarity_panel(const la::Matrix& normalized,
                                     const std::size_t* first,
                                     std::size_t count) {
  const std::size_t n = normalized.rows();
  const std::size_t d = normalized.cols();
  std::vector<double> rows(count * d);
  for (std::size_t i = 0; i < count; ++i) {
    std::copy_n(normalized.row(first[i]), d, rows.data() + i * d);
  }
  std::vector<double> sims(count * n);
  la::kernels::gemm_nt(rows.data(), count, normalized.data(), n, d,
                       sims.data());
  return sims;
}

}  // namespace

la::Matrix normalize_rows_l2(const la::Matrix& m) {
  la::Matrix out = m;
  const std::size_t cols = out.cols();
  util::global_pool().parallel_for(0, out.rows(), [&](std::size_t i) {
    la::kernels::l2_normalize(out.row(i), cols);
  });
  return out;
}

double knn_measure_normalized(const la::Matrix& nx, const la::Matrix& nxt,
                              std::size_t k, std::size_t num_queries,
                              std::uint64_t seed) {
  ANCHOR_CHECK_EQ(nx.rows(), nxt.rows());
  ANCHOR_CHECK_GT(k, 0u);
  const std::size_t n = nx.rows();
  ANCHOR_CHECK_GE(n, 2u);

  // Sample query words without replacement.
  std::vector<std::size_t> queries(n);
  std::iota(queries.begin(), queries.end(), 0u);
  Rng rng(seed);
  rng.shuffle(queries);
  queries.resize(std::min(num_queries, n));

  // Queries are scored in fixed panels of kKnnPanel consecutive sample
  // slots, in parallel; each panel writes only its own overlap slots and the
  // reduction below runs in fixed query order, so the value is independent
  // of the pool size.
  std::vector<double> overlaps(queries.size(), 0.0);
  const std::size_t panels = (queries.size() + kKnnPanel - 1) / kKnnPanel;
  util::global_pool().parallel_for(0, panels, [&](std::size_t p) {
    const std::size_t lo = p * kKnnPanel;
    const std::size_t count = std::min(kKnnPanel, queries.size() - lo);
    std::vector<double> sims_x = similarity_panel(nx, &queries[lo], count);
    std::vector<double> sims_xt = similarity_panel(nxt, &queries[lo], count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t q = queries[lo + i];
      const auto a = top_k_neighbors(sims_x.data() + i * n, n, q, k);
      const auto b = top_k_neighbors(sims_xt.data() + i * n, n, q, k);
      const std::unordered_set<std::size_t> sa(a.begin(), a.end());
      std::size_t hits = 0;
      for (const std::size_t w : b) hits += sa.count(w);
      overlaps[lo + i] =
          static_cast<double>(hits) / static_cast<double>(a.size());
    }
  });
  double overlap_sum = 0.0;
  for (const double o : overlaps) overlap_sum += o;
  return overlap_sum / static_cast<double>(queries.size());
}

double knn_measure(const la::Matrix& x, const la::Matrix& x_tilde,
                   std::size_t k, std::size_t num_queries,
                   std::uint64_t seed) {
  return knn_measure_normalized(normalize_rows_l2(x), normalize_rows_l2(x_tilde),
                                k, num_queries, seed);
}

double semantic_displacement(const la::Matrix& x, const la::Matrix& x_tilde) {
  ANCHOR_CHECK_EQ(x.rows(), x_tilde.rows());
  ANCHOR_CHECK_EQ(x.cols(), x_tilde.cols());
  const la::Matrix aligned = la::procrustes_align(x, x_tilde);
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  // Per-row cosine distances land in their own slots; the sum below runs in
  // row order, so the measure is thread-count-independent.
  std::vector<double> dists(n, 0.0);
  util::global_pool().parallel_for(0, n, [&](std::size_t i) {
    const double* a = x.row(i);
    const double* b = aligned.row(i);
    const double dot = la::kernels::dot(a, b, d);
    const double na = la::kernels::dot(a, a, d);
    const double nb = la::kernels::dot(b, b, d);
    const double denom = std::sqrt(na * nb);
    dists[i] = (denom > 0.0) ? 1.0 - dot / denom : 0.0;
  });
  double acc = 0.0;
  for (const double v : dists) acc += v;
  return acc / static_cast<double>(n);
}

double pip_loss(const la::Matrix& x, const la::Matrix& x_tilde) {
  ANCHOR_CHECK_EQ(x.rows(), x_tilde.rows());
  const double a = la::frobenius_norm_sq(la::gram(x));
  const double b = la::frobenius_norm_sq(la::gram(x_tilde));
  const double c = la::frobenius_norm_sq(la::matmul_at_b(x_tilde, x));
  return std::sqrt(std::max(0.0, a + b - 2.0 * c));
}

double eigenspace_overlap(const la::Matrix& x, const la::Matrix& x_tilde) {
  ANCHOR_CHECK_EQ(x.rows(), x_tilde.rows());
  const la::Matrix u = la::left_singular_vectors(x);
  const la::Matrix ut = la::left_singular_vectors(x_tilde);
  const double overlap = la::frobenius_norm_sq(la::matmul_at_b(u, ut));
  return overlap / static_cast<double>(std::max(u.cols(), ut.cols()));
}

EisContext EisContext::build(const la::Matrix& e, const la::Matrix& e_tilde,
                             double alpha) {
  ANCHOR_CHECK_EQ(e.rows(), e_tilde.rows());
  EisContext ctx;
  la::SvdResult se = la::svd(e);
  la::SvdResult st = la::svd(e_tilde);
  // EEᵀ = U·S²·Uᵀ: the factors Σ needs are E's *left* singular vectors and
  // singular values (named V, R in the paper's Appendix B.1 because it
  // writes E = VRWᵀ).
  ctx.v = std::move(se.u);
  ctx.r = std::move(se.singular_values);
  ctx.v_tilde = std::move(st.u);
  ctx.r_tilde = std::move(st.singular_values);
  ctx.alpha = alpha;
  return ctx;
}

namespace {

/// Scales column j of m by s[j]^alpha, in place.
void scale_columns_pow(la::Matrix& m, const std::vector<double>& s,
                       double alpha) {
  ANCHOR_CHECK_EQ(m.cols(), s.size());
  for (std::size_t j = 0; j < m.cols(); ++j) {
    const double f = std::pow(std::max(s[j], 0.0), alpha);
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, j) *= f;
  }
}

/// One Σ-component's three trace terms (Appendix B.1, Eq. 3):
/// ‖UᵀVR^α‖F² + ‖ŨᵀVR^α‖F² − 2·tr(R^α(VᵀŨ)(ŨᵀU)(UᵀV)R^α).
double sigma_component(const la::Matrix& u, const la::Matrix& u_tilde,
                       const la::Matrix& v, const std::vector<double>& r,
                       double alpha) {
  la::Matrix utv = la::matmul_at_b(u, v);          // d × d_e
  la::Matrix uttv = la::matmul_at_b(u_tilde, v);   // k × d_e
  scale_columns_pow(utv, r, alpha);                // UᵀV R^α
  scale_columns_pow(uttv, r, alpha);               // ŨᵀV R^α
  const double term1 = la::frobenius_norm_sq(utv);
  const double term2 = la::frobenius_norm_sq(uttv);
  // tr(R^α VᵀŨ · ŨᵀU · UᵀV R^α) = ⟨ŨᵀV R^α, (ŨᵀU)(UᵀV R^α)⟩.
  const la::Matrix utu = la::matmul_at_b(u_tilde, u);  // k × d
  const la::Matrix prod = la::matmul(utu, utv);        // k × d_e
  double cross = 0.0;
  for (std::size_t i = 0; i < prod.size(); ++i) {
    cross += prod.storage()[i] * uttv.storage()[i];
  }
  return term1 + term2 - 2.0 * cross;
}

}  // namespace

double eigenspace_instability(const la::Matrix& u, const la::Matrix& u_tilde,
                              const EisContext& ctx) {
  ANCHOR_CHECK_EQ(u.rows(), u_tilde.rows());
  ANCHOR_CHECK_EQ(u.rows(), ctx.v.rows());
  ANCHOR_CHECK_EQ(u.rows(), ctx.v_tilde.rows());

  const double numerator =
      sigma_component(u, u_tilde, ctx.v, ctx.r, ctx.alpha) +
      sigma_component(u, u_tilde, ctx.v_tilde, ctx.r_tilde, ctx.alpha);

  double denominator = 0.0;
  for (const double s : ctx.r) denominator += std::pow(s, 2.0 * ctx.alpha);
  for (const double s : ctx.r_tilde) {
    denominator += std::pow(s, 2.0 * ctx.alpha);
  }
  ANCHOR_CHECK_GT(denominator, 0.0);
  return numerator / denominator;
}

double eigenspace_instability_of(const la::Matrix& x,
                                 const la::Matrix& x_tilde,
                                 const EisContext& ctx) {
  return eigenspace_instability(la::left_singular_vectors(x),
                                la::left_singular_vectors(x_tilde), ctx);
}

namespace {

/// G = XᵀX = W·S²·Wᵀ cut to range(X): all of W's columns, descending, and
/// the r singular values of X above SvdResult::rank()'s relative cutoff,
/// which pair with W's first r columns.
struct GramFactor {
  la::Matrix w;
  std::vector<double> s;
};

GramFactor factor_gram(const la::Matrix& g) {
  la::EigenResult eig = la::eigen_symmetric(g);
  la::SvdResult f;
  f.singular_values.reserve(eig.values.size());
  for (const double lambda : eig.values) {
    f.singular_values.push_back(std::sqrt(std::max(0.0, lambda)));
  }
  f.singular_values.resize(f.rank());
  return {std::move(eig.vectors), std::move(f.singular_values)};
}

}  // namespace

double eigenspace_instability_self(const la::Matrix& x,
                                   const la::Matrix& x_tilde, double alpha) {
  ANCHOR_CHECK_EQ(x.rows(), x_tilde.rows());
  const la::Matrix g = la::gram(x);
  const la::Matrix g_tilde = la::gram(x_tilde);
  const la::Matrix cross = la::matmul_at_b(x, x_tilde);  // XᵀX̃, d×k

  // The two eigensolves are serial and independent: overlap them, unless
  // already on a pool worker, where submit-and-get could block a slot on a
  // task queued behind it. Either way each runs alone on its input, so the
  // result does not depend on which thread ran it.
  GramFactor f;
  GramFactor ft;
  if (util::ThreadPool::on_worker_thread()) {
    f = factor_gram(g);
    ft = factor_gram(g_tilde);
  } else {
    auto ft_future = util::global_pool().submit(
        [&g_tilde] { return factor_gram(g_tilde); });
    try {
      f = factor_gram(g);
    } catch (...) {
      ft_future.wait();  // the task still reads g_tilde
      throw;
    }
    ft = ft_future.get();
  }

  // UᵀŨ = S⁻¹·Wᵀ(XᵀX̃)W̃·S̃⁻¹ on the retained directions; then
  // EI = 1 − Σᵢⱼ Pᵢⱼ²·(sᵢ^{2α} + s̃ⱼ^{2α}) / (Σᵢ sᵢ^{2α} + Σⱼ s̃ⱼ^{2α}).
  const la::Matrix m = la::matmul_at_b(f.w, la::matmul(cross, ft.w));
  const auto weights = [alpha](const std::vector<double>& s) {
    std::vector<double> w(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      w[i] = std::pow(s[i], 2.0 * alpha);
    }
    return w;
  };
  const std::vector<double> wx = weights(f.s);
  const std::vector<double> wt = weights(ft.s);
  double total = 0.0;
  for (const double w : wx) total += w;
  for (const double w : wt) total += w;
  ANCHOR_CHECK_GT(total, 0.0);
  double kept = 0.0;
  for (std::size_t i = 0; i < f.s.size(); ++i) {
    const double* mi = m.row(i);
    for (std::size_t j = 0; j < ft.s.size(); ++j) {
      const double p = mi[j] / (f.s[i] * ft.s[j]);
      kept += p * p * (wx[i] + wt[j]);
    }
  }
  return 1.0 - kept / total;
}

double eigenspace_instability_naive(const la::Matrix& x,
                                    const la::Matrix& x_tilde,
                                    const la::Matrix& sigma) {
  ANCHOR_CHECK_EQ(sigma.rows(), sigma.cols());
  ANCHOR_CHECK_EQ(sigma.rows(), x.rows());
  const la::Matrix u = la::left_singular_vectors(x);
  const la::Matrix ut = la::left_singular_vectors(x_tilde);
  const la::Matrix uuT = la::matmul_a_bt(u, u);
  const la::Matrix utuT = la::matmul_a_bt(ut, ut);
  // M = UUᵀ + ŨŨᵀ − 2·ŨŨᵀ·UUᵀ.
  la::Matrix m = la::add(uuT, utuT);
  m = la::subtract(m, la::scale(la::matmul(utuT, uuT), 2.0));
  return la::trace(la::matmul(m, sigma)) / la::trace(sigma);
}

la::Matrix build_sigma_naive(const la::Matrix& e, const la::Matrix& e_tilde,
                             double alpha) {
  auto component = [&](const la::Matrix& mat) {
    la::SvdResult s = la::svd(mat);
    la::Matrix u = s.u;
    scale_columns_pow(u, s.singular_values, alpha);  // U·R^α
    return la::matmul_a_bt(u, u);                    // U·R^{2α}·Uᵀ
  };
  return la::add(component(e), component(e_tilde));
}

std::string measure_name(Measure m) {
  switch (m) {
    case Measure::kEigenspaceInstability: return "Eigenspace Instability";
    case Measure::kOneMinusKnn: return "1 - k-NN";
    case Measure::kSemanticDisplacement: return "Semantic Displacement";
    case Measure::kPipLoss: return "PIP Loss";
    case Measure::kOneMinusEigenspaceOverlap: return "1 - Eigenspace Overlap";
  }
  ANCHOR_CHECK_MSG(false, "unknown measure");
  return {};
}

}  // namespace anchor::core
