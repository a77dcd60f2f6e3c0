// Table 8 (Appendix D.3): hyperparameter selection for the eigenspace
// instability measure's α and the k-NN measure's k — average Spearman
// correlation with downstream instability across the sentiment + NER tasks
// and the CBOW + MC algorithms, at README.md's "Scaled setting". Also covers
// the α ablation (α = 0 reduces Σ to an unweighted projector sum).
#include "bench/bench_common.hpp"

#include "core/selection.hpp"
#include "la/stats.hpp"

namespace anchor::bench {
namespace {

/// Spearman of `value(dim, bits)` against DI over the grid for one
/// (task, algo), seed 1 (the paper tunes on validation data; one seed keeps
/// this bench affordable).
double grid_spearman(pipeline::Pipeline& pipe, const std::string& task,
                     embed::Algo algo,
                     const std::function<double(std::size_t, int)>& value) {
  const auto& cfg = pipe.config();
  std::vector<double> v, di;
  for (const auto dim : cfg.dims) {
    for (const int bits : cfg.precisions) {
      v.push_back(value(dim, bits));
      di.push_back(pipe.downstream_instability(task, algo, dim, bits, 1));
    }
  }
  return la::spearman(v, di);
}

}  // namespace
}  // namespace anchor::bench

int main() {
  using namespace anchor;
  using namespace anchor::bench;
  print_header("Table 8 — hyperparameter selection for alpha (EIS) and k "
               "(k-NN)",
               "Table 8 (a) and (b)");
  anchor::pipeline::Pipeline pipe = make_pipeline();
  const std::vector<embed::Algo> algos = {embed::Algo::kCbow,
                                          embed::Algo::kMc};
  const auto& tasks = anchor::pipeline::Pipeline::all_tasks();
  const double cells = static_cast<double>(tasks.size() * algos.size());

  std::cout << "(a) alpha for the eigenspace instability measure:\n";
  anchor::TextTable ta({"alpha", "avg Spearman"});
  double best_rho = -2.0;
  double best_alpha = -1.0;
  for (const double alpha : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    double total = 0.0;
    for (const auto& task : tasks) {
      for (const auto algo : algos) {
        total += grid_spearman(pipe, task, algo,
                               [&](std::size_t d, int b) {
                                 return pipe.eis_with_alpha(algo, d, b, 1,
                                                            alpha);
                               });
      }
    }
    const double avg = total / cells;
    ta.add_row({anchor::format_double(alpha, 0), anchor::format_double(avg, 3)});
    if (avg > best_rho) {
      best_rho = avg;
      best_alpha = alpha;
    }
  }
  ta.print(std::cout);
  std::cout << "Best alpha = " << best_alpha
            << "   [paper: 3, with small alpha clearly worse]\n\n";
  shape_check("eigenvalue weighting helps: best alpha > 0", best_alpha > 0.0);

  std::cout << "(b) k for the k-NN measure:\n";
  anchor::TextTable tb({"k", "avg Spearman"});
  double best_k_rho = -2.0;
  std::size_t best_k = 0;
  for (const std::size_t k : {1u, 2u, 5u, 10u, 50u, 100u}) {
    double total = 0.0;
    for (const auto& task : tasks) {
      for (const auto algo : algos) {
        total += grid_spearman(pipe, task, algo,
                               [&](std::size_t d, int b) {
                                 return pipe.knn_with_k(algo, d, b, 1, k);
                               });
      }
    }
    const double avg = total / cells;
    tb.add_row({std::to_string(k), anchor::format_double(avg, 3)});
    if (avg > best_k_rho) {
      best_k_rho = avg;
      best_k = k;
    }
  }
  tb.print(std::cout);
  std::cout << "Best k = " << best_k
            << "   [paper: 5, with very large k degrading]\n";
  shape_check("moderate k beats the largest k (paper: k=500+ degrades)",
              best_k <= 50);
  return 0;
}
