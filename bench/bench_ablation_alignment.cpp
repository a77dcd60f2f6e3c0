// Ablations of the compression-protocol design choices of paper Appendix
// C.2, which asserts they reduce gratuitous instability (run at README.md's
// "Scaled setting"):
//   1. Procrustes alignment before compression vs no alignment,
//   2. shared vs independent clipping thresholds,
//   3. deterministic vs stochastic rounding.
#include "bench/bench_common.hpp"

#include "compress/quantize.hpp"
#include "core/instability.hpp"
#include "model/linear_bow.hpp"

namespace {

using anchor::embed::Embedding;

double downstream_di(anchor::pipeline::Pipeline& pipe, const Embedding& x17,
                     const Embedding& x18, std::uint64_t seed) {
  const auto& ds = pipe.sentiment_dataset("sst2");
  anchor::model::LinearBowConfig mc;
  mc.init_seed = seed;
  mc.sampling_seed = seed;
  const anchor::model::LinearBowClassifier m17(x17, ds.train_sentences,
                                               ds.train_labels, mc);
  const anchor::model::LinearBowClassifier m18(x18, ds.train_sentences,
                                               ds.train_labels, mc);
  return anchor::core::prediction_disagreement_pct(
      m17.predict_all(ds.test_sentences), m18.predict_all(ds.test_sentences));
}

}  // namespace

int main() {
  using namespace anchor;
  using namespace anchor::bench;
  using namespace anchor::compress;
  using anchor::format_double;
  using anchor::pipeline::Year;
  print_header("Ablation — alignment, clip sharing, rounding mode",
               "the Appendix C.2 protocol choices");
  anchor::pipeline::Pipeline pipe = make_pipeline();
  const auto algo = anchor::embed::Algo::kCbow;
  const std::size_t dim = 32;
  const std::vector<int> bits_list = {1, 2, 4};
  const std::vector<std::uint64_t> seeds = {1, 2};

  anchor::TextTable table({"bits", "aligned+shared-clip (paper)",
                           "no alignment", "independent clips",
                           "stochastic rounding"});
  double paper_total = 0.0, noalign_total = 0.0, indep_total = 0.0;
  for (const int bits : bits_list) {
    std::vector<double> paper_di, noalign_di, indep_di, stoch_di;
    for (const auto seed : seeds) {
      const Embedding raw17 = pipe.raw_embedding(Year::k17, algo, dim, seed);
      const Embedding raw18 = pipe.raw_embedding(Year::k18, algo, dim, seed);
      auto [al17, al18] = pipe.aligned_pair(algo, dim, seed);

      QuantizeConfig qc;
      qc.bits = bits;

      // (1) Paper protocol: aligned, shared clip, deterministic rounding.
      QuantizeResult q17 = uniform_quantize(al17, qc);
      QuantizeConfig qc18 = qc;
      qc18.clip_override = q17.clip;
      QuantizeResult q18 = uniform_quantize(al18, qc18);
      paper_di.push_back(
          downstream_di(pipe, q17.embedding, q18.embedding, seed));

      // (2) No alignment.
      QuantizeResult r17 = uniform_quantize(raw17, qc);
      QuantizeConfig rc18 = qc;
      rc18.clip_override = r17.clip;
      QuantizeResult r18 = uniform_quantize(raw18, rc18);
      noalign_di.push_back(
          downstream_di(pipe, r17.embedding, r18.embedding, seed));

      // (3) Independent clip thresholds (aligned).
      QuantizeResult i18 = uniform_quantize(al18, qc);
      indep_di.push_back(
          downstream_di(pipe, q17.embedding, i18.embedding, seed));

      // (4) Stochastic rounding (aligned, shared clip).
      QuantizeConfig sc = qc;
      sc.rounding = Rounding::kStochastic;
      sc.stochastic_seed = seed;
      QuantizeResult s17 = uniform_quantize(al17, sc);
      QuantizeConfig sc18 = sc;
      sc18.clip_override = s17.clip;
      sc18.stochastic_seed = seed + 100;
      QuantizeResult s18 = uniform_quantize(al18, sc18);
      stoch_di.push_back(
          downstream_di(pipe, s17.embedding, s18.embedding, seed));
    }
    paper_total += mean(paper_di);
    noalign_total += mean(noalign_di);
    indep_total += mean(indep_di);
    table.add_row({std::to_string(bits), format_double(mean(paper_di), 2),
                   format_double(mean(noalign_di), 2),
                   format_double(mean(indep_di), 2),
                   format_double(mean(stoch_di), 2)});
  }
  table.print(std::cout);
  shape_check("Procrustes alignment reduces instability at low precision",
              paper_total < noalign_total);
  std::cout << "(independent clips total " << format_double(indep_total, 2)
            << " vs shared " << format_double(paper_total, 2) << ")\n";
  return 0;
}
