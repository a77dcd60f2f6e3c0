// Instability-gated hot swap — the paper's serving scenario end to end.
//
// An embedding server holds a live snapshot trained on "this year's" corpus.
// Two refreshes arrive: a routine one trained on next year's corpus (the
// Wiki'17 → Wiki'18 stimulus), and a botched one whose training data came
// from the wrong pipeline. The DeploymentGate measures eigenspace
// instability and 1 − k-NN overlap (core/measures) between the incumbent
// and each candidate, with thresholds calibrated from the measured
// seed-to-seed variability of the incumbent's own training run — the churn
// level the fleet already tolerates — and admits the routine refresh while
// rejecting the botched one. No downstream model had to be retrained to
// make the call, which is the point of the paper's cheap predictive
// measures.
//
// The gate's audit trail goes to a CSV whose location is configurable:
// pass a path as argv[1], or set ANCHOR_AUDIT_LOG; the default is
// anchor_serve_audit.csv under the system temp directory (never the
// current working directory — a demo must not litter a repo checkout).
//
// Build & run:  ./build/examples/serve_hot_swap [audit.csv]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "embed/trainer.hpp"
#include "serve/serve.hpp"
#include "text/corpus.hpp"
#include "text/latent_space.hpp"
#include "util/table.hpp"

namespace {

std::filesystem::path audit_log_path(int argc, char** argv) {
  if (argc > 1) return argv[1];
  if (const char* env = std::getenv("ANCHOR_AUDIT_LOG")) return env;
  return std::filesystem::temp_directory_path() / "anchor_serve_audit.csv";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anchor;

  // Bench-scale corpora: one base year, a drifted next year, and a
  // "botched" refresh drawn from an unrelated latent space (wrong data).
  text::LatentSpaceConfig space_config;
  space_config.vocab_size = 600;
  const text::LatentSpace year2017(space_config);
  const text::LatentSpace year2018 = year2017.drifted(0.02, 99);
  text::LatentSpaceConfig wrong_config = space_config;
  wrong_config.seed = 4242;  // unrelated semantics: a broken data pipeline
  const text::LatentSpace wrong_space(wrong_config);

  text::CorpusConfig corpus_config;
  corpus_config.num_documents = 800;
  embed::TrainOptions train;
  train.dim = 32;

  std::cout << "Training incumbent + candidates (CBOW d=" << train.dim
            << ", vocab=" << space_config.vocab_size << ")...\n";
  const auto train_on = [&](const text::LatentSpace& space,
                            std::uint64_t seed) {
    embed::TrainOptions opts = train;
    opts.seed = seed;
    return embed::train_embedding(text::generate_corpus(space, corpus_config),
                                  embed::Algo::kCbow, opts);
  };
  const auto v2017 = train_on(year2017, 1);
  const auto v2017_reseed = train_on(year2017, 2);  // calibration twin
  const auto v2018 = train_on(year2018, 1);
  const auto v2018_bad = train_on(wrong_space, 1);

  serve::EmbeddingStore store;
  store.add_version("v2017", v2017);           // becomes live
  store.add_version("v2018", v2018);
  store.add_version("v2018-bad", v2018_bad);

  // Calibrate thresholds from core/measures values: the seed-to-seed
  // variability of the incumbent's own training run is churn the fleet
  // already absorbs, so warn at 2× and reject at 4× that level.
  serve::EmbeddingStore calib;
  calib.add_version("v2017", v2017);
  calib.add_version("v2017-reseed", v2017_reseed);
  serve::GateConfig probe_config;
  probe_config.knn_queries = 128;
  const auto baseline = serve::DeploymentGate(probe_config)
                            .evaluate(*calib.snapshot("v2017"),
                                      *calib.snapshot("v2017-reseed"));
  serve::GateConfig gate_config = probe_config;
  gate_config.eis_warn = 2.0 * baseline.eis;
  gate_config.eis_reject = 4.0 * baseline.eis;
  gate_config.knn_warn = 2.0 * baseline.one_minus_knn;
  gate_config.knn_reject = 4.0 * baseline.one_minus_knn;
  gate_config.audit_log = audit_log_path(argc, argv);
  const serve::DeploymentGate gate(gate_config);

  std::cout << "\nBaseline (seed-to-seed) measures: eis="
            << format_double(baseline.eis, 4)
            << " 1-knn=" << format_double(baseline.one_minus_knn, 4)
            << "\nGate thresholds: eis warn/reject = "
            << format_double(gate_config.eis_warn, 4) << "/"
            << format_double(gate_config.eis_reject, 4)
            << ", 1-knn warn/reject = "
            << format_double(gate_config.knn_warn, 4) << "/"
            << format_double(gate_config.knn_reject, 4) << "\n\n";

  serve::LookupService service(store);
  const auto before = service.lookup_ids({0, 1, 2});
  std::cout << "Serving from: " << before.version << "\n\n";

  TextTable table({"candidate", "eis", "1-knn", "decision", "live after"});
  for (const std::string candidate : {"v2018-bad", "v2018"}) {
    const auto report = gate.try_promote(store, candidate);
    table.add_row({candidate, format_double(report.eis, 4),
                   format_double(report.one_minus_knn, 4),
                   serve::decision_name(report.decision),
                   store.live_version()});
  }
  table.print(std::cout);

  const auto after = service.lookup_ids({0, 1, 2});
  std::cout << "\nServing from: " << after.version
            << " (hot-swapped without interrupting lookups)\n"
            << "Audit log appended to " << gate_config.audit_log.string()
            << "\nStats: " << serve::stats_snapshot(service.stats()).summary()
            << "\n";

  const bool ok = store.live_version() == "v2018";
  std::cout << "\n[shape] " << (ok ? "PASS" : "FAIL")
            << "  gate admits the routine refresh and rejects the botched "
               "one\n";
  return ok ? 0 : 1;
}
