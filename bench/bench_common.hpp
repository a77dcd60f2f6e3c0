// Shared configuration and helpers for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper at the
// scaled-down setting described in README.md ("Scaled setting"). All
// word-embedding benches share one artifact cache (./anchor-cache by
// default, override with ANCHOR_CACHE_DIR), so they can run in any order;
// whichever runs first pays the training cost.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "util/table.hpp"

namespace anchor::bench {

/// The bench-scale experiment grid (README.md, "Scaled setting", maps it
/// to the paper's scale). Single source of truth for every figure/table bench.
inline pipeline::PipelineConfig bench_config() {
  pipeline::PipelineConfig c;  // defaults are already bench-scale
  c.ner_train = 400;
  c.ner_hidden = 10;
  return c;
}

inline pipeline::Pipeline make_pipeline() {
  return pipeline::Pipeline(bench_config(), "anchor-cache");
}

/// The three embedding algorithms of the main study (§2.2). The fastText
/// robustness study (Appendix E.1) adds Algo::kFastText in its own bench.
inline const std::vector<embed::Algo>& main_algos() {
  static const std::vector<embed::Algo> algos = {
      embed::Algo::kCbow, embed::Algo::kGloVe, embed::Algo::kMc};
  return algos;
}

/// Paper-name for a task id ("sst2" → "SST-2" etc.).
inline std::string task_display_name(const std::string& task) {
  if (task == "sst2") return "SST-2";
  if (task == "mr") return "MR";
  if (task == "subj") return "Subj";
  if (task == "mpqa") return "MPQA";
  if (task == "conll2003") return "CoNLL-2003";
  return task;
}

/// Mean over per-seed values.
inline double mean(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "(reproduces " << paper_ref << " at the scaled setting of "
            << "README.md; shapes, not absolute values, are the claim)\n\n";
}

/// Directional shape check printed with each bench so regressions in the
/// reproduced trend are visible in CI logs.
inline void shape_check(const std::string& claim, bool ok) {
  std::cout << "[shape] " << (ok ? "PASS" : "FAIL") << "  " << claim << "\n";
}

}  // namespace anchor::bench
