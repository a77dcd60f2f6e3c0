#include "serve/deployment_gate.hpp"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>

#include "core/measures.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace anchor::serve {

namespace {

constexpr char kAuditHeader[] =
    "old_version,new_version,decision,eis,one_minus_knn,rows_compared,"
    "promoted,reason";

GateDecision worse(GateDecision a, GateDecision b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

// The audit format has no quoting, so free-text fields (version ids come
// from callers, reasons are gate-generated) are defanged before writing:
// one bad row must never make the whole log unparseable.
std::string csv_safe(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

}  // namespace

std::string decision_name(GateDecision d) {
  switch (d) {
    case GateDecision::kAdmit:
      return "admit";
    case GateDecision::kWarn:
      return "warn";
    case GateDecision::kReject:
      return "reject";
  }
  ANCHOR_CHECK_MSG(false, "unknown GateDecision");
  return "";
}

DeploymentGate::DeploymentGate(GateConfig config)
    : config_(std::move(config)) {
  ANCHOR_CHECK_LE(config_.eis_warn, config_.eis_reject);
  ANCHOR_CHECK_LE(config_.knn_warn, config_.knn_reject);
}

GateReport DeploymentGate::evaluate(const EmbeddingSnapshot& incumbent,
                                    const EmbeddingSnapshot& candidate) const {
  GateReport report;
  report.old_version = incumbent.version();
  report.new_version = candidate.version();

  // Shared vocabulary: rows are word ids in both snapshots, so the common
  // prefix [0, min vocab) is the comparable set; subsampling keeps the
  // O(n·d²) measures interactive at serving time.
  std::size_t rows = std::min(incumbent.vocab_size(), candidate.vocab_size());
  if (config_.max_rows > 0) rows = std::min(rows, config_.max_rows);
  report.rows_compared = rows;

  const la::Matrix x = incumbent.to_matrix(rows);
  const la::Matrix x_tilde = candidate.to_matrix(rows);

  // The two measures read the same immutable matrices and are independent.
  // Each snapshot is row-normalized exactly once (knn_measure would
  // otherwise build its own copies) and the normalized pair is what the
  // parallel query scoring shares.
  const auto one_minus_knn = [&] {
    const la::Matrix nx = core::normalize_rows_l2(x);
    const la::Matrix nxt = core::normalize_rows_l2(x_tilde);
    return 1.0 - core::knn_measure_normalized(nx, nxt, config_.knn_k,
                                              config_.knn_queries,
                                              config_.knn_seed);
  };
  // The incumbent/candidate pair doubles as the reference pair defining
  // Σ = (EEᵀ)^α + (ẼẼᵀ)^α — the serving-time analogue of the paper using
  // the highest-dimensional full-precision pair as the reference.
  const auto eis = [&] {
    return core::eigenspace_instability_self(x, x_tilde, config_.alpha);
  };

  if (util::ThreadPool::on_worker_thread()) {
    // Already inside the pool (e.g. a canarying job evaluating gates in
    // parallel): submit-and-get from a worker would block a pool slot on a
    // task queued behind it — run sequentially instead; both measures
    // still fan out internally via nested parallel_for.
    report.eis = eis();
    report.one_minus_knn = one_minus_knn();
  } else {
    // Overlap the kNN overlap with the instability work (whose two
    // eigensolves are serial).
    auto knn_future = util::global_pool().submit(one_minus_knn);
    try {
      report.eis = eis();
    } catch (...) {
      // The worker still reads x / x_tilde; futures from packaged_task do
      // not block on destruction, so join it before unwinding frees them.
      knn_future.wait();
      throw;
    }
    report.one_minus_knn = knn_future.get();
  }

  GateDecision eis_decision = GateDecision::kAdmit;
  if (report.eis >= config_.eis_reject) {
    eis_decision = GateDecision::kReject;
  } else if (report.eis >= config_.eis_warn) {
    eis_decision = GateDecision::kWarn;
  }
  GateDecision knn_decision = GateDecision::kAdmit;
  if (report.one_minus_knn >= config_.knn_reject) {
    knn_decision = GateDecision::kReject;
  } else if (report.one_minus_knn >= config_.knn_warn) {
    knn_decision = GateDecision::kWarn;
  }
  report.decision = worse(eis_decision, knn_decision);

  std::ostringstream reason;
  reason << "eis=" << report.eis << " (" << decision_name(eis_decision)
         << ") 1-knn=" << report.one_minus_knn << " ("
         << decision_name(knn_decision) << ")";
  report.reason = reason.str();
  return report;
}

GateReport DeploymentGate::try_promote(
    EmbeddingStore& store, const std::string& candidate_version) const {
  const SnapshotPtr candidate = store.snapshot(candidate_version);
  ANCHOR_CHECK_MSG(candidate != nullptr,
                   "unknown candidate version '" << candidate_version << "'");
  const SnapshotPtr incumbent = store.live();

  GateReport report;
  // Identity, not name: add_version may have re-registered the live version
  // id with a brand-new snapshot, and that refresh must still be gated.
  if (!incumbent || incumbent == candidate) {
    report.old_version = incumbent ? incumbent->version() : "";
    report.new_version = candidate_version;
    report.decision = GateDecision::kAdmit;
    report.reason = incumbent ? "candidate is already live" : "no incumbent";
  } else {
    report = evaluate(*incumbent, *candidate);
  }

  if (report.decision != GateDecision::kReject) {
    // Promote the exact snapshot that was gated; a concurrent re-register
    // under the same name must not ride through on it.
    report.promoted = store.set_live_snapshot(candidate);
    if (!report.promoted) {
      report.reason += "; promotion aborted: candidate was re-registered "
                       "during evaluation";
    }
  }
  if (!config_.audit_log.empty()) append_audit_csv(config_.audit_log, report);
  return report;
}

void append_audit_csv(const std::filesystem::path& path,
                      const GateReport& report) {
  // Appenders run on control-plane handlers AND on whichever serving
  // thread a canary auto-decision fires from; a process-wide mutex keeps
  // rows whole and the exists→header sequence atomic.
  static std::mutex audit_mu;
  std::lock_guard<std::mutex> lock(audit_mu);
  const bool fresh = !std::filesystem::exists(path);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::app);
  ANCHOR_CHECK_MSG(out.good(), "cannot open audit log for appending");
  if (fresh) out << kAuditHeader << '\n';
  out.precision(10);
  out << csv_safe(report.old_version) << ',' << csv_safe(report.new_version)
      << ',' << decision_name(report.decision) << ',' << report.eis << ','
      << report.one_minus_knn << ',' << report.rows_compared << ','
      << (report.promoted ? 1 : 0) << ',' << csv_safe(report.reason) << '\n';
  ANCHOR_CHECK_MSG(out.good(), "write failure while appending audit log");
}

std::vector<GateReport> read_audit_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  ANCHOR_CHECK_MSG(in.good(), "cannot open audit log for reading");
  std::string line;
  ANCHOR_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                   "empty audit log");
  ANCHOR_CHECK_MSG(line == kAuditHeader, "unexpected audit log header");

  std::vector<GateReport> reports;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    // Free-text fields are comma-defanged at write time (csv_safe), so a
    // fixed 8-way split is sufficient. getline never yields a field after a
    // trailing delimiter, so an empty final reason must be restored by hand.
    while (std::getline(ss, field, ',')) fields.push_back(field);
    if (fields.size() == 7 && line.back() == ',') fields.emplace_back();
    ANCHOR_CHECK_MSG(fields.size() == 8, "malformed audit row: " << line);

    GateReport r;
    r.old_version = fields[0];
    r.new_version = fields[1];
    if (fields[2] == "admit") {
      r.decision = GateDecision::kAdmit;
    } else if (fields[2] == "warn") {
      r.decision = GateDecision::kWarn;
    } else if (fields[2] == "reject") {
      r.decision = GateDecision::kReject;
    } else {
      ANCHOR_CHECK_MSG(false, "unknown decision '" << fields[2] << "'");
    }
    r.eis = std::stod(fields[3]);
    r.one_minus_knn = std::stod(fields[4]);
    r.rows_compared = static_cast<std::size_t>(std::stoull(fields[5]));
    r.promoted = fields[6] == "1";
    r.reason = fields[7];
    reports.push_back(std::move(r));
  }
  return reports;
}

}  // namespace anchor::serve
