// anchor_served — the embedding-serving daemon: loads one or more
// embedding versions into an EmbeddingStore, wraps them in the
// LookupService → AsyncLookupService batching stack, and serves the
// binary RPC protocol (src/net/PROTOCOL.md) on a TCP loopback port.
//
// Examples:
//   # serve two word2vec-text files, int8-quantized, gate thresholds set
//   anchor_served --stores live=2017.vec,candidate=2018.vec --bits 8
//       --port 7411 --eis-reject 0.12 --audit-log /tmp/audit.csv
//   # then from another process: lookups, gated promotion, stats
//   serve_rpc_demo --connect 127.0.0.1:7411
//
//   # self-contained synthetic store (smoke tests, demos)
//   anchor_served --demo --port 0
//
// The daemon prints exactly one line
//   anchor_served listening on 127.0.0.1:<port>
// to stdout once it serves, so scripts can scrape the (possibly
// ephemeral) port. It exits on SIGINT/SIGTERM or a client kShutdown.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/metrics_http.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/demo_store.hpp"
#include "serve/serve.hpp"
#include "util/argparse.hpp"

namespace {

std::atomic<bool> g_signaled{false};

void on_signal(int) { g_signaled.store(true); }

/// Splits "name=path,name=path" store specs; a bare "path" gets version
/// id "v<index>".
struct StoreSpec {
  std::string version;
  std::string path;
};

std::vector<StoreSpec> parse_store_specs(const std::string& arg) {
  std::vector<StoreSpec> specs;
  std::size_t begin = 0;
  while (begin <= arg.size()) {
    std::size_t end = arg.find(',', begin);
    if (end == std::string::npos) end = arg.size();
    const std::string item = arg.substr(begin, end - begin);
    if (!item.empty()) {
      StoreSpec spec;
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos) {
        spec.version = "v";
        spec.version += std::to_string(specs.size() + 1);
        spec.path = item;
      } else {
        spec.version = item.substr(0, eq);
        spec.path = item.substr(eq + 1);
      }
      specs.push_back(std::move(spec));
    }
    begin = end + 1;
  }
  return specs;
}

/// Parses the --bits spec into the snapshot encoding fields: a bare
/// integer ("32", "8", …) selects fp32/uniform quantization, and
/// "pq:<m>x<b>" (e.g. "pq:4x8") selects product quantization with m
/// sub-vectors of b-bit codes. Range/divisibility validation stays with
/// SnapshotConfig itself — this only parses the shape.
void parse_bits_spec(const std::string& spec,
                     anchor::serve::SnapshotConfig* snap) {
  if (spec.rfind("pq:", 0) == 0) {
    const std::size_t x = spec.find('x', 3);
    if (x == std::string::npos || x == 3 || x + 1 >= spec.size()) {
      throw std::runtime_error("--bits pq spec must be pq:<m>x<b>, e.g. "
                               "pq:4x8 (got '" + spec + "')");
    }
    snap->bits = 32;
    snap->pq_m = static_cast<std::size_t>(std::stoul(spec.substr(3, x - 3)));
    snap->pq_bits = static_cast<int>(std::stoul(spec.substr(x + 1)));
    return;
  }
  snap->bits = static_cast<int>(std::stol(spec));
  snap->pq_m = 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anchor;

  ArgParser parser(
      "anchor_served",
      "Embedding serving daemon: batched lookups, instability-gated "
      "promotion, and stats over a binary TCP protocol (see "
      "src/net/PROTOCOL.md).");
  parser.add_option("stores",
                    "comma-separated version=path word2vec-text files; "
                    "first entry becomes live (e.g. live=a.vec,cand=b.vec)");
  parser.add_flag("demo",
                  "serve a synthetic three-version store (v1 live, "
                  "v2-good admitable, v3-bad rejectable) instead of files");
  parser.add_option("demo-vocab", "demo store vocabulary size", "1500");
  parser.add_option("demo-dim", "demo store dimension", "48");
  parser.add_option("bits",
                    "snapshot row encoding: 32 = fp32, 1/2/4/8 = bit-packed "
                    "uniform quantized, pq:<m>x<b> = product-quantized "
                    "(m sub-vectors, b-bit codes, e.g. pq:4x8)", "32");
  parser.add_option("shards", "storage shards per snapshot", "8");
  parser.add_option("port", "TCP port on 127.0.0.1 (0 = ephemeral)", "0");
  parser.add_option("metrics",
                    "Prometheus scrape port on 127.0.0.1 (0 = ephemeral, "
                    "-1 = disabled)", "-1");
  parser.add_option("slow-log",
                    "JSONL slow-request trace log path (empty = disabled)");
  parser.add_option("slow-threshold-us",
                    "log a sampled trace when the request took at least "
                    "this many microseconds (0 = every sampled request)",
                    "10000");
  parser.add_option("slow-log-max-bytes",
                    "rotate the slow log once it would exceed this many "
                    "bytes: the old file moves to <path>.1 (0 = unbounded)",
                    "16777216");
  parser.add_option("slo-p99-us",
                    "SLO latency target in microseconds: requests at or "
                    "over it count against the error budget (0 disables "
                    "the latency term)", "0");
  parser.add_option("slo-error-budget",
                    "allowed fraction of SLO-violating requests; burn "
                    "rates are measured against it", "0.01");
  parser.add_option("drift-interval",
                    "drift-probe sampling period in milliseconds "
                    "(0 = probe once at startup, then only on demand)", "0");
  parser.add_option("hot-keys",
                    "heavy-hitter sketch entry budget; worst-case count "
                    "error is total/budget (0 disables key-load tracking)",
                    "512");
  parser.add_option("heat-buckets",
                    "per-id-range heat-map bucket fanout", "256");
  parser.add_option("max-batch",
                    "batcher: flush when this many keys are waiting", "64");
  parser.add_option("max-wait-us",
                    "batcher: flush when the oldest request is this old",
                    "100");
  parser.add_option("eis-warn", "gate: EIS warn threshold", "0.05");
  parser.add_option("eis-reject", "gate: EIS reject threshold", "0.15");
  parser.add_option("knn-warn", "gate: 1−kNN warn threshold", "0.30");
  parser.add_option("knn-reject", "gate: 1−kNN reject threshold", "0.60");
  parser.add_option("knn-queries", "gate: sampled kNN query words", "256");
  parser.add_option("gate-max-rows",
                    "gate: vocabulary subsample for the measures (0 = all)",
                    "2048");
  parser.add_option("audit-log",
                    "CSV audit log path for gate decisions (empty = no log)");
  parser.add_option("canary-fraction",
                    "canary: default fraction of lookup keys routed to the "
                    "candidate", "0.1");
  parser.add_option("shadow-rate",
                    "canary: fraction of candidate-routed keys mirrored to "
                    "the incumbent for online agreement", "0.1");
  parser.add_option("canary-min-shadows",
                    "canary: shadow samples required before any "
                    "auto-decision", "64");
  parser.add_option("canary-max-shadows",
                    "canary: shadow budget at which the point estimate "
                    "decides", "8192");
  parser.add_option("canary-promote",
                    "canary: promote once the agreement lower confidence "
                    "bound reaches this", "0.70");
  parser.add_option("canary-rollback",
                    "canary: roll back once the agreement upper confidence "
                    "bound falls to this", "0.40");
  parser.add_flag("align-candidates",
                  "Procrustes-align every loaded version after the first "
                  "to the then-live snapshot before serving (cuts false "
                  "canary rollbacks from rotation-only drift)");
  parser.add_option("fault-inject",
                    "ARM the fault-injection harness (chaos testing only): "
                    "a clause list like delay=0.1:25,drop=0.05,close=0.02,"
                    "truncate=0.01 applied to data-plane replies; pass an "
                    "empty spec ('') to arm with no faults and drive it "
                    "later over the FAULT_SET RPC. Unarmed daemons refuse "
                    "FAULT_SET");
  parser.add_option("fault-seed",
                    "fault-injection RNG seed (replayable chaos runs)", "0");
  parser.add_flag("ann-off",
                  "disable the IVF-PQ index and the TOPK RPC entirely");
  parser.add_option("ann-nlist-bits",
                    "TOPK: log2 of the coarse cell count (clamped to the "
                    "store)", "6");
  parser.add_option("ann-m",
                    "TOPK: PQ sub-quantizers per vector (clamped to a "
                    "divisor of dim)", "8");
  parser.add_option("ann-bits", "TOPK: bits per PQ code (1-8)", "8");
  parser.add_option("ann-nprobe",
                    "TOPK: default coarse cells probed per query", "8");
  parser.add_option("ann-rerank",
                    "TOPK: default exact-rerank shortlist size", "64");
  parser.add_option("ann-seed", "TOPK: index-training RNG seed", "42");
  parser.add_option("topk-churn-reject",
                    "gate: reject a promote when mean top-k churn between "
                    "the live and candidate indexes exceeds this "
                    "(0 disables the churn gate)", "0");
  parser.add_option("topk-churn-queries",
                    "gate: probe rows sampled for the churn measure", "64");

  if (!parser.parse(argc, argv)) {
    if (parser.help_requested()) {
      std::cout << parser.usage();
      return 0;
    }
    std::cerr << parser.error() << "\n" << parser.usage();
    return 2;
  }

  net::ServerConfig config;
  std::int64_t metrics_port = -1;
  // Numeric-flag parsing throws (CheckError) on malformed values; turn
  // that into the usage exit path rather than an abort.
  try {
    const std::int64_t port = parser.get_int("port");
    if (port < 0 || port > 65535) {
      throw std::runtime_error("--port must be in [0, 65535]");
    }
    config.port = static_cast<std::uint16_t>(port);
    metrics_port = parser.get_int("metrics");
    if (metrics_port > 65535) {
      throw std::runtime_error("--metrics must be in [-1, 65535]");
    }
    obs::TracerConfig tracer;
    tracer.slow_log_path = parser.get("slow-log");
    tracer.slow_threshold_us = parser.get_double("slow-threshold-us");
    const std::int64_t slow_cap = parser.get_int("slow-log-max-bytes");
    if (slow_cap < 0) {
      throw std::runtime_error("--slow-log-max-bytes must be >= 0");
    }
    tracer.slow_log_max_bytes = static_cast<std::uint64_t>(slow_cap);
    obs::Tracer::instance().configure(tracer);
    config.slo.p99_target_us = parser.get_double("slo-p99-us");
    config.slo.error_budget = parser.get_double("slo-error-budget");
    if (config.slo.error_budget <= 0.0 || config.slo.error_budget > 1.0) {
      throw std::runtime_error("--slo-error-budget must be in (0, 1]");
    }
    const std::int64_t drift_ms = parser.get_int("drift-interval");
    if (drift_ms < 0) {
      throw std::runtime_error("--drift-interval must be >= 0");
    }
    config.drift.interval_ms = static_cast<std::uint64_t>(drift_ms);
    config.hot_key_capacity =
        static_cast<std::size_t>(parser.get_int("hot-keys"));
    config.heat_buckets =
        static_cast<std::size_t>(parser.get_int("heat-buckets"));
    config.batcher.max_batch_size =
        static_cast<std::size_t>(parser.get_int("max-batch"));
    config.batcher.max_wait_us =
        static_cast<std::uint32_t>(parser.get_int("max-wait-us"));
    config.gate.eis_warn = parser.get_double("eis-warn");
    config.gate.eis_reject = parser.get_double("eis-reject");
    config.gate.knn_warn = parser.get_double("knn-warn");
    config.gate.knn_reject = parser.get_double("knn-reject");
    config.gate.knn_queries =
        static_cast<std::size_t>(parser.get_int("knn-queries"));
    config.gate.max_rows =
        static_cast<std::size_t>(parser.get_int("gate-max-rows"));
    config.gate.audit_log = parser.get("audit-log");
    config.canary.fraction = parser.get_double("canary-fraction");
    config.canary.shadow_rate = parser.get_double("shadow-rate");
    config.canary.min_shadows =
        static_cast<std::size_t>(parser.get_int("canary-min-shadows"));
    config.canary.max_shadows =
        static_cast<std::size_t>(parser.get_int("canary-max-shadows"));
    config.canary.promote_agreement = parser.get_double("canary-promote");
    config.canary.rollback_agreement = parser.get_double("canary-rollback");
    // A typo here misroutes live traffic (1.5 saturates to "everything to
    // the candidate"); reject out-of-range knobs like the RPC layer does.
    if (config.canary.fraction <= 0.0 || config.canary.fraction > 1.0 ||
        config.canary.shadow_rate <= 0.0 || config.canary.shadow_rate > 1.0) {
      throw std::runtime_error(
          "--canary-fraction and --shadow-rate must be in (0, 1]");
    }
    if (config.canary.min_shadows > config.canary.max_shadows) {
      throw std::runtime_error(
          "--canary-min-shadows must not exceed --canary-max-shadows");
    }
    if (parser.has("fault-inject")) {
      // Arming is a startup-only decision: a daemon started without the
      // flag can never be faulted, locally or over FAULT_SET.
      config.fault_inject = true;
      config.faults = net::FaultConfig::parse(parser.get("fault-inject"));
      const std::int64_t seed = parser.get_int("fault-seed");
      if (seed != 0) config.fault_seed = static_cast<std::uint64_t>(seed);
    }
    config.ann_enable = !parser.get_flag("ann-off");
    config.ann.nlist_bits =
        static_cast<std::size_t>(parser.get_int("ann-nlist-bits"));
    config.ann.pq_m = static_cast<std::size_t>(parser.get_int("ann-m"));
    config.ann.pq_bits = static_cast<std::size_t>(parser.get_int("ann-bits"));
    config.ann.nprobe = static_cast<std::size_t>(parser.get_int("ann-nprobe"));
    config.ann.rerank = static_cast<std::size_t>(parser.get_int("ann-rerank"));
    config.ann.seed = static_cast<std::uint64_t>(parser.get_int("ann-seed"));
    config.topk_churn_reject = parser.get_double("topk-churn-reject");
    config.topk_churn_queries =
        static_cast<std::size_t>(parser.get_int("topk-churn-queries"));
    if (config.topk_churn_reject < 0.0 || config.topk_churn_reject > 1.0) {
      throw std::runtime_error("--topk-churn-reject must be in [0, 1]");
    }
    if (config.canary.rollback_agreement > config.canary.promote_agreement ||
        config.canary.promote_agreement > 1.0 ||
        config.canary.rollback_agreement < 0.0) {
      throw std::runtime_error(
          "--canary-rollback ≤ --canary-promote required, both in [0, 1]");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << parser.usage();
    return 2;
  }

  // Fail fast on an occupied port BEFORE the (potentially slow) store
  // load: a multi-process demo or CI script pointing two daemons at one
  // port should see "address in use" in milliseconds, not after parsing a
  // multi-gigabyte vector file — and should see it as an error exit, not
  // sit behind a daemon that never prints its listening line. The probe
  // listener closes immediately; the authoritative bind is the Server
  // constructor's (losing that race just reverts to the late error path).
  if (config.port != 0) {
    try {
      net::TcpListener::bind_loopback(config.port).close();
    } catch (const net::NetError& e) {
      std::cerr << "error: " << e.what()
                << "\nhint: 127.0.0.1:" << config.port
                << " is busy — stop the other process, choose another "
                   "--port, or pass --port 0 to pick a free one (printed "
                   "on the listening line)\n";
      return 1;
    }
  }

  serve::SnapshotConfig snap;
  serve::EmbeddingStore store;
  try {
    parse_bits_spec(parser.get("bits"), &snap);
    snap.num_shards = static_cast<std::size_t>(parser.get_int("shards"));
    snap.align_to_live = parser.get_flag("align-candidates");
    if (parser.get_flag("demo")) {
      serve::DemoStoreConfig demo;
      demo.vocab = static_cast<std::size_t>(parser.get_int("demo-vocab"));
      demo.dim = static_cast<std::size_t>(parser.get_int("demo-dim"));
      demo.bits = snap.bits;
      demo.pq_m = snap.pq_m;
      demo.pq_bits = snap.pq_bits;
      demo.num_shards = snap.num_shards;
      demo.align_to_live = snap.align_to_live;
      serve::add_demo_versions(store, demo);
      std::cerr << "loaded demo store: v1 (live), v2-good, v3-bad; vocab="
                << demo.vocab << " dim=" << demo.dim << " encoding="
                << store.live()->encoding() << "\n";
    } else {
      const auto specs = parse_store_specs(parser.get("stores"));
      if (specs.empty()) {
        std::cerr << "error: provide --stores version=path[,...] or --demo\n"
                  << parser.usage();
        return 2;
      }
      for (const StoreSpec& spec : specs) {
        store.load_version(spec.version, spec.path, snap);
        const auto loaded = store.snapshot(spec.version);
        std::cerr << "loaded " << spec.version << " from " << spec.path
                  << ": vocab=" << loaded->vocab_size()
                  << " dim=" << loaded->dim()
                  << " encoding=" << loaded->encoding() << " ("
                  << loaded->memory_bytes() << " bytes)\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error loading store: " << e.what() << "\n";
    return 1;
  }

  try {
    net::Server server(store, config);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::optional<net::MetricsHttpServer> metrics_http;
    if (metrics_port >= 0) {
      metrics_http.emplace(
          static_cast<std::uint16_t>(metrics_port), [&server] {
            return obs::to_prometheus(server.metrics_registry().snapshot());
          });
      metrics_http->start();
    }
    server.start();
    // The one machine-readable line scripts scrape for the bound port.
    std::cout << "anchor_served listening on 127.0.0.1:" << server.port()
              << std::endl;
    // Scripts scrape the "listening on" line specifically, so the
    // metrics endpoint gets its own line (same greppable shape).
    if (metrics_http) {
      std::cout << "anchor_served metrics on 127.0.0.1:"
                << metrics_http->port() << std::endl;
    }

    if (config.fault_inject) {
      std::cerr << "anchor_served FAULT INJECTION ARMED: "
                << (config.faults.any() ? config.faults.serialize()
                                        : std::string("(no faults yet)"))
                << "\n";
    }

    while (!g_signaled.load() && !server.shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // Graceful drain: stop() quits accepting, waits out in-flight
    // handlers and canary shadows, and flushes the audit CSV/slow-log
    // before the listener closes — SIGTERM'd daemons exit 0 with no
    // half-written replies on the wire.
    std::cerr << "anchor_served draining (signal or shutdown RPC)...\n";
    server.stop();
    const auto stats = serve::stats_snapshot(server.service().stats());
    std::cerr << "anchor_served exiting; " << stats.summary() << "\n";
  } catch (const net::NetError& e) {
    // Usually the bind racing another process onto the same port (the
    // pre-load probe above catches the common case early).
    std::cerr << "fatal: " << e.what()
              << "\nhint: pass --port 0 to pick a free port (printed on "
                 "the listening line)\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
