// Serving throughput bench: multi-threaded batched lookup against the
// EmbeddingStore/LookupService across row encoding (fp32, bit-packed
// int8, product-quantized) and thread count — including a
// hot-swap-under-load scenario showing version promotion costs readers
// nothing.
//
// Reported numbers are aggregate QPS (vectors/sec) and per-batch p50/p99
// latency from the serve layer's obs::WindowedStats recorders; every cell
// is also appended to a machine-readable BENCH_serve.json (override with
// --json <path>) so the serving perf trajectory is recorded across PRs.
// Latency quantiles come from the recorder total's obs::LogHistogram
// (nearest-rank bucket lower bound, ≤1/32 relative error) — the same
// estimator the daemon and router report, so bench cells are directly
// comparable to production scrapes. The JSON
// stamps this as workload.latency_estimator; cells from before that
// field existed used a raw nearest-rank sample ring and are not
// bit-comparable at the tail.
//
// The async section measures the coalescing front-end: N client threads
// each keep a window of pipelined SINGLE-KEY futures against an
// AsyncLookupService, so all batching happens inside its flat-combining
// ring. Numbers to watch (both in the JSON's "async_vs_native" object):
// the ratio of coalesced single-key throughput to native lookup_batch
// throughput at the same batch size, and the speedup over UNcoalesced
// native single-key calls (the naive front-end the batcher replaces).
// On a 1-core host the multi-client cells are scheduler-bound: clients,
// combiner, and consumers time-slice one core, so the ratio peaks at 1
// client (~50% of native batch-64) and decays with client count; the
// single-key speedup is the robust signal.
//
// The canary section prices the CanaryRouter data plane. Two numbers:
// the SHADOW overhead (shadow-rate 0.1 vs 0 through the same router —
// the cost of observing agreement, a few percent) and the ROUTING
// overhead vs the plain async batch path. The hash split turns every
// full batch into two underfull sub-batches, each of which waits for the
// batcher's quiescence flush before the routing thread runs it; with
// concurrent clients the sub-batches coalesce across requests and that
// wait amortizes away.
//
// The cluster section prices the shard router's scatter-gather data
// plane: batch-64 lookups over loopback TCP against one direct backend
// vs a 2-shard ClusterClient split (the JSON's "cluster" object). On a
// 1-core host the fan-out cost is dominated by time-slicing: client,
// two backend accept/handler/batcher stacks, and the merge all share
// one core, so the two sub-requests serialize instead of overlapping —
// the number to watch on multicore is how far the overhead falls once
// shard execution is genuinely concurrent (the design's whole point).
// Run: ./build/bench/bench_serve_throughput [--json path] [--smoke]
#include <algorithm>
#include <atomic>
#include <deque>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "cluster/cluster_client.hpp"
#include "compress/pq.hpp"
#include "la/kernels.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace anchor;

constexpr std::size_t kVocab = 50000;
constexpr std::size_t kDim = 64;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kAsyncWindow = 64;  // pipelined futures per client
double g_seconds_per_cell = 0.4;

embed::Embedding random_embedding(std::uint64_t seed) {
  embed::Embedding e(kVocab, kDim);
  Rng rng(seed);
  for (auto& x : e.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  return e;
}

/// Zipf-ish skewed row id: popular rows dominate, as in served traffic.
std::size_t skewed_id(Rng& rng) {
  const double u = rng.uniform();
  return static_cast<std::size_t>(u * u * u * static_cast<double>(kVocab)) %
         kVocab;
}

serve::StatsSnapshot run_cell(serve::LookupService& service, int threads,
                              std::size_t batch = kBatch) {
  service.stats().reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&service, &stop, batch, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      std::vector<std::size_t> ids(batch);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& id : ids) id = skewed_id(rng);
        service.lookup_ids(ids);
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(g_seconds_per_cell));
  stop.store(true);
  for (auto& w : workers) w.join();
  return serve::stats_snapshot(service.stats());
}

/// Coalesced single-key traffic: every request carries ONE key; each
/// client pipelines kAsyncWindow futures so the ring always has enough
/// queued keys to form full batches (a blocking client per thread
/// would cap coalesced batches at `threads` keys).
serve::StatsSnapshot run_async_cell(const serve::LookupService& service,
                                    int threads, double* mean_batch) {
  serve::BatcherConfig config;
  config.max_batch_size = kBatch;
  serve::AsyncLookupService async(service, config);
  async.stats().reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&async, &stop, t] {
      Rng rng(3000 + static_cast<std::uint64_t>(t));
      std::deque<serve::AsyncLookupService::SliceFuture> window;
      while (!stop.load(std::memory_order_relaxed)) {
        window.push_back(async.lookup_id(skewed_id(rng)));
        // Drain everything already completed; block only when the
        // window is full (keeps slack against batch-phase drift).
        while (!window.empty() &&
               (window.size() >= kAsyncWindow || window.front().ready())) {
          window.front().get();
          window.pop_front();
        }
      }
      while (!window.empty()) {
        window.front().get();
        window.pop_front();
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(g_seconds_per_cell));
  stop.store(true);
  for (auto& c : clients) c.join();
  const serve::StatsSnapshot s = serve::stats_snapshot(async.stats());
  *mean_batch = s.batches > 0
                    ? static_cast<double>(s.lookups) /
                          static_cast<double>(s.batches)
                    : 0.0;
  return s;
}

struct BenchCell {
  std::string config;
  int threads = 0;
  serve::StatsSnapshot stats;
  double mean_coalesced_batch = 0.0;  // async cells only
};

void add_row(TextTable& table, std::vector<BenchCell>& cells,
             const std::string& label, const serve::StatsSnapshot& s,
             int threads, double mean_batch = 0.0) {
  table.add_row({label, std::to_string(threads),
                 format_double(s.qps / 1e6, 2), format_double(s.p50_latency_us, 1),
                 format_double(s.p99_latency_us, 1)});
  cells.push_back({label, threads, s, mean_batch});
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::string(argv[i]) == "--smoke") {
      smoke = true;  // CI: exercise every path in well under a second each
    }
  }
  if (smoke) g_seconds_per_cell = 0.05;
  const std::vector<int> native_threads =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> async_threads =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
  std::cout << "\n=== Serving throughput (EmbeddingStore + LookupService) "
               "===\n"
            << "vocab=" << kVocab << " dim=" << kDim << " batch=" << kBatch
            << ", skewed traffic, " << g_seconds_per_cell
            << "s per cell\n\n";

  serve::EmbeddingStore store;
  const auto source = random_embedding(7);
  serve::SnapshotConfig fp32;
  fp32.build_oov_table = false;
  serve::SnapshotConfig q8 = fp32;
  q8.bits = 8;
  store.add_version("fp32", source, fp32);
  store.add_version("int8", source, q8);

  // PQ version: train codebooks on a 4096-row subsample (the offline step
  // of the shared-codebook deployment contract), then encode the full
  // vocabulary against them — Lloyd over all 50k rows would dominate bench
  // startup without changing what the cells measure.
  serve::SnapshotConfig pq = fp32;
  pq.pq_m = 4;
  pq.pq_bits = 8;
  {
    embed::Embedding sample(4096, kDim);
    std::copy_n(source.data.begin(), sample.data.size(),
                sample.data.begin());
    compress::PqConfig pc;
    pc.num_subvectors = pq.pq_m;
    pc.bits = pq.pq_bits;
    pq.pq_codebooks_override = compress::pq_quantize(sample, pc).codebooks;
  }
  store.add_version("pq4x8", source, pq);

  std::cout << "resident bytes: fp32="
            << store.snapshot("fp32")->memory_bytes() << " int8="
            << store.snapshot("int8")->memory_bytes() << " pq4x8="
            << store.snapshot("pq4x8")->memory_bytes() << "\n\n";

  TextTable table({"config", "threads", "Mqps", "p50 us", "p99 us"});
  std::vector<BenchCell> cells;
  for (const int threads : native_threads) {
    for (const char* encoding : {"fp32", "int8", "pq4x8"}) {
      store.set_live(encoding);
      serve::LookupService service(store);
      add_row(table, cells, encoding, run_cell(service, threads), threads);
    }
  }
  table.print(std::cout);

  // Async coalescing: single-key futures only, batched by the
  // AsyncLookupService ring and run on the client threads themselves.
  // Compare against "int8" above — that is the native lookup_batch(kBatch)
  // hot path the coalesced traffic is trying to match.
  std::cout << "\nasync coalesced single-key (window=" << kAsyncWindow
            << " futures/client, max_batch=" << kBatch << "):\n";
  store.set_live("int8");
  serve::LookupService async_backend(store);
  // The uncoalesced baseline: every single-key request pays the full
  // per-batch cost itself — what a naive RPC front-end would do, and the
  // number the batcher exists to beat.
  const auto native1 = run_cell(async_backend, 8, 1);
  std::cout << "  (uncoalesced native single-key at 8 threads: "
            << format_double(native1.qps / 1e6, 2) << " Mqps)\n";
  cells.push_back({"int8 native1key", 8, native1, 0.0});
  TextTable async_table({"config", "threads", "Mqps", "p50 us", "p99 us",
                         "coalesced batch"});
  for (const int threads : async_threads) {
    double mean_batch = 0.0;
    const auto s = run_async_cell(async_backend, threads, &mean_batch);
    async_table.add_row({"int8 async1key", std::to_string(threads),
                         format_double(s.qps / 1e6, 2),
                         format_double(s.p50_latency_us, 1),
                         format_double(s.p99_latency_us, 1),
                         format_double(mean_batch, 1)});
    cells.push_back({"int8 async1key", threads, s, mean_batch});
  }
  async_table.print(std::cout);

  // The acceptance ratio the JSON records: coalesced single-key QPS vs
  // native batch QPS, both int8, at the highest common thread
  // count (p50 here is client-observed latency including queue wait, so
  // it is expected to sit near max_wait_us under light load).
  double native_ref = 0.0, async_ref = 0.0, pq_ref = 0.0;
  int ref_threads = 0;
  for (const BenchCell& c : cells) {
    if (c.config == "int8" && c.threads >= 8) {
      native_ref = c.stats.qps;
      ref_threads = c.threads;
    }
    if (c.config == "pq4x8" && c.threads >= 8) {
      pq_ref = c.stats.qps;
    }
    if (c.config == "int8 async1key" && c.threads == 8) {
      async_ref = c.stats.qps;
    }
  }
  const double ratio = native_ref > 0.0 ? async_ref / native_ref : 0.0;
  const double coalescing_speedup =
      native1.qps > 0.0 ? async_ref / native1.qps : 0.0;
  std::cout << "\nasync vs native batch-" << kBatch << " at " << ref_threads
            << " threads: " << format_double(async_ref / 1e6, 2) << " / "
            << format_double(native_ref / 1e6, 2)
            << " Mqps = " << format_double(100.0 * ratio, 1)
            << "%\nasync vs UNcoalesced single-key: "
            << format_double(coalescing_speedup, 1) << "x\n";

  // Canary overhead: run the CanaryRouter as the data plane (fraction
  // 0.1 of keys to a candidate pinned snapshot) and price the shadow
  // mirror at shadow-rate 0.1 against shadow-rate 0 and against the
  // plain async batch path. The candidate is the same source matrix, the
  // decision thresholds are disabled, and min_shadows is unreachable, so
  // the canary stays RUNNING for the whole cell — these numbers are the
  // steady-state cost of observing a canary, not of deciding one.
  std::cout << "\ncanary routing overhead (fraction=0.1, batch=" << kBatch
            << "):\n";
  store.set_live("int8");
  store.add_version("int8cand", source, q8);
  serve::LookupService canary_backend(store);
  serve::BatcherConfig canary_batcher;
  canary_batcher.max_batch_size = kBatch;
  // The hash split turns each 64-key request into two underfull
  // sub-batches (~6 + ~58 keys), so with blocking drivers the flush
  // deadline — not the lookup — dominates. 20 µs is a latency-tuned
  // serving value; the same batcher serves the baseline cell, keeping
  // the comparison apples-to-apples.
  canary_batcher.max_wait_us = 20;
  serve::AsyncLookupService canary_primary(canary_backend, canary_batcher);
  serve::GateConfig canary_gate;
  canary_gate.eis_warn = canary_gate.eis_reject = 100.0;
  canary_gate.knn_warn = canary_gate.knn_reject = 100.0;
  canary_gate.max_rows = 512;
  canary_gate.knn_queries = 64;
  const serve::DeploymentGate permissive(canary_gate);

  const auto run_blocking_cell = [&](auto&& fn, int threads) {
    obs::WindowedStats cell_stats;
    std::atomic<bool> cell_stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(5000 + static_cast<std::uint64_t>(t));
        std::vector<std::size_t> ids(kBatch);
        serve::LookupResult result;
        while (!cell_stop.load(std::memory_order_relaxed)) {
          for (auto& id : ids) id = skewed_id(rng);
          const auto t0 = std::chrono::system_clock::now();
          fn(ids, &result);
          cell_stats.record_since(t0, kBatch, 0);
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(g_seconds_per_cell));
    cell_stop.store(true);
    for (auto& w : workers) w.join();
    return serve::stats_snapshot(cell_stats);
  };

  const int canary_threads = smoke ? 1 : 2;
  const auto baseline_cell = run_blocking_cell(
      [&](const std::vector<std::size_t>& ids, serve::LookupResult*) {
        canary_primary.lookup_ids(std::vector<std::size_t>(ids)).get();
      },
      canary_threads);

  serve::StatsSnapshot canary_cells[2];
  const double shadow_rates[2] = {0.0, 0.1};
  for (int c = 0; c < 2; ++c) {
    serve::CanaryConfig ccfg;
    ccfg.fraction = 0.1;
    ccfg.shadow_rate = shadow_rates[c];
    ccfg.min_shadows = ~std::size_t{0} / 2;  // observe forever, never decide
    ccfg.max_shadows = ~std::size_t{0} / 2;
    ccfg.candidate_batcher.max_wait_us = 20;
    const auto router =
        permissive.try_promote(store, "int8cand", canary_primary, ccfg);
    canary_cells[c] = run_blocking_cell(
        [&](const std::vector<std::size_t>& ids, serve::LookupResult* out) {
          router->lookup_ids_into(ids, out);
        },
        canary_threads);
    if (c == 1) {
      const auto cs = router->stats();
      std::cout << "  shadow samples collected at rate 0.1: " << cs.shadows
                << " (mean agreement " << format_double(cs.mean_agreement, 3)
                << ")\n";
    }
    router->abort();
  }
  const double canary_routing_cost =
      baseline_cell.qps > 0.0
          ? 1.0 - canary_cells[0].qps / baseline_cell.qps
          : 0.0;
  const double shadow_cost =
      canary_cells[0].qps > 0.0
          ? 1.0 - canary_cells[1].qps / canary_cells[0].qps
          : 0.0;
  TextTable canary_table({"config", "threads", "Mqps", "p50 us", "p99 us"});
  add_row(canary_table, cells, "int8 asyncbatch nocanary", baseline_cell,
          canary_threads);
  add_row(canary_table, cells, "int8 canary f0.1 s0.0", canary_cells[0],
          canary_threads);
  add_row(canary_table, cells, "int8 canary f0.1 s0.1", canary_cells[1],
          canary_threads);
  canary_table.print(std::cout);
  std::cout << "  routing overhead (canary vs plain async batch): "
            << format_double(100.0 * canary_routing_cost, 1)
            << "%\n  shadow overhead (s=0.1 vs s=0.0):               "
            << format_double(100.0 * shadow_cost, 1) << "%\n";

  // Cluster scatter-gather: the same int8 rows served over loopback TCP,
  // once by a single backend and once split across two shard backends
  // behind a ClusterClient (the router's data plane). The delta prices
  // the fan-out: two sub-requests, two replies, one merge per batch —
  // against the one-RPC direct path. Both cells pay the wire, so the
  // ratio isolates the sharding cost rather than TCP itself. Shards share
  // the full store's clip threshold, keeping the split bit-identical to
  // the single backend (the deployment contract README documents).
  std::cout << "\ncluster scatter-gather over loopback (batch=" << kBatch
            << "):\n";
  const int cluster_threads = smoke ? 1 : 2;
  serve::StatsSnapshot cluster_cells[2];
  {
    serve::SnapshotConfig q8_shared = q8;
    q8_shared.clip_override = store.snapshot("int8")->clip();
    const std::size_t split = kVocab / 2;
    const auto make_slice = [&](std::size_t begin, std::size_t end) {
      embed::Embedding e(end - begin, kDim);
      std::memcpy(e.data.data(), source.data.data() + begin * kDim,
                  (end - begin) * kDim * sizeof(float));
      return e;
    };
    serve::EmbeddingStore whole, lo, hi;
    whole.add_version("int8", source, q8_shared);
    lo.add_version("int8", make_slice(0, split), q8_shared);
    hi.add_version("int8", make_slice(split, kVocab), q8_shared);
    net::Server direct(whole, {});
    net::Server shard1(lo, {});
    net::Server shard2(hi, {});
    direct.start();
    shard1.start();
    shard2.start();
    const cluster::ShardMap map(
        1, {{"127.0.0.1", shard1.port(), 0, split},
            {"127.0.0.1", shard2.port(), split, kVocab}});

    // make_client(t) builds the per-thread lookup fn (blocking clients
    // are single-stream, so each worker owns its own).
    const auto run_rpc_cell = [&](auto&& make_client) {
      obs::WindowedStats cell_stats;
      std::atomic<bool> cell_stop{false};
      std::vector<std::thread> workers;
      for (int t = 0; t < cluster_threads; ++t) {
        workers.emplace_back([&, t] {
          auto lookup = make_client(t);
          Rng rng(7000 + static_cast<std::uint64_t>(t));
          std::vector<std::size_t> ids(kBatch);
          while (!cell_stop.load(std::memory_order_relaxed)) {
            for (auto& id : ids) id = skewed_id(rng);
            const auto t0 = std::chrono::system_clock::now();
            lookup(ids);
            cell_stats.record_since(t0, kBatch, 0);
          }
        });
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(g_seconds_per_cell));
      cell_stop.store(true);
      for (auto& w : workers) w.join();
      return serve::stats_snapshot(cell_stats);
    };
    cluster_cells[0] = run_rpc_cell([&](int) {
      auto client = std::make_shared<net::Client>("127.0.0.1", direct.port());
      return [client](const std::vector<std::size_t>& ids) {
        client->lookup_ids(ids);
      };
    });
    cluster_cells[1] = run_rpc_cell([&](int) {
      cluster::ClusterConfig cc;
      cc.map = map;
      auto client = std::make_shared<cluster::ClusterClient>(cc);
      return [client](const std::vector<std::size_t>& ids) {
        client->lookup_ids(ids);
      };
    });
    direct.stop();
    shard1.stop();
    shard2.stop();
  }
  const double fanout_cost =
      cluster_cells[0].qps > 0.0
          ? 1.0 - cluster_cells[1].qps / cluster_cells[0].qps
          : 0.0;
  TextTable cluster_table({"config", "threads", "Mqps", "p50 us", "p99 us"});
  add_row(cluster_table, cells, "int8 rpc direct", cluster_cells[0],
          cluster_threads);
  add_row(cluster_table, cells, "int8 cluster 2shard", cluster_cells[1],
          cluster_threads);
  cluster_table.print(std::cout);
  std::cout << "  fan-out overhead (2-shard scatter-gather vs direct RPC): "
            << format_double(100.0 * fanout_cost, 1) << "%\n";

  // Hot swap under load: flip the live version every 10ms while 4 threads
  // read. Any stall or stale read would show up as a latency spike or a
  // crash; the snapshot shared_ptr design means neither can happen.
  std::cout << "\nhot-swap under load (4 threads, swap every 10ms):\n";
  serve::LookupService service(store);
  service.stats().reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&service, &stop, t] {
      Rng rng(2000 + static_cast<std::uint64_t>(t));
      std::vector<std::size_t> ids(kBatch);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& id : ids) id = skewed_id(rng);
        service.lookup_ids(ids);
      }
    });
  }
  for (int swap = 0; swap < (smoke ? 5 : 40); ++swap) {
    store.set_live(swap % 2 == 0 ? "fp32" : "int8");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  const auto swap_stats = serve::stats_snapshot(service.stats());
  std::cout << "  " << swap_stats.summary() << "\n";

  bench::JsonWriter json;
  json.begin_object();
  json.kv("bench", "serve_throughput");
  json.key("host").begin_object();
  json.kv("hardware_threads",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.kv("isa", anchor::la::kernels::active_isa());
  json.end_object();
  json.key("workload").begin_object();
  json.kv("vocab", kVocab);
  json.kv("dim", kDim);
  json.kv("batch", kBatch);
  json.kv("async_window", kAsyncWindow);
  json.kv("seconds_per_cell", g_seconds_per_cell);
  // Quantile provenance: p50/p99 in every cell are derived from the
  // shared obs::LogHistogram, not a raw sample ring.
  json.kv("latency_estimator", "log_histogram_rel_err_1_32");
  json.end_object();
  json.key("cells").begin_array();
  for (const BenchCell& c : cells) {
    json.begin_object();
    json.kv("config", c.config);
    json.kv("threads", c.threads);
    json.kv("qps", c.stats.qps);
    json.kv("p50_us", c.stats.p50_latency_us);
    json.kv("p99_us", c.stats.p99_latency_us);
    if (c.mean_coalesced_batch > 0.0) {
      json.kv("mean_coalesced_batch", c.mean_coalesced_batch);
    }
    json.end_object();
  }
  json.end_array();
  // The PQ memory/throughput trade at a glance: bytes per stored row for
  // each encoding (codebook amortized across the vocabulary) and the
  // decode cost as a QPS ratio against int8 on the same traffic.
  json.key("pq").begin_object();
  json.kv("encoding", store.snapshot("pq4x8")->encoding());
  json.kv("row_bytes_fp32", kDim * sizeof(float));
  json.kv("row_bytes_int8", kDim);
  json.kv("row_bytes_pq", pq.pq_m);
  json.kv("fp32_memory_bytes", store.snapshot("fp32")->memory_bytes());
  json.kv("int8_memory_bytes", store.snapshot("int8")->memory_bytes());
  json.kv("pq_memory_bytes", store.snapshot("pq4x8")->memory_bytes());
  json.kv("pq_qps", pq_ref);
  json.kv("qps_vs_int8", native_ref > 0.0 ? pq_ref / native_ref : 0.0);
  json.end_object();
  json.key("async_vs_native").begin_object();
  json.kv("threads", ref_threads);
  json.kv("native_batch_qps", native_ref);
  json.kv("native_single_key_qps", native1.qps);
  json.kv("async_single_key_qps", async_ref);
  json.kv("ratio_vs_native_batch", ratio);
  json.kv("speedup_vs_uncoalesced", coalescing_speedup);
  json.end_object();
  json.key("cluster").begin_object();
  json.kv("threads", static_cast<std::size_t>(cluster_threads));
  json.kv("shards", static_cast<std::size_t>(2));
  json.kv("direct_rpc_qps", cluster_cells[0].qps);
  json.kv("cluster_qps", cluster_cells[1].qps);
  json.kv("fanout_overhead_frac", fanout_cost);
  json.end_object();
  json.key("canary_overhead").begin_object();
  json.kv("threads", static_cast<std::size_t>(canary_threads));
  json.kv("fraction", 0.1);
  json.kv("shadow_rate", 0.1);
  json.kv("baseline_async_batch_qps", baseline_cell.qps);
  json.kv("canary_no_shadow_qps", canary_cells[0].qps);
  json.kv("canary_shadow_qps", canary_cells[1].qps);
  json.kv("routing_overhead_frac", canary_routing_cost);
  json.kv("shadow_overhead_frac", shadow_cost);
  json.end_object();
  json.key("hot_swap_under_load").begin_object();
  json.kv("threads", 4);
  json.kv("qps", swap_stats.qps);
  json.kv("p50_us", swap_stats.p50_latency_us);
  json.kv("p99_us", swap_stats.p99_latency_us);
  json.end_object();
  json.end_object();
  json.write_file(json_path);
  std::cout << "\nwrote " << json_path << "\n";

  return 0;
}
