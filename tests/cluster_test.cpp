// cluster/ subsystem: ShardMap routing + serialization, scatter-gather
// bit-identity against a single-process store, degraded partial results
// when a backend dies mid-stream (and recovery after it returns),
// coordinated shard-by-shard rollout with rollback, and hostile-frame
// fuzz against a live router — real TCP on 127.0.0.1 throughout, in the
// net_test style.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster_test_util.hpp"
#include "cluster/client_pool.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_map.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::cluster {
namespace {

constexpr std::size_t kVocab = 900;
constexpr std::size_t kDim = 24;

embed::Embedding jitter(const embed::Embedding& base, std::uint64_t seed,
                        double sigma) {
  embed::Embedding e = base;
  Rng rng(seed);
  for (auto& x : e.data) x += static_cast<float>(rng.normal(0.0, sigma));
  return e;
}

// ---- ShardMap ----------------------------------------------------------

TEST(ShardMap, RoutesSerializesAndRoundTrips) {
  const ShardMap map(7, {{"127.0.0.1", 7501, 0, 300},
                         {"127.0.0.1", 7502, 300, 301},
                         {"10.0.0.3", 7503, 301, 900}});
  EXPECT_EQ(map.num_shards(), 3u);
  EXPECT_EQ(map.total_rows(), 900u);
  EXPECT_EQ(map.version(), 7u);
  EXPECT_EQ(map.shard_of_id(0), 0u);
  EXPECT_EQ(map.shard_of_id(299), 0u);
  EXPECT_EQ(map.shard_of_id(300), 1u);  // single-row shard boundary
  EXPECT_EQ(map.shard_of_id(301), 2u);
  EXPECT_EQ(map.shard_of_id(899), 2u);
  EXPECT_EQ(map.local_id(0), 0u);
  EXPECT_EQ(map.local_id(300), 0u);
  EXPECT_EQ(map.local_id(305), 4u);
  EXPECT_THROW(map.shard_of_id(900), CheckError);

  // Word routing is a stable pure function covering every shard index.
  std::vector<bool> hit(map.num_shards(), false);
  for (int i = 0; i < 200; ++i) {
    const std::string word = "word-" + std::to_string(i);
    const std::size_t s = map.shard_of_word(word);
    ASSERT_LT(s, map.num_shards());
    EXPECT_EQ(s, map.shard_of_word(word));
    hit[s] = true;
  }
  for (const bool h : hit) EXPECT_TRUE(h);

  const std::string text = map.serialize();
  EXPECT_EQ(text, "v7,127.0.0.1:7501:0:300,127.0.0.1:7502:300:301,"
                  "10.0.0.3:7503:301:900");
  EXPECT_TRUE(ShardMap::parse(text) == map);
}

TEST(ShardMap, RejectsMalformedTopologies) {
  // Gap between ranges.
  EXPECT_THROW(ShardMap(1, {{"h", 1, 0, 10}, {"h", 2, 11, 20}}), CheckError);
  // Coverage not starting at row 0.
  EXPECT_THROW(ShardMap(1, {{"h", 1, 5, 10}}), CheckError);
  // Empty range, port 0, no shards.
  EXPECT_THROW(ShardMap(1, {{"h", 1, 0, 0}}), CheckError);
  EXPECT_THROW(ShardMap(1, {{"h", 0, 0, 10}}), CheckError);
  EXPECT_THROW(ShardMap(1, {}), CheckError);

  EXPECT_THROW(ShardMap::parse(""), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("x3,h:1:0:10"), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("v1,h:1:0"), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("v1,h:0:0:10"), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("v1,h:99999:0:10"), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("v1,h:1:0:10,h:2:11:20"), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("v1,h:1:zero:10"), std::runtime_error);
}

TEST(ShardMap, ReplicaSetsRoundTripAndStayV1Compatible) {
  // Two replicas on shard 1, one on shard 2: the '|' form round-trips and
  // the single-replica entry serializes exactly as the pre-replica v1
  // text (same SHARD_MAP payload on the wire).
  const ShardMap map(
      3, {ShardSpec({{"127.0.0.1", 7501}, {"127.0.0.1", 7601}}, 0, 400),
          ShardSpec("127.0.0.1", 7502, 400, 900)});
  EXPECT_EQ(map.num_shards(), 2u);
  EXPECT_EQ(map.num_replicas_total(), 3u);
  EXPECT_EQ(map.shard(0).num_replicas(), 2u);
  EXPECT_EQ(map.shard(0).replica(1).port, 7601);
  EXPECT_EQ(map.shard(0).address(), "127.0.0.1:7501");  // primary label
  EXPECT_EQ(map.shard(0).address(1), "127.0.0.1:7601");

  const std::string text = map.serialize();
  EXPECT_EQ(text, "v3,127.0.0.1:7501|127.0.0.1:7601:0:400,"
                  "127.0.0.1:7502:400:900");
  EXPECT_TRUE(ShardMap::parse(text) == map);

  // Pure-v1 text (no '|') parses to all-single-replica shards, and
  // re-serializing it is byte-identical — back-compat both directions.
  const std::string v1 = "v7,127.0.0.1:7501:0:300,10.0.0.3:7503:300:900";
  const ShardMap from_v1 = ShardMap::parse(v1);
  EXPECT_EQ(from_v1.num_replicas_total(), 2u);
  for (const ShardSpec& spec : from_v1.shards()) {
    EXPECT_EQ(spec.num_replicas(), 1u);
  }
  EXPECT_EQ(from_v1.serialize(), v1);

  // Routing is replica-agnostic: the same ranges route the same rows.
  EXPECT_EQ(map.shard_of_id(399), 0u);
  EXPECT_EQ(map.shard_of_id(400), 1u);
}

TEST(ShardMap, RejectsMalformedReplicaSets) {
  // Duplicate endpoint within one replica set (hedging to your own
  // straggler is not failover).
  EXPECT_THROW(
      ShardMap(1, {ShardSpec({{"h", 1}, {"h", 1}}, 0, 10)}), CheckError);
  // Empty replica set.
  EXPECT_THROW(ShardMap(1, {ShardSpec({}, 0, 10)}), CheckError);
  // Port 0 inside a replica set.
  EXPECT_THROW(
      ShardMap(1, {ShardSpec({{"h", 1}, {"h", 0}}, 0, 10)}), CheckError);
  // Text forms: empty replica, trailing '|', duplicate replica.
  EXPECT_THROW(ShardMap::parse("v1,h:1|:0:10"), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("v1,|h:1:0:10"), std::runtime_error);
  EXPECT_THROW(ShardMap::parse("v1,h:1|h:1:0:10"), std::runtime_error);
}

// ---- hedge policy ------------------------------------------------------

TEST(HedgePolicy, DelayDerivesFromMergedQuantileWithClamps) {
  HedgePolicy::Config cfg;
  cfg.quantile = 0.99;
  cfg.multiplier = 2.0;
  cfg.min_samples = 32;
  cfg.refresh_every = 1;  // recompute on every query (test determinism)
  cfg.default_delay_us = 5000.0;
  cfg.min_delay_us = 10.0;
  cfg.max_delay_us = 1e9;
  HedgePolicy policy(2, cfg);

  // Below min_samples the default applies — an empty histogram has no
  // p99 worth trusting.
  EXPECT_DOUBLE_EQ(policy.hedge_delay_us(0), 5000.0);
  for (int i = 1; i <= 8; ++i) policy.record(0, 100.0 * i);
  EXPECT_DOUBLE_EQ(policy.hedge_delay_us(0), 5000.0);

  // Past min_samples the delay IS the histogram quantile × multiplier:
  // exactly what shard_snapshot() reports, not a separate estimate.
  for (int i = 9; i <= 200; ++i) policy.record(0, 100.0 * i);
  const double expect =
      policy.shard_snapshot(0).quantile(0.99) * cfg.multiplier;
  EXPECT_DOUBLE_EQ(policy.hedge_delay_us(0), expect);
  EXPECT_GT(policy.hedge_delay_us(0), 5000.0);  // p99 of ramp ≫ default

  // Shards are independent: shard 1 never recorded, still default.
  EXPECT_DOUBLE_EQ(policy.hedge_delay_us(1), 5000.0);

  // The clamp bounds a pathological histogram.
  HedgePolicy::Config tight = cfg;
  tight.max_delay_us = 300.0;
  HedgePolicy clamped(1, tight);
  for (int i = 0; i < 64; ++i) clamped.record(0, 1e6);
  EXPECT_DOUBLE_EQ(clamped.hedge_delay_us(0), 300.0);
}

// ---- backend fixture ---------------------------------------------------

/// One in-process anchor backend serving a row slice of shared versions.
struct Backend {
  serve::EmbeddingStore store;
  std::unique_ptr<net::Server> server;

  Backend(const std::vector<std::pair<std::string, embed::Embedding>>& versions,
          const serve::SnapshotConfig& snap, net::ServerConfig config = {}) {
    for (const auto& [name, source] : versions) {
      store.add_version(name, source, snap);
    }
    server = std::make_unique<net::Server>(store, config);
    server->start();
  }
  std::uint16_t port() const { return server->port(); }
};

/// Builds N backends over contiguous slices of `versions` and the matching
/// ShardMap (splits = boundaries including 0 and vocab).
struct Cluster {
  std::vector<std::unique_ptr<Backend>> backends;
  ShardMap map;

  Cluster(const std::vector<std::pair<std::string, embed::Embedding>>& versions,
          const std::vector<std::size_t>& splits,
          const serve::SnapshotConfig& snap) {
    std::vector<ShardSpec> specs;
    for (std::size_t s = 0; s + 1 < splits.size(); ++s) {
      std::vector<std::pair<std::string, embed::Embedding>> sliced;
      for (const auto& [name, source] : versions) {
        sliced.emplace_back(name, slice(source, splits[s], splits[s + 1]));
      }
      backends.push_back(std::make_unique<Backend>(sliced, snap));
      specs.push_back({"127.0.0.1", backends.back()->port(), splits[s],
                       splits[s + 1]});
    }
    map = ShardMap(1, std::move(specs));
  }
};

// ---- scatter-gather bit-identity ---------------------------------------

TEST(ClusterClient, ScatterGatherBitIdenticalToSingleProcess) {
  const embed::Embedding base = random_embedding(11, kVocab, kDim);
  Cluster cluster({{"v1", base}}, {0, 250, 251, 700, kVocab}, plain_snap());

  serve::EmbeddingStore reference;
  reference.add_version("v1", base, plain_snap());
  serve::LookupService ref(reference);

  ClusterConfig cc;
  cc.map = cluster.map;
  ClusterClient client(cc);

  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::size_t> ids(1 + rng.index(96));
    for (auto& id : ids) {
      // Mostly valid ids, some past the vocabulary (OOV-zero contract).
      id = rng.index(kVocab + 20);
    }
    const serve::LookupResult got = client.lookup_ids(ids);
    const serve::LookupResult want = ref.lookup_ids(ids);
    ASSERT_TRUE(identical(got, want)) << "round " << round;
    EXPECT_FALSE(client.last_degraded());
  }
  // Word traffic: synthetic in-vocab words resolve by row range; real
  // OOV strings route to a home shard and flag identically (both sides
  // built without OOV tables, so the vectors are zero on both).
  for (int round = 0; round < 10; ++round) {
    std::vector<std::string> words;
    for (std::size_t i = 0; i < 40; ++i) {
      std::string w = rng.index(4) == 0 ? "unseen-" : "w";
      w += std::to_string(rng.index(w[0] == 'w' ? kVocab + 20 : 1000));
      words.push_back(std::move(w));
    }
    ASSERT_TRUE(identical(client.lookup_words(words), ref.lookup_words(words)))
        << "round " << round;
  }
  // Single-shard and empty edge cases.
  EXPECT_TRUE(identical(client.lookup_ids({42}), ref.lookup_ids({42})));
  EXPECT_EQ(client.lookup_ids({}).size(), 0u);

  // An ALL-OOV batch involves no shard, yet must keep the single-process
  // shape: store dim, live version, zeroed flagged rows — both on a warm
  // client (hint from earlier merges) and on a cold one (probe path).
  const std::vector<std::size_t> oov_only = {kVocab, kVocab + 7};
  EXPECT_TRUE(identical(client.lookup_ids(oov_only),
                        ref.lookup_ids(oov_only)));
  ClusterClient cold(cc);
  EXPECT_TRUE(identical(cold.lookup_ids(oov_only),
                        ref.lookup_ids(oov_only)));
}

TEST(ClusterClient, QuantizedBitIdenticalWithSharedClip) {
  const embed::Embedding base = random_embedding(13, kVocab, kDim);
  serve::SnapshotConfig q8 = plain_snap();
  q8.bits = 8;

  serve::EmbeddingStore reference;
  reference.add_version("v1", base, q8);
  serve::LookupService ref(reference);

  // The reference snapshot's clip threshold is the shared grid; each
  // slice must quantize on it (its own rows would yield a different clip
  // and one-off code disagreements — the distributed analogue of the
  // paper's Appendix C.2 shared-threshold convention).
  serve::SnapshotConfig q8_shared = q8;
  q8_shared.clip_override = reference.snapshot("v1")->clip();
  Cluster cluster({{"v1", base}}, {0, 400, kVocab}, q8_shared);

  ClusterConfig cc;
  cc.map = cluster.map;
  ClusterClient client(cc);
  Rng rng(6);
  std::vector<std::size_t> ids(128);
  for (auto& id : ids) id = rng.index(kVocab);
  EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));
}

TEST(ClusterClient, PqBitIdenticalWithSharedCodebooks) {
  const embed::Embedding base = random_embedding(17, kVocab, kDim);
  serve::SnapshotConfig pq = plain_snap();
  pq.pq_m = 4;
  pq.pq_bits = 6;

  serve::EmbeddingStore reference;
  reference.add_version("v1", base, pq);
  serve::LookupService ref(reference);

  // The reference snapshot's codebooks are the shared grid; each slice
  // encodes its rows against them (training on its own rows would yield
  // different centroids and code disagreements — the PQ analogue of the
  // shared-clip convention above).
  serve::SnapshotConfig pq_shared = pq;
  pq_shared.pq_codebooks_override =
      reference.snapshot("v1")->pq_codebook_vectors();
  Cluster cluster({{"v1", base}}, {0, 400, kVocab}, pq_shared);

  ClusterConfig cc;
  cc.map = cluster.map;
  ClusterClient client(cc);
  Rng rng(18);
  std::vector<std::size_t> ids(128);
  for (auto& id : ids) id = rng.index(kVocab);
  EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));
  EXPECT_FALSE(client.last_degraded());

  // The daemons report what they actually serve.
  const ClusterStatsReport stats = client.stats();
  EXPECT_EQ(stats.aggregate.encoding, "pq:4x6");
  ASSERT_EQ(stats.shard_encodings.size(), 2u);
  for (const std::string& enc : stats.shard_encodings) {
    EXPECT_EQ(enc, "pq:4x6");
  }
}

// ---- TOPK scatter-gather ----------------------------------------------

/// Two backends over row slices encoding with artifacts trained ONCE on
/// the full matrix (the shared-codebook deployment contract), plus the
/// single-process reference index over the concatenated rows.
struct TopKCluster {
  std::vector<std::unique_ptr<Backend>> backends;
  ShardMap map;
  serve::EmbeddingStore reference;
  std::unique_ptr<ann::IvfPqIndex> ref_index;
  ann::IvfPqArtifacts shared;

  TopKCluster(const embed::Embedding& base,
              const std::vector<std::size_t>& splits) {
    ann::AnnConfig acfg;
    shared = ann::train_ivfpq(base, acfg);
    std::vector<ShardSpec> specs;
    for (std::size_t s = 0; s + 1 < splits.size(); ++s) {
      net::ServerConfig shard_cfg;
      shard_cfg.ann.artifacts = shared;
      backends.push_back(std::make_unique<Backend>(
          std::vector<std::pair<std::string, embed::Embedding>>{
              {"v1", slice(base, splits[s], splits[s + 1])}},
          plain_snap(), shard_cfg));
      specs.push_back(
          {"127.0.0.1", backends.back()->port(), splits[s], splits[s + 1]});
    }
    map = ShardMap(1, std::move(specs));
    const auto snap = reference.add_version("v1", base, plain_snap());
    ann::AnnConfig ref_cfg;
    ref_cfg.artifacts = shared;
    ref_index = std::make_unique<ann::IvfPqIndex>(snap, ref_cfg);
  }
};

void expect_topk_identical(const ann::TopKResult& got,
                           const ann::TopKResult& want, int tag) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << "query " << tag;
  for (std::size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(got.hits[i].id, want.hits[i].id) << "query " << tag
                                               << " rank " << i;
    EXPECT_EQ(got.hits[i].exact, want.hits[i].exact) << "query " << tag;
    EXPECT_EQ(got.hits[i].adc, want.hits[i].adc) << "query " << tag;
  }
}

TEST(Router, TopKMergeBitIdenticalToSingleProcessIndex) {
  const embed::Embedding base = random_embedding(31, kVocab, kDim);
  TopKCluster fx(base, {0, 450, kVocab});
  RouterConfig rc;
  rc.map = fx.map;
  rc.probe_interval_ms = 0;
  Router router(rc);
  router.start();
  net::Client client("127.0.0.1", router.port());

  Rng rng(9);
  for (int q = 0; q < 25; ++q) {
    std::vector<float> query(kDim);
    for (auto& x : query) x = static_cast<float>(rng.normal(0.0, 1.0));
    const ann::TopKResult got = client.topk_vector(query, 10);
    const ann::TopKResult want = fx.ref_index->search(query.data(), 10);
    expect_topk_identical(got, want, q);
    EXPECT_EQ(got.version, "v1") << "query " << q;
    EXPECT_EQ(got.flags, 0) << "query " << q;
    // cells_probed sums across shards: nprobe per shard, two shards.
    EXPECT_EQ(got.cells_probed, 2 * ann::kDefaultNprobe) << "query " << q;
  }

  // By-id and by-word queries resolve the row through the scatter-gather
  // lookup path first, then search — same merged answer for row 700
  // (shard 2) whether addressed by id or synthetic word.
  serve::LookupService ref_lookup(fx.reference);
  const serve::LookupResult row = ref_lookup.lookup_ids({700});
  const ann::TopKResult want =
      fx.ref_index->search(row.vectors.data(), 10);
  expect_topk_identical(client.topk_id(700, 10), want, 700);
  expect_topk_identical(client.topk_word("w700", 10), want, 701);

  // The router counted every merged search and none was partial.
  const obs::MetricsReport report = client.metrics();
  std::uint64_t total = 0, partial = 99;
  for (const obs::MetricValue& m : report.metrics) {
    if (m.name == "anchor_router_topk_total") total = m.counter;
    if (m.name == "anchor_router_topk_partial_total") partial = m.counter;
  }
  EXPECT_EQ(total, 27u);
  EXPECT_EQ(partial, 0u);
  router.stop();
}

TEST(Router, TopKDegradedShardYieldsPartialMergedResult) {
  const embed::Embedding base = random_embedding(37, kVocab, kDim);
  TopKCluster fx(base, {0, 450, kVocab});
  RouterConfig rc;
  rc.map = fx.map;
  rc.probe_interval_ms = 0;
  rc.backend_io_timeout_ms = 500;
  Router router(rc);
  router.start();
  net::Client client("127.0.0.1", router.port());

  std::vector<float> query(kDim);
  Rng rng(4);
  for (auto& x : query) x = static_cast<float>(rng.normal(0.0, 1.0));
  EXPECT_EQ(client.topk_vector(query, 10).flags, 0);

  // Kill shard 2: merged searches must keep answering from shard 1,
  // flagged partial, every hit id inside the surviving row range.
  fx.backends[1]->server->stop();
  ann::TopKResult partial;
  for (int attempt = 0; attempt < 3; ++attempt) {
    partial = client.topk_vector(query, 10);
    if (partial.flags & ann::kTopKFlagPartial) break;
  }
  EXPECT_TRUE(partial.flags & ann::kTopKFlagPartial);
  ASSERT_FALSE(partial.hits.empty());
  for (const ann::TopKHit& h : partial.hits) {
    EXPECT_LT(h.id, 450u) << "hit from the dead shard's row range";
  }
  // And the partial answer is exactly the surviving shard's contribution:
  // bit-identical to a single-process index over rows [0, 450) built with
  // the same shared artifacts (shard 1's row_begin is 0, so global ids
  // equal local ids).
  serve::EmbeddingStore lo_store;
  ann::AnnConfig lo_cfg;
  lo_cfg.artifacts = fx.shared;
  const ann::IvfPqIndex lo_index(
      lo_store.add_version("v1", slice(base, 0, 450), plain_snap()), lo_cfg);
  expect_topk_identical(partial, lo_index.search(query.data(), 10), -1);

  const obs::MetricsReport report = client.metrics();
  for (const obs::MetricValue& m : report.metrics) {
    if (m.name == "anchor_router_topk_partial_total") {
      EXPECT_GE(m.counter, 1u);
    }
  }
  router.stop();
}

TEST(Router, WindowCountsLookupsNotTopKResolution) {
  // A TOPK by id or word resolves its query row through a cluster lookup
  // inside the router. That lookup is part of the TOPK, not a LOOKUP the
  // client sent, so the router's window, its lookup counter and its
  // lookup latency histogram must all count the k lookups alone.
  const embed::Embedding base = random_embedding(41, kVocab, kDim);
  TopKCluster fx(base, {0, 450, kVocab});
  RouterConfig rc;
  rc.map = fx.map;
  rc.probe_interval_ms = 0;
  Router router(rc);
  router.start();
  net::Client client("127.0.0.1", router.port());

  constexpr std::uint64_t kLookups = 3;
  client.lookup_ids({1, 2, 500});
  client.lookup_ids({7});
  client.lookup_words({"w3", "w600"});
  client.topk_id(700, 10);
  client.topk_id(12, 10);
  client.topk_word("w450", 10);

  EXPECT_EQ(router.windowed().snapshot().requests_in(60'000'000), kLookups);
  const obs::MetricsReport report = client.metrics();
  std::uint64_t lookups = 0, latency_count = 0, topk = 0;
  for (const obs::MetricValue& m : report.metrics) {
    if (m.name == "anchor_router_lookups_total") lookups = m.counter;
    if (m.name == "anchor_router_lookup_latency_us") {
      latency_count = m.hist.count;
    }
    if (m.name == "anchor_router_topk_total") topk = m.counter;
  }
  EXPECT_EQ(lookups, kLookups);
  EXPECT_EQ(latency_count, kLookups);
  EXPECT_EQ(topk, 3u);
  router.stop();
}

// ---- failure modes -----------------------------------------------------

TEST(ClusterClient, BackendKillYieldsDegradedPartialResultThenRecovery) {
  const embed::Embedding base = random_embedding(17, kVocab, kDim);
  Cluster cluster({{"v1", base}}, {0, 450, kVocab}, plain_snap());

  serve::EmbeddingStore reference;
  reference.add_version("v1", base, plain_snap());
  serve::LookupService ref(reference);

  ClusterConfig cc;
  cc.map = cluster.map;
  cc.io_timeout_ms = 500;
  auto health = std::make_shared<ClusterHealth>(cc.map.num_shards());
  ClusterClient client(cc, health);

  const std::vector<std::size_t> ids = {0, 10, 449, 450, 500, kVocab - 1};
  ASSERT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));

  // Kill shard 2 mid-stream (its port closes; in-flight streams reset).
  const std::uint16_t dead_port = cluster.backends[1]->port();
  cluster.backends[1]->server->stop();

  const serve::LookupResult partial = client.lookup_ids(ids);
  EXPECT_TRUE(client.last_degraded());
  EXPECT_EQ(client.last_shard_ok()[0], 1);
  EXPECT_EQ(client.last_shard_ok()[1], 0);
  ASSERT_EQ(partial.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 450) {
      EXPECT_EQ(partial.oov[i], 0) << "live shard row " << i;
      EXPECT_EQ(std::memcmp(partial.row(i), ref.lookup_ids({ids[i]}).row(0),
                            kDim * sizeof(float)),
                0);
    } else {
      EXPECT_EQ(partial.oov[i], serve::kLookupFlagDegraded);
      for (std::size_t d = 0; d < partial.dim; ++d) {
        EXPECT_EQ(partial.row(i)[d], 0.0f);
      }
    }
  }
  // The failure marked the shard down: the next lookup degrades without
  // paying connect/timeout again.
  EXPECT_FALSE(health->healthy(1));
  EXPECT_TRUE(client.last_degraded());

  // Recovery: a new backend process takes over the same port; once a
  // probe (here: by hand, as the router's probe loop would) marks the
  // shard back up, full results resume.
  net::ServerConfig on_same_port;
  on_same_port.port = dead_port;
  Backend revived({{"v1", slice(base, 450, kVocab)}}, plain_snap(),
                  on_same_port);
  EXPECT_EQ(ClusterClient::probe("127.0.0.1", dead_port, 500),
            ClusterClient::ProbeResult::kUp);
  health->mark(1, true);
  EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));
  EXPECT_FALSE(client.last_degraded());
}

TEST(Router, ProbeThatFailsLocallyLeavesBackendHealthAlone) {
  // The router process runs out of descriptors while its backend is fine:
  // every probe's socket() fails with EMFILE, which is no verdict on the
  // backend, so the probe loop must not mark it down.
  Cluster cluster({{"v1", random_embedding(43, kVocab, kDim)}}, {0, kVocab},
                  plain_snap());
  RouterConfig rc;
  rc.map = cluster.map;
  rc.probe_interval_ms = 20;
  Router router(rc);
  router.start();
  ASSERT_TRUE(router.health().healthy(0));

  const int base = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(base, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(base + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(base)) >= 0;) fillers.push_back(fd);
  const int dup_errno = errno;
  // Many probe sweeps run while no descriptor is free.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const bool healthy_while_exhausted = router.health().healthy(0);
  for (const int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ::close(base);

  EXPECT_EQ(dup_errno, EMFILE);
  EXPECT_TRUE(healthy_while_exhausted);
  // Descriptors are back: the data plane serves through the router.
  net::Client client("127.0.0.1", router.port());
  EXPECT_FALSE(client.lookup_ids({1, 2, 3}).vectors.empty());
  EXPECT_TRUE(router.health().healthy(0));
  router.stop();
}

/// Like Cluster, but every shard slice is served by `replicas` identical
/// backends — the replica-group fixture for failover/hedging tests.
struct ReplicatedCluster {
  std::vector<std::vector<std::unique_ptr<Backend>>> backends;  // [shard][rep]
  ShardMap map;

  ReplicatedCluster(const embed::Embedding& base,
                    const std::vector<std::size_t>& splits,
                    std::size_t replicas,
                    const net::ServerConfig& replica0_config = {}) {
    std::vector<ShardSpec> specs;
    for (std::size_t s = 0; s + 1 < splits.size(); ++s) {
      std::vector<std::pair<std::string, embed::Embedding>> sliced = {
          {"v1", slice(base, splits[s], splits[s + 1])}};
      backends.emplace_back();
      std::vector<Endpoint> eps;
      for (std::size_t r = 0; r < replicas; ++r) {
        backends.back().push_back(std::make_unique<Backend>(
            sliced, plain_snap(),
            r == 0 ? replica0_config : net::ServerConfig{}));
        eps.push_back({"127.0.0.1", backends.back().back()->port()});
      }
      specs.emplace_back(std::move(eps), splits[s], splits[s + 1]);
    }
    map = ShardMap(1, std::move(specs));
  }
};

TEST(ClusterClient, FailoverToLiveReplicaKeepsLookupsExact) {
  const embed::Embedding base = random_embedding(23, kVocab, kDim);
  ReplicatedCluster cluster(base, {0, 450, kVocab}, /*replicas=*/2);

  serve::EmbeddingStore reference;
  reference.add_version("v1", base, plain_snap());
  serve::LookupService ref(reference);

  ClusterConfig cc;
  cc.map = cluster.map;
  cc.io_timeout_ms = 500;
  auto health = std::make_shared<ClusterHealth>(cc.map);
  auto counters = std::make_shared<ClusterCounters>();
  ClusterClient client(cc, health, nullptr, counters);

  const std::vector<std::size_t> ids = {0, 10, 449, 450, 500, kVocab - 1};
  ASSERT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));

  // Kill shard 0's replica 0 (a fresh client selects it first: the
  // round-robin rotation starts at 0 with equal loads). The next lookup
  // must fail over to replica 1 — full result, zero degraded rows.
  cluster.backends[0][0]->server->stop();
  const serve::LookupResult after = client.lookup_ids(ids);
  EXPECT_TRUE(identical(after, ref.lookup_ids(ids)));
  EXPECT_FALSE(client.last_degraded());
  EXPECT_GE(counters->failovers.load(), 1u);
  // The dead replica is marked down; the shard itself stays alive.
  EXPECT_FALSE(health->healthy(0, 0));
  EXPECT_TRUE(health->shard_alive(0));
  EXPECT_EQ(health->alive(), 2u);
  EXPECT_EQ(health->replicas_alive(), 3u);

  // Repeat lookups route straight to the survivor (no re-paying the
  // dead replica's connect failure).
  EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));
  EXPECT_FALSE(client.last_degraded());

  // Degraded fires ONLY when the whole replica set is down: kill shard
  // 0's replica 1 too, and only shard 0's rows degrade.
  cluster.backends[0][1]->server->stop();
  const serve::LookupResult partial = client.lookup_ids(ids);
  EXPECT_TRUE(client.last_degraded());
  ASSERT_EQ(partial.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 450) {
      EXPECT_EQ(partial.oov[i], serve::kLookupFlagDegraded) << i;
    } else {
      EXPECT_EQ(partial.oov[i], 0) << i;
      EXPECT_EQ(std::memcmp(partial.row(i), ref.lookup_ids({ids[i]}).row(0),
                            kDim * sizeof(float)),
                0);
    }
  }
  EXPECT_FALSE(health->shard_alive(0));
  EXPECT_EQ(health->alive(), 1u);
}

TEST(ClusterClient, HedgedReadBeatsADelayInjectedStraggler) {
  const embed::Embedding base = random_embedding(29, 300, kDim);
  // Replica 0 of the single shard delays EVERY data-plane reply by 300 ms
  // (fault injection); replica 1 is clean. The hedge delay (default
  // 20 ms ≪ 300 ms) must kick in and the clean replica's reply must win.
  net::ServerConfig slow;
  slow.fault_inject = true;
  slow.faults = net::FaultConfig::parse("delay=1.0:300");
  ReplicatedCluster cluster(base, {0, 300}, /*replicas=*/2, slow);

  serve::EmbeddingStore reference;
  reference.add_version("v1", base, plain_snap());
  serve::LookupService ref(reference);

  ClusterConfig cc;
  cc.map = cluster.map;
  cc.io_timeout_ms = 2000;
  cc.hedge = true;
  auto health = std::make_shared<ClusterHealth>(cc.map);
  auto hedge = std::make_shared<HedgePolicy>(cc.map.num_shards());
  auto counters = std::make_shared<ClusterCounters>();
  ClusterClient client(cc, health, hedge, counters);

  const std::vector<std::size_t> ids = {0, 7, 150, 299};
  const auto t0 = std::chrono::steady_clock::now();
  const serve::LookupResult got = client.lookup_ids(ids);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(identical(got, ref.lookup_ids(ids)));
  EXPECT_FALSE(client.last_degraded());
  // A fresh client selects replica 0 (the straggler) first, so this
  // lookup must have hedged — and the hedge must have won.
  EXPECT_EQ(counters->hedges.load(), 1u);
  EXPECT_EQ(counters->hedge_wins.load(), 1u);
  // The winning path never waited out the 300 ms injected delay.
  EXPECT_LT(elapsed_ms, 280);

  // Keep looking up: results stay exact while the straggler's owed
  // (late) replies are drained off its connection between lookups, and
  // nobody is ever marked down — slow is not dead.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));
    EXPECT_FALSE(client.last_degraded());
  }
  EXPECT_TRUE(health->healthy(0, 0));
  EXPECT_TRUE(health->healthy(0, 1));
  // Every hedge raced a 300 ms straggler against a local replica: wins
  // track hedges (the clean replica answered first each time).
  EXPECT_EQ(counters->hedge_wins.load(), counters->hedges.load());
  EXPECT_GE(counters->hedges.load(), 1u);
}

TEST(ClusterClientPool, SharesHealthHedgeAndCountersAcrossBorrowers) {
  const embed::Embedding base = random_embedding(31, 300, kDim);
  ReplicatedCluster cluster(base, {0, 300}, /*replicas=*/2);

  ClusterConfig cc;
  cc.map = cluster.map;
  auto health = std::make_shared<ClusterHealth>(cc.map);
  auto hedge = std::make_shared<HedgePolicy>(cc.map.num_shards());
  auto counters = std::make_shared<ClusterCounters>();
  ClusterClientPool pool(3, cc, health, hedge, counters);
  EXPECT_EQ(pool.size(), 3u);

  // Concurrent borrowers: more threads than slots, every lookup runs on
  // SOME slot and every RTT lands in the SHARED per-shard histogram.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        const auto r = pool.with_client([&](ClusterClient& c) {
          return c.lookup_ids({1, 100, 299});
        });
        if (r.size() != 3) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // 60 lookups, one RTT record each, all merged into shard 0's histogram
  // — the "merged p99" the hedge delay derives from.
  EXPECT_EQ(hedge->samples(0), 60u);
}

TEST(Sockets, BindingAnOccupiedPortFailsFastWithAClearError) {
  // The anchor_served/--port fail-fast contract rests on this: binding a
  // port that is already LISTENing throws immediately (no hang).
  net::TcpListener taken = net::TcpListener::bind_loopback(0);
  try {
    net::TcpListener::bind_loopback(taken.port());
    FAIL() << "second bind on an occupied port must throw";
  } catch (const net::NetError& e) {
    EXPECT_NE(std::string(e.what()).find("bind"), std::string::npos);
  }
}

// ---- router ------------------------------------------------------------

struct RouterFixture {
  std::optional<Cluster> cluster;
  std::optional<Router> router;
  embed::Embedding base = random_embedding(21, kVocab, kDim);

  explicit RouterFixture(std::filesystem::path audit = {}) {
    cluster.emplace(
        std::vector<std::pair<std::string, embed::Embedding>>{{"v1", base}},
        std::vector<std::size_t>{0, 300, kVocab}, plain_snap());
    RouterConfig rc;
    rc.map = cluster->map;
    rc.probe_interval_ms = 0;  // tests drive health by hand
    rc.backend_io_timeout_ms = 1000;
    rc.rollout_poll_ms = 10;
    rc.audit_log = std::move(audit);
    router.emplace(rc);
    router->start();
  }
};

TEST(Router, DataPlaneMatchesSingleProcessAndServesControlPlane) {
  RouterFixture fx;
  serve::EmbeddingStore reference;
  reference.add_version("v1", fx.base, plain_snap());
  serve::LookupService ref(reference);

  net::Client client("127.0.0.1", fx.router->port());
  client.ping();
  EXPECT_TRUE(ShardMap::parse(client.shard_map()) == fx.cluster->map);

  Rng rng(3);
  std::vector<std::size_t> ids(64);
  for (auto& id : ids) id = rng.index(kVocab + 8);
  EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));
  EXPECT_TRUE(identical(client.lookup_words({"w1", "w299", "w300", "nope"}),
                        ref.lookup_words({"w1", "w299", "w300", "nope"})));

  // Aggregated stats cover both shards' services.
  const net::ServerStatsReport stats = client.stats();
  EXPECT_EQ(stats.live_version, "v1");
  EXPECT_GT(stats.service.lookups, 0u);

  // Single-shard promotes are refused with a pointer at ROLLOUT_START.
  EXPECT_THROW(client.try_promote("v1"), net::RpcError);
  EXPECT_THROW(client.canary_status(), net::RpcError);

  // Idle rollout status.
  const net::RolloutStatusReport idle = client.rollout_status();
  EXPECT_EQ(idle.state, net::RolloutState::kIdle);
  EXPECT_EQ(idle.shards.size(), fx.cluster->map.num_shards());
}

TEST(Router, AggregatedStatsMergeHistogramsNotMaxPercentiles) {
  RouterFixture fx;
  net::Client client("127.0.0.1", fx.router->port());

  // Drive traffic that lands on both shards.
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    std::vector<std::size_t> ids(8);
    for (auto& id : ids) id = rng.index(kVocab);
    client.lookup_ids(ids);
  }

  // Ask each backend directly for its histogram, then merge client-side —
  // the reference for what the router's kStats aggregation must produce.
  obs::HistogramSnapshot service_merged, batcher_merged;
  std::uint64_t service_lookups = 0;
  for (const auto& backend : fx.cluster->backends) {
    net::Client direct("127.0.0.1", backend->port());
    const net::ServerStatsReport s = direct.stats();
    service_merged.merge(s.service.latency);
    batcher_merged.merge(s.batcher.latency);
    service_lookups += s.service.lookups;
  }

  // No lookups ran between the two stats passes, so the router's merged
  // aggregate must be bit-identical to the client-side merge.
  const net::ServerStatsReport agg = client.stats();
  EXPECT_EQ(agg.service.lookups, service_lookups);
  EXPECT_EQ(agg.service.latency.count, service_merged.count);
  EXPECT_EQ(agg.service.latency.counts, service_merged.counts);
  EXPECT_EQ(agg.batcher.latency.counts, batcher_merged.counts);

  // The exported scalar percentiles are quantiles OF THE MERGED buckets
  // (the 2-shard fleet view a single process would have reported, to
  // within the documented 1/32 bucket error) — not a max over shards.
  EXPECT_EQ(agg.service.p50_latency_us, service_merged.quantile(0.5));
  EXPECT_EQ(agg.service.p99_latency_us, service_merged.quantile(0.99));
  EXPECT_EQ(agg.batcher.p50_latency_us, batcher_merged.quantile(0.5));
  EXPECT_EQ(agg.batcher.p99_latency_us, batcher_merged.quantile(0.99));
  EXPECT_GT(agg.service.latency.count, 0u);
}

TEST(Router, HeatMergeBitIdenticalToClientSideBackendMerge) {
  RouterFixture fx;
  net::Client client("127.0.0.1", fx.router->port());

  // Skewed traffic across both shards: id 7 (shard 0) dominates, id 450
  // (shard 1) is warm, plus a thin random tail.
  Rng rng(9);
  for (int i = 0; i < 30; ++i) client.lookup_id(7);
  for (int i = 0; i < 10; ++i) client.lookup_id(450);
  for (int i = 0; i < 12; ++i) client.lookup_id(rng.index(kVocab));

  // Backends record a request's window slot AFTER writing its reply
  // (error-by-default needs the send outcome), so the last lookup can be
  // observable at the client a beat before it lands in the ring — same
  // race the trace test polls away. Wait for all 52 to settle before
  // snapshotting, so both passes below see identical, quiescent state.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (std::uint64_t settled = 0; settled != 52;) {
    settled = 0;
    for (const auto& backend : fx.cluster->backends) {
      net::Client direct("127.0.0.1", backend->port());
      settled += direct.heat().windowed.requests_in(60'000'000);
    }
    if (settled == 52 || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Reference: each backend's HEAT reply lifted into global id space the
  // way ClusterClient documents it — shift the heat ranges and sketch
  // keys by the shard's row_begin — then merged in shard order.
  net::HeatReport reference;
  for (std::size_t b = 0; b < fx.cluster->backends.size(); ++b) {
    net::Client direct("127.0.0.1", fx.cluster->backends[b]->port());
    net::HeatReport shard = direct.heat();
    const std::uint64_t shift = fx.cluster->map.shard(b).row_begin;
    if (shift != 0) {
      shard.heat.shift_rows(shift);
      for (obs::HeavyHitter& e : shard.sketch.entries) e.key += shift;
    }
    reference.windowed.merge(shard.windowed);
    reference.sketch.merge(shard.sketch);
    reference.heat.merge(shard.heat);
  }

  // No data-plane traffic ran between the two passes (HEAT is control
  // plane and does not self-record), so the router's fleet merge must be
  // bit-identical to the client-side merge — the pinned merge contract.
  const net::HeatReport fleet = client.heat();
  ASSERT_EQ(fleet.windowed.slices.size(), reference.windowed.slices.size());
  EXPECT_EQ(fleet.windowed.slice_us, reference.windowed.slice_us);
  for (std::size_t i = 0; i < fleet.windowed.slices.size(); ++i) {
    EXPECT_EQ(fleet.windowed.slices[i].epoch,
              reference.windowed.slices[i].epoch);
    EXPECT_EQ(fleet.windowed.slices[i].requests,
              reference.windowed.slices[i].requests);
    EXPECT_EQ(fleet.windowed.slices[i].errors,
              reference.windowed.slices[i].errors);
    EXPECT_EQ(fleet.windowed.slices[i].latency.counts,
              reference.windowed.slices[i].latency.counts);
    EXPECT_EQ(fleet.windowed.slices[i].latency.sum_units,
              reference.windowed.slices[i].latency.sum_units);
  }
  EXPECT_EQ(fleet.sketch.total, reference.sketch.total);
  EXPECT_EQ(fleet.sketch.capacity, reference.sketch.capacity);
  ASSERT_EQ(fleet.sketch.entries.size(), reference.sketch.entries.size());
  for (std::size_t i = 0; i < fleet.sketch.entries.size(); ++i) {
    EXPECT_EQ(fleet.sketch.entries[i].key, reference.sketch.entries[i].key);
    EXPECT_EQ(fleet.sketch.entries[i].count,
              reference.sketch.entries[i].count);
    EXPECT_EQ(fleet.sketch.entries[i].error,
              reference.sketch.entries[i].error);
  }
  ASSERT_EQ(fleet.heat.ranges.size(), reference.heat.ranges.size());
  EXPECT_EQ(fleet.heat.total, reference.heat.total);
  for (std::size_t i = 0; i < fleet.heat.ranges.size(); ++i) {
    EXPECT_EQ(fleet.heat.ranges[i].row_begin,
              reference.heat.ranges[i].row_begin);
    EXPECT_EQ(fleet.heat.ranges[i].row_end,
              reference.heat.ranges[i].row_end);
    EXPECT_EQ(fleet.heat.ranges[i].buckets, reference.heat.ranges[i].buckets);
  }

  // Semantic spot checks on the fleet view: both shards' ranges appear
  // in GLOBAL id space, disjoint and contiguous, and the global hot key
  // is the one the traffic hammered.
  ASSERT_EQ(fleet.heat.ranges.size(), 2u);
  EXPECT_EQ(fleet.heat.ranges[0].row_begin, 0u);
  EXPECT_EQ(fleet.heat.ranges[0].row_end, 300u);
  EXPECT_EQ(fleet.heat.ranges[1].row_begin, 300u);
  EXPECT_EQ(fleet.heat.ranges[1].row_end, 900u);
  EXPECT_EQ(fleet.heat.total, 52u);
  const auto top = fleet.sketch.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_GE(top[0].count, 30u);
  // The windowed fleet view counts every backend-observed lookup once.
  EXPECT_EQ(fleet.windowed.requests_in(60'000'000), 52u);
}

TEST(Router, SampledTraceCoversClientRouterShardsAndBackends) {
  RouterFixture fx;
  obs::Tracer::instance().clear();
  net::Client client("127.0.0.1", fx.router->port());

  // One pinned, sampled trace on a lookup spanning both shards. Client,
  // router, and backends run in this one process, so the whole waterfall
  // lands in the shared Tracer ring.
  const obs::TraceContext pinned = obs::TraceContext::start();
  client.set_next_trace(pinned);
  client.lookup_ids({1, 2, 299, 300, 301, 899});

  // Router and backends record their spans after writing their replies,
  // so the client can observe the result a beat before the last spans
  // land in the ring — poll until the waterfall stops growing.
  std::vector<obs::SpanRecord> spans;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (std::size_t stable = 0; stable < 3;) {
    const std::size_t prev = spans.size();
    spans = obs::Tracer::instance().spans_for(pinned.trace_id);
    const bool has_recv =
        std::any_of(spans.begin(), spans.end(), [](const obs::SpanRecord& s) {
          return s.stage == obs::TraceStage::kRouterRecv;
        });
    stable = (has_recv && spans.size() == prev) ? stable + 1 : 0;
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::set<obs::TraceStage> distinct;
  std::set<std::uint32_t> shards_seen;
  for (const obs::SpanRecord& s : spans) {
    distinct.insert(s.stage);
    if (s.stage == obs::TraceStage::kShardRtt) shards_seen.insert(s.detail);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  // The acceptance bar: at least 4 distinct pipeline stages. In practice
  // the full path records client_send, router_recv, router_scatter,
  // shard_rtt, router_merge, backend_recv, batch_queue, batch_exec,
  // dequantize.
  EXPECT_GE(distinct.size(), 4u);
  EXPECT_TRUE(distinct.count(obs::TraceStage::kClientSend));
  EXPECT_TRUE(distinct.count(obs::TraceStage::kRouterRecv));
  EXPECT_TRUE(distinct.count(obs::TraceStage::kRouterScatter));
  EXPECT_TRUE(distinct.count(obs::TraceStage::kShardRtt));
  EXPECT_TRUE(distinct.count(obs::TraceStage::kRouterMerge));
  EXPECT_TRUE(distinct.count(obs::TraceStage::kBackendRecv));
  // Both involved shards contributed an RTT span.
  EXPECT_EQ(shards_seen, (std::set<std::uint32_t>{0, 1}));
  // spans_for sorts by start time; timestamps are monotone and every
  // stage starts no earlier than the request's client_send. (End times
  // are NOT nested: router/backend close their recv spans after writing
  // the reply, which races the client closing client_send.)
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().stage, obs::TraceStage::kClientSend);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }

  // Untraced requests stay untraced end to end: no new spans.
  const std::uint64_t before = obs::Tracer::instance().spans_recorded();
  client.lookup_ids({5, 400});
  EXPECT_EQ(obs::Tracer::instance().spans_recorded(), before);
}

TEST(Router, MetricsRpcExposesRouterCountersAndLatency) {
  RouterFixture fx;
  net::Client client("127.0.0.1", fx.router->port());
  client.lookup_ids({1, 2, 500});
  client.lookup_words({"w3"});

  const obs::MetricsReport report = client.metrics();
  const auto find = [&](const std::string& name) -> const obs::MetricValue* {
    for (const obs::MetricValue& m : report.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const obs::MetricValue* lookups = find("anchor_router_lookups_total");
  ASSERT_NE(lookups, nullptr);
  EXPECT_EQ(lookups->counter, 2u);
  const obs::MetricValue* degraded =
      find("anchor_router_degraded_lookups_total");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->counter, 0u);
  const obs::MetricValue* alive = find("anchor_router_shards_alive");
  ASSERT_NE(alive, nullptr);
  EXPECT_EQ(alive->gauge, 2.0);
  const obs::MetricValue* latency = find("anchor_router_lookup_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(latency->hist.count, 2u);
  const obs::MetricValue* rollout = find("anchor_router_rollout_state");
  ASSERT_NE(rollout, nullptr);
  EXPECT_EQ(rollout->gauge, 0.0);  // idle
  // The router's registry renders to Prometheus like the backend's.
  const std::string text = obs::to_prometheus(report);
  EXPECT_NE(text.find("anchor_router_lookups_total 2"), std::string::npos);
}

// ---- metric catalogue --------------------------------------------------

/// Expands one README code span into the series names it documents:
/// `{a,b}` lists alternatives, a brace group holding `=` is a label set
/// and is dropped, and the name ends at the first space.
void expand_catalogue_span(const std::string& span,
                           std::set<std::string>* out) {
  const std::size_t open = span.find('{');
  if (open == std::string::npos) {
    out->insert(span.substr(0, span.find(' ')));
    return;
  }
  const std::size_t close = span.find('}', open);
  ASSERT_NE(close, std::string::npos) << span;
  const std::string group = span.substr(open + 1, close - open - 1);
  const std::string head = span.substr(0, open);
  const std::string tail = span.substr(close + 1);
  if (group.find('=') != std::string::npos) {
    expand_catalogue_span(head + tail, out);
    return;
  }
  std::stringstream alternatives(group);
  for (std::string alt; std::getline(alternatives, alt, ',');) {
    expand_catalogue_span(head + alt + tail, out);
  }
}

/// Every series name README's "Metrics plane" and "Load & drift
/// telemetry" paragraphs document.
std::set<std::string> readme_metric_catalogue() {
  const std::filesystem::path readme =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "README.md";
  std::ifstream in(readme);
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const std::size_t begin = all.find("**Metrics plane**");
  const std::size_t end = all.find("All three surfaces travel the wire");
  std::set<std::string> names;
  if (begin == std::string::npos || end == std::string::npos) return names;
  const std::string section = all.substr(begin, end - begin);
  for (std::size_t pos = section.find('`'); pos != std::string::npos;) {
    const std::size_t close = section.find('`', pos + 1);
    if (close == std::string::npos) break;
    const std::string span = section.substr(pos + 1, close - pos - 1);
    if (span.rfind("anchor_", 0) == 0) expand_catalogue_span(span, &names);
    pos = section.find('`', close + 1);
  }
  return names;
}

void add_base_names(const obs::MetricsReport& report,
                    std::set<std::string>* out) {
  for (const obs::MetricValue& m : report.metrics) {
    out->insert(m.name.substr(0, m.name.find('{')));
  }
}

TEST(MetricCatalogue, EverySeriesADaemonRegistersIsInTheReadme) {
  // A default backend and router after one routed lookup and one TOPK,
  // so the series that appear with traffic (top keys, heat buckets) are
  // registered too.
  RouterFixture fx;
  net::Client client("127.0.0.1", fx.router->port());
  client.lookup_ids({1, 2, 500});
  net::Client("127.0.0.1", fx.cluster->backends[0]->port()).topk_id(3, 5);

  std::set<std::string> registered;
  add_base_names(fx.router->metrics_registry().snapshot(), &registered);
  add_base_names(
      fx.cluster->backends[0]->server->metrics_registry().snapshot(),
      &registered);
  const std::set<std::string> documented = readme_metric_catalogue();
  ASSERT_FALSE(documented.empty()) << "README catalogue not found";
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.count(name) != 0)
        << name << " is registered but missing from README's catalogue";
  }
}

TEST(Router, GatedRolloutPromotesShardByShard) {
  const std::filesystem::path audit =
      std::filesystem::temp_directory_path() / "cluster_rollout_audit.csv";
  std::filesystem::remove(audit);
  RouterFixture fx(audit);
  // Register a routine refresh on every backend after the fact.
  const embed::Embedding v2 = jitter(fx.base, 31, 0.01);
  fx.cluster->backends[0]->store.add_version("v2", slice(v2, 0, 300),
                                             plain_snap());
  fx.cluster->backends[1]->store.add_version("v2", slice(v2, 300, kVocab),
                                             plain_snap());

  net::Client client("127.0.0.1", fx.router->port());
  // Seed this connection's dim/version hint with the pre-rollout state:
  // the post-rollout all-OOV check below must see v2 via a fresh probe,
  // not this cached v1.
  EXPECT_EQ(client.lookup_ids({5}).version, "v1");
  net::RolloutStatusReport st = client.rollout_start("v2", /*mode=*/0);
  EXPECT_EQ(st.candidate, "v2");
  for (int i = 0; i < 500 && !st.terminal(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    st = client.rollout_status();
  }
  ASSERT_EQ(st.state, net::RolloutState::kCompleted) << st.reason;
  for (const auto& shard : st.shards) {
    EXPECT_EQ(shard.state, net::ShardRolloutState::kPromoted)
        << shard.detail;
  }
  // Both backends really flipped.
  EXPECT_EQ(fx.cluster->backends[0]->store.live_version(), "v2");
  EXPECT_EQ(fx.cluster->backends[1]->store.live_version(), "v2");
  EXPECT_EQ(client.lookup_ids({5}).version, "v2");
  // Even an all-OOV batch (no shard involved) reports the post-rollout
  // version — the shape probe re-asks a shard instead of trusting a
  // pre-rollout cached hint.
  EXPECT_EQ(client.lookup_ids({kVocab + 1}).version, "v2");

  // A second rollout while idle-after-terminal is allowed; while running
  // it is refused (cheap to verify via the error path on a no-op
  // candidate that the gate instantly re-admits).
  const auto audit_rows = serve::read_audit_csv(audit);
  EXPECT_GE(audit_rows.size(), 3u);  // 2 shard rows + terminal summary
  bool saw_shard1 = false, saw_shard2 = false;
  for (const auto& row : audit_rows) {
    saw_shard1 = saw_shard1 ||
                 row.reason.find("rollout shard 1/2") != std::string::npos;
    saw_shard2 = saw_shard2 ||
                 row.reason.find("rollout shard 2/2") != std::string::npos;
  }
  EXPECT_TRUE(saw_shard1);
  EXPECT_TRUE(saw_shard2);
  std::filesystem::remove(audit);
}

TEST(Router, FailingShardStopsRolloutAndRollsBackThePromotedPrefix) {
  RouterFixture fx;
  // Shard 1 gets a routine refresh, shard 2 a scrambled one: the gate
  // admits shard 1, rejects shard 2 — the rollout must then restore
  // shard 1's incumbent rather than leave a mixed-version cluster.
  const embed::Embedding v2_good = jitter(fx.base, 41, 0.01);
  const embed::Embedding v2_bad = random_embedding(999, kVocab, kDim);
  fx.cluster->backends[0]->store.add_version("v2", slice(v2_good, 0, 300),
                                             plain_snap());
  fx.cluster->backends[1]->store.add_version("v2", slice(v2_bad, 300, kVocab),
                                             plain_snap());

  net::Client client("127.0.0.1", fx.router->port());
  net::RolloutStatusReport st = client.rollout_start("v2", /*mode=*/0);
  for (int i = 0; i < 500 && !st.terminal(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    st = client.rollout_status();
  }
  ASSERT_EQ(st.state, net::RolloutState::kRolledBack) << st.reason;
  EXPECT_EQ(st.shards[0].state, net::ShardRolloutState::kRolledBack)
      << st.shards[0].detail;
  EXPECT_EQ(st.shards[1].state, net::ShardRolloutState::kFailed)
      << st.shards[1].detail;
  EXPECT_EQ(fx.cluster->backends[0]->store.live_version(), "v1");
  EXPECT_EQ(fx.cluster->backends[1]->store.live_version(), "v1");
  EXPECT_EQ(client.lookup_ids({5}).version, "v1");
}

TEST(Router, CanaryModeRolloutPromotesUnderLiveTraffic) {
  // Per-shard canaries need shadow samples, which need traffic flowing
  // through the router while the rollout walks the shards.
  std::vector<std::pair<std::string, embed::Embedding>> versions;
  const embed::Embedding base = random_embedding(51, kVocab, kDim);
  versions.push_back({"v1", base});
  versions.push_back({"v2", jitter(base, 52, 0.005)});

  std::vector<ShardSpec> specs;
  std::vector<std::unique_ptr<Backend>> backends;
  const std::vector<std::size_t> splits = {0, 300, kVocab};
  for (std::size_t s = 0; s + 1 < splits.size(); ++s) {
    std::vector<std::pair<std::string, embed::Embedding>> sliced;
    for (const auto& [name, source] : versions) {
      sliced.emplace_back(name, slice(source, splits[s], splits[s + 1]));
    }
    net::ServerConfig bc;
    bc.canary.min_shadows = 8;
    bc.canary.max_shadows = 4096;
    bc.canary.promote_agreement = 0.55;
    bc.canary.rollback_agreement = 0.05;
    bc.canary.max_displacement = 0.5;
    bc.gate.max_rows = 256;
    bc.gate.knn_queries = 32;
    backends.push_back(std::make_unique<Backend>(sliced, plain_snap(), bc));
    specs.push_back({"127.0.0.1", backends.back()->port(), splits[s],
                     splits[s + 1]});
  }
  RouterConfig rc;
  rc.map = ShardMap(1, std::move(specs));
  rc.probe_interval_ms = 0;
  rc.rollout_poll_ms = 10;
  Router router(rc);
  router.start();

  net::Client control("127.0.0.1", router.port());
  control.rollout_start("v2", /*mode=*/1, /*fraction=*/0.5,
                        /*shadow_rate=*/1.0);
  // Traffic pump: batched lookups spanning both shards until terminal.
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    net::Client traffic("127.0.0.1", router.port());
    Rng rng(77);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::size_t> ids(64);
      for (auto& id : ids) id = rng.index(kVocab);
      traffic.lookup_ids(ids);
    }
  });
  net::RolloutStatusReport st = control.rollout_status();
  for (int i = 0; i < 3000 && !st.terminal(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    st = control.rollout_status();
  }
  stop.store(true, std::memory_order_relaxed);
  pump.join();
  ASSERT_EQ(st.state, net::RolloutState::kCompleted) << st.reason;
  EXPECT_EQ(backends[0]->store.live_version(), "v2");
  EXPECT_EQ(backends[1]->store.live_version(), "v2");
  // Shard decisions happened in order: both promoted by their own canary.
  for (const auto& shard : st.shards) {
    EXPECT_EQ(shard.state, net::ShardRolloutState::kPromoted)
        << shard.detail;
  }
}

TEST(Router, HostileFramesNeverKillTheRouter) {
  RouterFixture fx;
  Rng rng(8181);
  for (int iter = 0; iter < 50; ++iter) {
    try {
      net::TcpStream raw =
          net::TcpStream::connect("127.0.0.1", fx.router->port());
      const int mode = static_cast<int>(rng.index(3));
      if (mode == 0) {
        std::vector<std::uint8_t> bytes(1 + rng.index(64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.index(256));
        raw.write_all(bytes.data(), bytes.size());
      } else if (mode == 1) {
        net::WireWriter payload;
        const std::size_t len = rng.index(48);
        for (std::size_t i = 0; i < len; ++i) {
          payload.u8(static_cast<std::uint8_t>(rng.index(256)));
        }
        // All types incl. the rollout ones; never a legitimate shutdown.
        std::uint8_t type_byte =
            static_cast<std::uint8_t>(1 + rng.index(13));
        if (type_byte == static_cast<std::uint8_t>(net::MsgType::kShutdown)) {
          type_byte = 0x7E;
        }
        net::write_frame(raw, static_cast<net::MsgType>(type_byte), payload);
        net::MsgType reply_type{};
        std::vector<std::uint8_t> reply;
        try {
          (void)net::read_frame(raw, &reply_type, &reply);
        } catch (const net::NetError&) {
        } catch (const net::WireError&) {
        }
      } else {
        const std::uint32_t len =
            4 + static_cast<std::uint32_t>(16 + rng.index(1024));
        std::vector<std::uint8_t> partial;
        partial.insert(partial.end(),
                       reinterpret_cast<const std::uint8_t*>(&len),
                       reinterpret_cast<const std::uint8_t*>(&len) + 4);
        partial.push_back(net::kWireMagic);
        partial.push_back(net::kWireVersion);
        partial.push_back(static_cast<std::uint8_t>(net::MsgType::kPing));
        partial.push_back(static_cast<std::uint8_t>(rng.index(256)));
        partial.push_back(0x00);
        raw.write_all(partial.data(), partial.size());
      }
    } catch (const net::NetError&) {
      // Router hanging up mid-write is an allowed outcome.
    }
  }
  // Still healthy for well-formed clients — and the backends never saw
  // any of it (malformed frames die at the router).
  net::Client client("127.0.0.1", fx.router->port());
  client.ping();
  EXPECT_EQ(client.lookup_ids({3}).size(), 1u);
  EXPECT_FALSE(client.lookup_ids({3}).oov[0]);
}

TEST(Router, ReplicatedShardsFailOverAndExportAvailabilityCounters) {
  const embed::Embedding base = random_embedding(37, kVocab, kDim);
  ReplicatedCluster cluster(base, {0, 450, kVocab}, /*replicas=*/2);
  serve::EmbeddingStore reference;
  reference.add_version("v1", base, plain_snap());
  serve::LookupService ref(reference);

  RouterConfig rc;
  rc.map = cluster.map;
  rc.probe_interval_ms = 0;  // health driven by the data plane here
  rc.backend_io_timeout_ms = 1000;
  Router router(rc);
  router.start();

  net::Client client("127.0.0.1", router.port());
  const std::vector<std::size_t> ids = {0, 5, 449, 450, 899};
  EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)));

  // Kill one replica of shard 0: lookups through the router keep full
  // fidelity — failover, not degradation. Several lookups so multiple
  // pool slots (each with its own connections) hit the dead replica.
  const std::uint16_t dead_port = cluster.backends[0][0]->port();
  cluster.backends[0][0]->server->stop();
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(identical(client.lookup_ids(ids), ref.lookup_ids(ids)))
        << "lookup " << i << " after replica kill";
  }
  EXPECT_GE(router.counters().failovers.load(), 1u);
  EXPECT_TRUE(router.health().shard_alive(0));
  EXPECT_FALSE(router.health().healthy(0, 0));

  // The metrics plane shows the event: replicas_alive dropped to 3, the
  // per-replica gauge flipped to 0, failovers_total is nonzero — and
  // degraded_lookups_total stayed at ZERO.
  const obs::MetricsReport report = client.metrics();
  const auto find = [&](const std::string& name) -> const obs::MetricValue* {
    for (const obs::MetricValue& m : report.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const obs::MetricValue* alive = find("anchor_router_replicas_alive");
  ASSERT_NE(alive, nullptr);
  EXPECT_EQ(alive->gauge, 3.0);
  const obs::MetricValue* degraded =
      find("anchor_router_degraded_lookups_total");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->counter, 0u);
  const obs::MetricValue* failovers = find("anchor_router_failovers_total");
  ASSERT_NE(failovers, nullptr);
  EXPECT_GE(failovers->counter, 1u);
  const obs::MetricValue* rep_up =
      find("anchor_router_replica_up{shard=\"0\",replica=\"127.0.0.1:" +
           std::to_string(dead_port) + "\"}");
  ASSERT_NE(rep_up, nullptr);
  EXPECT_EQ(rep_up->gauge, 0.0);
  // The hedge-delay gauge renders per shard (default until min_samples).
  const obs::MetricValue* delay =
      find("anchor_router_hedge_delay_us{shard=\"0\"}");
  ASSERT_NE(delay, nullptr);
  EXPECT_GT(delay->gauge, 0.0);
}

TEST(Router, ShutdownRpcStopsTheRouterAndForwardsWhenConfigured) {
  const embed::Embedding base = random_embedding(61, kVocab, kDim);
  Cluster cluster({{"v1", base}}, {0, kVocab / 2, kVocab}, plain_snap());
  RouterConfig rc;
  rc.map = cluster.map;
  rc.probe_interval_ms = 0;
  rc.forward_shutdown = true;
  Router router(rc);
  router.start();
  {
    net::Client client("127.0.0.1", router.port());
    client.shutdown_server();
  }
  for (int i = 0; i < 200 && !router.shutdown_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(router.shutdown_requested());
  router.stop();
  // The forwarded shutdown reached both backends.
  for (const auto& backend : cluster.backends) {
    for (int i = 0; i < 200 && !backend->server->shutdown_requested(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(backend->server->shutdown_requested());
  }
}

}  // namespace
}  // namespace anchor::cluster
