// net/ subsystem: wire codecs, frame robustness, and an in-process
// client/server loopback exercising every RPC — real TCP sockets on
// 127.0.0.1, with the server's accept loop and batcher running on their
// own threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/log_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/demo_store.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::net {
namespace {

// ---- codecs ------------------------------------------------------------

TEST(Wire, PrimitiveRoundTripAndBoundsChecks) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f32(1.5f);
  w.f64(-2.25);
  w.str("hello");
  w.str("");

  WireReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  r.expect_done();

  WireReader truncated(w.buffer().data(), 3);
  truncated.u8();
  EXPECT_THROW(truncated.u32(), WireError);

  // A string length pointing past the payload must throw, not overread.
  WireWriter bad;
  bad.u32(1000);
  WireReader bad_reader(bad.buffer());
  EXPECT_THROW(bad_reader.str(), WireError);
}

TEST(Wire, LookupResultRoundTripsThroughSliceEncoding) {
  serve::LookupResult result;
  result.dim = 3;
  result.version = "v42";
  result.vectors = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  result.oov = {0, 1, 0};

  WireWriter w;
  encode_lookup_result(result, &w);
  WireReader r(w.buffer());
  const serve::LookupResult back = decode_lookup_result(&r);
  r.expect_done();
  EXPECT_EQ(back.version, "v42");
  EXPECT_EQ(back.dim, 3u);
  EXPECT_EQ(back.vectors, result.vectors);
  EXPECT_EQ(back.oov, result.oov);

  // Middle slice only.
  WireWriter ws;
  encode_lookup_result_slice(result, 1, 2, &ws);
  WireReader rs(ws.buffer());
  const serve::LookupResult mid = decode_lookup_result(&rs);
  EXPECT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid.vectors, (std::vector<float>{4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(mid.oov, (std::vector<std::uint8_t>{1, 0}));

  // A row count the payload cannot hold must throw BEFORE allocating —
  // including at dim == 0, where the n·dim guard alone would pass and
  // oov.resize(n) would ask for 4 GiB from a 13-byte frame.
  WireWriter hostile;
  hostile.str("");
  hostile.u32(0xFFFFFFFFu);  // n
  hostile.u32(0);            // dim
  WireReader hostile_reader(hostile.buffer());
  EXPECT_THROW(decode_lookup_result(&hostile_reader), WireError);
}

TEST(Wire, GateReportAndStatsRoundTrip) {
  serve::GateReport report;
  report.old_version = "a";
  report.new_version = "b";
  report.decision = serve::GateDecision::kWarn;
  report.promoted = true;
  report.eis = 0.125;
  report.one_minus_knn = 0.5;
  report.rows_compared = 2048;
  report.reason = "eis=0.125 (warn)";

  WireWriter w;
  encode_gate_report(report, &w);
  WireReader r(w.buffer());
  const serve::GateReport back = decode_gate_report(&r);
  r.expect_done();
  EXPECT_EQ(back.old_version, "a");
  EXPECT_EQ(back.new_version, "b");
  EXPECT_EQ(back.decision, serve::GateDecision::kWarn);
  EXPECT_TRUE(back.promoted);
  EXPECT_EQ(back.eis, 0.125);
  EXPECT_EQ(back.one_minus_knn, 0.5);
  EXPECT_EQ(back.rows_compared, 2048u);
  EXPECT_EQ(back.reason, "eis=0.125 (warn)");

  ServerStatsReport stats;
  stats.live_version = "live";
  stats.service.lookups = 7;
  stats.service.qps = 123.5;
  stats.batcher.batches = 3;
  stats.batcher.p99_latency_us = 42.0;
  stats.encoding = "pq:4x8";
  WireWriter sw;
  encode_server_stats(stats, &sw);
  WireReader sr(sw.buffer());
  const ServerStatsReport sback = decode_server_stats(&sr);
  sr.expect_done();
  EXPECT_EQ(sback.live_version, "live");
  EXPECT_EQ(sback.service.lookups, 7u);
  EXPECT_EQ(sback.service.qps, 123.5);
  EXPECT_EQ(sback.batcher.batches, 3u);
  EXPECT_EQ(sback.batcher.p99_latency_us, 42.0);
  EXPECT_EQ(sback.encoding, "pq:4x8");

  // A v3 peer's reply stops after the batcher snapshot; the trailing
  // encoding field must decode as absent (empty), not throw.
  WireWriter v3;
  v3.str(stats.live_version);
  encode_stats_snapshot(stats.service, &v3);
  encode_stats_snapshot(stats.batcher, &v3);
  WireReader v3r(v3.buffer());
  const ServerStatsReport old_peer = decode_server_stats(&v3r);
  v3r.expect_done();
  EXPECT_EQ(old_peer.live_version, "live");
  EXPECT_EQ(old_peer.batcher.batches, 3u);
  EXPECT_EQ(old_peer.encoding, "");

  // Corrupt decision codes must not cast into the enum silently.
  WireWriter cw;
  cw.str("a");
  cw.str("b");
  cw.u8(9);  // not a GateDecision
  WireReader cr(cw.buffer());
  EXPECT_THROW(decode_gate_report(&cr), WireError);
}

TEST(Wire, StatsSnapshotReservedSlotsAreZeroAndIgnoredOnRead) {
  // Slots 3 and 4 of a StatsSnapshot once carried hot-row cache hits and
  // misses. Writers now send 0 there; a frame from an older peer that
  // still sends counts must decode, with every other field intact.
  serve::StatsSnapshot s;
  s.lookups = 11;
  s.batches = 2;
  s.oov_fallbacks = 1;
  WireWriter w;
  encode_stats_snapshot(s, &w);
  WireReader raw(w.buffer());
  EXPECT_EQ(raw.u64(), 11u);
  EXPECT_EQ(raw.u64(), 2u);
  EXPECT_EQ(raw.u64(), 0u);  // reserved
  EXPECT_EQ(raw.u64(), 0u);  // reserved

  obs::LogHistogram latency;
  latency.record(40.0);
  WireWriter old;
  old.u64(9);    // lookups
  old.u64(3);    // batches
  old.u64(6);    // reserved: cache hits from an older peer
  old.u64(4);    // reserved: cache misses
  old.u64(1);    // oov_fallbacks
  old.f64(2.0);  // elapsed_seconds
  old.f64(4.5);  // qps
  old.f64(40.0);
  old.f64(41.0);
  encode_histogram(latency.snapshot(), &old);
  WireReader r(old.buffer());
  const serve::StatsSnapshot back = decode_stats_snapshot(&r);
  r.expect_done();
  EXPECT_EQ(back.lookups, 9u);
  EXPECT_EQ(back.batches, 3u);
  EXPECT_EQ(back.oov_fallbacks, 1u);
  EXPECT_EQ(back.elapsed_seconds, 2.0);
  EXPECT_EQ(back.qps, 4.5);
  EXPECT_EQ(back.p50_latency_us, 40.0);
  EXPECT_EQ(back.p99_latency_us, 41.0);
  EXPECT_EQ(back.latency.count, 1u);
}

TEST(Wire, CanaryStatusRoundTrip) {
  CanaryStatusReport status;
  status.state = serve::CanaryState::kRunning;
  status.incumbent = "v1";
  status.candidate = "v2";
  status.fraction = 0.25;
  status.shadow_rate = 0.5;
  status.offline.old_version = "v1";
  status.offline.new_version = "v2";
  status.offline.decision = serve::GateDecision::kWarn;
  status.offline.eis = 0.07;
  status.online.candidate_lookups = 100;
  status.online.shadows = 42;
  status.online.mean_agreement = 0.9;
  status.online.agreement_lower = 0.8;
  status.online.agreement_upper = 1.0;
  status.online.mean_displacement = 0.01;
  status.online.mean_latency_delta_us = 3.5;
  status.online.worst_keys = {{123, 0.75}, {7, 0.5}};
  status.reason = "still watching";

  WireWriter w;
  encode_canary_status(status, &w);
  WireReader r(w.buffer());
  const CanaryStatusReport back = decode_canary_status(&r);
  r.expect_done();
  EXPECT_EQ(back.state, serve::CanaryState::kRunning);
  EXPECT_EQ(back.incumbent, "v1");
  EXPECT_EQ(back.candidate, "v2");
  EXPECT_EQ(back.fraction, 0.25);
  EXPECT_EQ(back.shadow_rate, 0.5);
  EXPECT_EQ(back.offline.decision, serve::GateDecision::kWarn);
  EXPECT_EQ(back.offline.eis, 0.07);
  EXPECT_EQ(back.online.shadows, 42u);
  EXPECT_EQ(back.online.mean_agreement, 0.9);
  ASSERT_EQ(back.online.worst_keys.size(), 2u);
  EXPECT_EQ(back.online.worst_keys[0].key, 123u);
  EXPECT_EQ(back.online.worst_keys[0].displacement, 0.75);
  EXPECT_EQ(back.online.worst_keys[1].key, 7u);
  EXPECT_EQ(back.reason, "still watching");

  // An out-of-range state byte must throw, not cast silently.
  WireWriter bad;
  bad.u8(42);
  WireReader bad_reader(bad.buffer());
  EXPECT_THROW(decode_canary_status(&bad_reader), WireError);

  // A worst-key count the payload cannot hold must throw pre-allocation.
  WireWriter hostile;
  serve::CanaryStatsSnapshot empty;
  encode_canary_stats(empty, &hostile);
  std::vector<std::uint8_t> bytes = hostile.buffer();
  bytes[bytes.size() - 1] = 0xFF;  // worst-key count → huge
  bytes[bytes.size() - 2] = 0xFF;
  WireReader hostile_reader(bytes.data(), bytes.size());
  EXPECT_THROW(decode_canary_stats(&hostile_reader), WireError);
}

TEST(Wire, RolloutStatusRoundTrip) {
  RolloutStatusReport st;
  st.state = RolloutState::kRolledBack;
  st.candidate = "v9";
  st.mode = 1;
  st.map_version = 12;
  st.shards = {{ShardRolloutState::kRolledBack, "reverted to v1"},
               {ShardRolloutState::kFailed, "gate rejected"},
               {ShardRolloutState::kPending, ""}};
  st.reason = "shard 2/3 refused";

  WireWriter w;
  encode_rollout_status(st, &w);
  WireReader r(w.buffer());
  const RolloutStatusReport back = decode_rollout_status(&r);
  r.expect_done();
  EXPECT_EQ(back.state, RolloutState::kRolledBack);
  EXPECT_TRUE(back.terminal());
  EXPECT_EQ(back.candidate, "v9");
  EXPECT_EQ(back.mode, 1);
  EXPECT_EQ(back.map_version, 12u);
  ASSERT_EQ(back.shards.size(), 3u);
  EXPECT_EQ(back.shards[0].state, ShardRolloutState::kRolledBack);
  EXPECT_EQ(back.shards[0].detail, "reverted to v1");
  EXPECT_EQ(back.shards[1].state, ShardRolloutState::kFailed);
  EXPECT_EQ(back.shards[2].state, ShardRolloutState::kPending);
  EXPECT_EQ(back.reason, "shard 2/3 refused");

  // Bad state bytes throw; so does a shard count beyond the payload.
  WireWriter bad;
  bad.u8(99);
  WireReader bad_reader(bad.buffer());
  EXPECT_THROW(decode_rollout_status(&bad_reader), WireError);
}

TEST(Wire, HistogramCodecRoundTripsSparsely) {
  obs::LogHistogram h;
  h.record(3.0);
  h.record(100.0);
  h.record_n(250.5, 7);
  const obs::HistogramSnapshot s = h.snapshot();

  WireWriter w;
  encode_histogram(s, &w);
  // Sparse on the wire: 3 occupied buckets, nowhere near the dense
  // kNumBuckets × 8 bytes.
  EXPECT_LT(w.buffer().size(), 100u);
  WireReader r(w.buffer());
  const obs::HistogramSnapshot back = decode_histogram(&r);
  r.expect_done();
  EXPECT_EQ(back.count, s.count);
  EXPECT_EQ(back.sum_units, s.sum_units);
  EXPECT_EQ(back.min_units, s.min_units);
  EXPECT_EQ(back.max_units, s.max_units);
  EXPECT_EQ(back.counts, s.counts);
  EXPECT_EQ(back.quantile(0.99), s.quantile(0.99));

  // Empty histograms cost 36 bytes and decode back to empty.
  WireWriter we;
  encode_histogram(obs::HistogramSnapshot{}, &we);
  WireReader re(we.buffer());
  EXPECT_EQ(decode_histogram(&re).count, 0u);

  // Hostile: a nonzero-bucket count the payload cannot hold must throw
  // before allocating.
  WireWriter hostile;
  for (int i = 0; i < 4; ++i) hostile.u64(1);
  hostile.u32(0xFFFFFFFFu);
  WireReader hostile_reader(hostile.buffer());
  EXPECT_THROW(decode_histogram(&hostile_reader), WireError);

  // Hostile: a bucket index past kNumBuckets must throw, not scribble.
  WireWriter oob;
  for (int i = 0; i < 4; ++i) oob.u64(1);
  oob.u32(1);
  oob.u16(60000);
  oob.u64(1);
  WireReader oob_reader(oob.buffer());
  EXPECT_THROW(decode_histogram(&oob_reader), WireError);
}

TEST(Wire, MetricsReportRoundTrip) {
  obs::MetricsReport m;
  obs::MetricValue c;
  c.kind = obs::MetricKind::kCounter;
  c.name = "x_requests_total";
  c.help = "requests";
  c.counter = 42;
  obs::MetricValue g;
  g.kind = obs::MetricKind::kGauge;
  g.name = "x_depth";
  g.gauge = 2.5;
  obs::MetricValue hist;
  hist.kind = obs::MetricKind::kHistogram;
  hist.name = "x_latency_us";
  obs::LogHistogram lh;
  lh.record(5.0);
  lh.record(80.0);
  hist.hist = lh.snapshot();
  m.metrics = {c, g, hist};

  WireWriter w;
  encode_metrics_report(m, &w);
  WireReader r(w.buffer());
  const obs::MetricsReport back = decode_metrics_report(&r);
  r.expect_done();
  ASSERT_EQ(back.metrics.size(), 3u);
  EXPECT_EQ(back.metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(back.metrics[0].name, "x_requests_total");
  EXPECT_EQ(back.metrics[0].help, "requests");
  EXPECT_EQ(back.metrics[0].counter, 42u);
  EXPECT_EQ(back.metrics[1].kind, obs::MetricKind::kGauge);
  EXPECT_EQ(back.metrics[1].gauge, 2.5);
  EXPECT_EQ(back.metrics[2].kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(back.metrics[2].hist.count, 2u);
  EXPECT_EQ(back.metrics[2].hist.counts, hist.hist.counts);

  // A bad metric kind byte throws.
  WireWriter bad;
  bad.u32(1);
  bad.u8(9);  // no such kind
  WireReader bad_reader(bad.buffer());
  EXPECT_THROW(decode_metrics_report(&bad_reader), WireError);
}

TEST(Wire, TopKRequestAndResultRoundTrip) {
  for (const std::uint8_t kind :
       {kTopKKindId, kTopKKindWord, kTopKKindVector}) {
    TopKRequest req;
    req.k = 7;
    req.nprobe = 12;
    req.rerank = 96;
    req.mode = kTopKModeCandidates;
    req.kind = kind;
    req.id = 123456789ull;
    req.word = "w42";
    req.vector = {1.5f, -2.25f, 0.0f};
    WireWriter w;
    encode_topk_request(req, &w);
    WireReader r(w.buffer());
    const TopKRequest back = decode_topk_request(&r);
    r.expect_done();
    EXPECT_EQ(back.k, req.k);
    EXPECT_EQ(back.nprobe, req.nprobe);
    EXPECT_EQ(back.rerank, req.rerank);
    EXPECT_EQ(back.mode, req.mode);
    EXPECT_EQ(back.kind, kind);
    if (kind == kTopKKindId) EXPECT_EQ(back.id, req.id);
    if (kind == kTopKKindWord) EXPECT_EQ(back.word, req.word);
    if (kind == kTopKKindVector) EXPECT_EQ(back.vector, req.vector);
  }

  ann::TopKResult result;
  result.version = "v7";
  result.cells_probed = 16;
  result.shortlist = 64;
  result.flags = ann::kTopKFlagPartial;
  result.hits = {{11, 0.5f, 0.625f}, {900, 1.75f, 1.5f}};
  WireWriter w;
  encode_topk_result(result, &w);
  WireReader r(w.buffer());
  const ann::TopKResult back = decode_topk_result(&r);
  r.expect_done();
  EXPECT_EQ(back.version, "v7");
  EXPECT_EQ(back.cells_probed, 16u);
  EXPECT_EQ(back.shortlist, 64u);
  EXPECT_EQ(back.flags, ann::kTopKFlagPartial);
  ASSERT_EQ(back.hits.size(), 2u);
  EXPECT_EQ(back.hits[0].id, 11u);
  EXPECT_EQ(back.hits[0].exact, 0.5f);
  EXPECT_EQ(back.hits[0].adc, 0.625f);
  EXPECT_EQ(back.hits[1].id, 900u);

  // Guarded decodes: a bad mode/kind byte and an overrun hit count throw
  // instead of allocating or reading past the payload.
  {
    TopKRequest bad;
    bad.mode = 9;
    WireWriter bw;
    encode_topk_request(bad, &bw);
    WireReader br(bw.buffer());
    EXPECT_THROW(decode_topk_request(&br), WireError);
  }
  {
    // The encoder refuses an unknown kind outright; hand-craft the bytes
    // to prove the decoder guards too.
    TopKRequest bad;
    EXPECT_THROW(
        {
          WireWriter bw;
          bad.kind = 7;
          encode_topk_request(bad, &bw);
        },
        WireError);
    WireWriter bw;
    bw.u32(10);
    bw.u32(0);
    bw.u32(0);
    bw.u8(kTopKModeFinal);
    bw.u8(7);  // no such kind
    WireReader br(bw.buffer());
    EXPECT_THROW(decode_topk_request(&br), WireError);
  }
  {
    WireWriter bw;
    bw.str("v");
    bw.u32(1);
    bw.u32(1);
    bw.u8(0);
    bw.u32(1000000);  // claims a million hits, carries none
    WireReader br(bw.buffer());
    EXPECT_THROW(decode_topk_result(&br), WireError);
  }
}

TEST(Wire, HeatReportRoundTripsBitIdentically) {
  obs::WindowedConfig wcfg;
  wcfg.slice_us = 1'000'000;
  obs::WindowedStats stats(wcfg);
  constexpr std::uint64_t kNow = 1'700'000'000'000'000ull;
  stats.record_many_at(kNow - 2'000'000, 120.0, 9, 1);
  stats.record_many_at(kNow, 80.0, 4, 0);
  obs::SpaceSavingSketch::Config scfg;
  scfg.capacity = 8;
  scfg.stripes = 1;
  obs::RangeHeatMap::Config hcfg;
  hcfg.row_end = 100;
  hcfg.buckets = 4;
  obs::KeyLoadRecorder load(scfg, hcfg);
  for (int i = 0; i < 50; ++i) load.record(7);
  load.record(93, 3);

  HeatReport report;
  report.windowed = stats.snapshot_at(kNow);
  report.sketch = load.sketch.snapshot();
  report.heat = load.heat.snapshot();

  WireWriter w;
  encode_heat_report(report, &w);
  WireReader r(w.buffer());
  const HeatReport back = decode_heat_report(&r);
  r.expect_done();
  ASSERT_EQ(back.windowed.slices.size(), 2u);
  EXPECT_EQ(back.windowed.slice_us, report.windowed.slice_us);
  EXPECT_EQ(back.windowed.now_us, kNow);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.windowed.slices[i].epoch, report.windowed.slices[i].epoch);
    EXPECT_EQ(back.windowed.slices[i].requests,
              report.windowed.slices[i].requests);
    EXPECT_EQ(back.windowed.slices[i].errors,
              report.windowed.slices[i].errors);
    EXPECT_EQ(back.windowed.slices[i].latency.counts,
              report.windowed.slices[i].latency.counts);
  }
  EXPECT_EQ(back.sketch.capacity, 8u);
  EXPECT_EQ(back.sketch.total, 53u);
  ASSERT_EQ(back.sketch.entries.size(), report.sketch.entries.size());
  EXPECT_EQ(back.sketch.entries[0].key, 7u);
  EXPECT_EQ(back.sketch.entries[0].count, 50u);
  ASSERT_EQ(back.heat.ranges.size(), 1u);
  EXPECT_EQ(back.heat.total, 53u);
  EXPECT_EQ(back.heat.ranges[0].buckets, report.heat.ranges[0].buckets);
}

TEST(Wire, HeatCodecsRejectHostileFrames) {
  // Windowed: slice count the payload cannot hold.
  {
    WireWriter w;
    w.u64(1'000'000);  // slice_us
    w.u64(0);          // now_us
    w.u32(0xFFFFFFFFu);
    WireReader r(w.buffer());
    EXPECT_THROW(decode_windowed_snapshot(&r), WireError);
  }
  // Windowed: nonzero slices with a zero slice width are nonsense.
  {
    WireWriter w;
    w.u64(0);
    w.u64(0);
    w.u32(1);
    WireReader r(w.buffer());
    EXPECT_THROW(decode_windowed_snapshot(&r), WireError);
  }
  // Windowed: duplicate epochs would double-count in a merge.
  {
    WireWriter w;
    w.u64(1'000'000);
    w.u64(5'000'000);
    w.u32(2);
    for (int i = 0; i < 2; ++i) {
      w.u64(3);  // same epoch twice
      w.u64(1);
      w.u64(0);
      encode_histogram(obs::HistogramSnapshot{}, &w);
    }
    WireReader r(w.buffer());
    EXPECT_THROW(decode_windowed_snapshot(&r), WireError);
  }
  // Sketch: entry count exceeding the payload must throw pre-allocation.
  {
    WireWriter w;
    w.u64(8);
    w.u64(100);
    w.u32(0xFFFFFFFFu);
    WireReader r(w.buffer());
    EXPECT_THROW(decode_sketch_snapshot(&r), WireError);
  }
  // Heat: inverted range bounds.
  {
    WireWriter w;
    w.u64(1);   // total
    w.u64(0);   // elapsed
    w.u32(1);   // one range
    w.u64(50);  // row_begin
    w.u64(10);  // row_end < row_begin
    w.u32(0);
    WireReader r(w.buffer());
    EXPECT_THROW(decode_heat_map(&r), WireError);
  }
  // Heat: bucket count exceeding the payload.
  {
    WireWriter w;
    w.u64(1);
    w.u64(0);
    w.u32(1);
    w.u64(0);
    w.u64(10);
    w.u32(0xFFFFFFFFu);
    WireReader r(w.buffer());
    EXPECT_THROW(decode_heat_map(&r), WireError);
  }
  // Truncations of a valid frame never crash: throw or (rarely) decode a
  // shorter valid prefix — same contract as the other codec fuzz tests.
  WireWriter valid;
  obs::WindowedConfig wcfg;
  obs::WindowedStats stats(wcfg);
  stats.record(10.0, false);
  HeatReport report;
  report.windowed = stats.snapshot();
  encode_heat_report(report, &valid);
  for (std::size_t cut = 0; cut < valid.buffer().size(); ++cut) {
    std::vector<std::uint8_t> trunc(valid.buffer().begin(),
                                    valid.buffer().begin() + cut);
    WireReader r(trunc);
    try {
      decode_heat_report(&r);
    } catch (const WireError&) {
    }
  }
}

TEST(Wire, TraceExtensionRoundTripsOverLoopback) {
  TcpListener listener = TcpListener::bind_loopback(0);
  TcpStream sender = TcpStream::connect("127.0.0.1", listener.port());
  TcpStream receiver = listener.accept(2000);
  ASSERT_TRUE(receiver.valid());

  const obs::TraceContext ctx = obs::TraceContext::start();
  WireWriter body;
  body.u32(7);
  write_frame(sender, MsgType::kPing, body, ctx);

  MsgType type{};
  std::vector<std::uint8_t> payload;
  obs::TraceContext got;
  ASSERT_TRUE(read_frame(receiver, &type, &payload, &got));
  EXPECT_EQ(type, MsgType::kPing);
  EXPECT_EQ(got.trace_id, ctx.trace_id);
  EXPECT_EQ(got.span_id, ctx.span_id);
  EXPECT_EQ(got.flags, ctx.flags);
  WireReader r(payload);
  EXPECT_EQ(r.u32(), 7u);
  r.expect_done();

  // An untraced frame resets the out-context (no stale trace leaks into
  // the next request on the connection).
  write_frame(sender, MsgType::kPing, body);
  ASSERT_TRUE(read_frame(receiver, &type, &payload, &got));
  EXPECT_FALSE(got.valid());

  // Reading WITHOUT a trace out-param skips the extension and still
  // yields the payload (old call sites stay correct).
  write_frame(sender, MsgType::kPing, body, ctx);
  ASSERT_TRUE(read_frame(receiver, &type, &payload));
  WireReader r2(payload);
  EXPECT_EQ(r2.u32(), 7u);

  // Forward compatibility: a frame whose ext_len exceeds the 17 trace
  // bytes (a future extension) — the trace decodes, the extra bytes are
  // skipped, the payload follows intact.
  {
    const std::uint8_t ext_len = 20;
    const std::uint32_t len = 4u + ext_len + 1u;
    std::vector<std::uint8_t> frame;
    frame.insert(frame.end(), reinterpret_cast<const std::uint8_t*>(&len),
                 reinterpret_cast<const std::uint8_t*>(&len) + 4);
    frame.push_back(kWireMagic);
    frame.push_back(kWireVersion);
    frame.push_back(static_cast<std::uint8_t>(MsgType::kPing));
    frame.push_back(ext_len);
    std::uint64_t tid = 0x1122334455667788ull;
    std::uint64_t sid = 0x99AABBCCDDEEFF00ull;
    frame.insert(frame.end(), reinterpret_cast<const std::uint8_t*>(&tid),
                 reinterpret_cast<const std::uint8_t*>(&tid) + 8);
    frame.insert(frame.end(), reinterpret_cast<const std::uint8_t*>(&sid),
                 reinterpret_cast<const std::uint8_t*>(&sid) + 8);
    frame.push_back(obs::TraceContext::kSampled);
    frame.push_back(0xDE);  // 3 future-extension bytes
    frame.push_back(0xAD);
    frame.push_back(0xBF);
    frame.push_back(0x5A);  // 1 payload byte
    sender.write_all(frame.data(), frame.size());

    ASSERT_TRUE(read_frame(receiver, &type, &payload, &got));
    EXPECT_EQ(got.trace_id, tid);
    EXPECT_EQ(got.span_id, sid);
    EXPECT_TRUE(got.sampled());
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(payload[0], 0x5A);
  }

  // Hostile: ext_len larger than the declared frame throws WireError on
  // the reader side.
  {
    const std::uint32_t len = 4u + 1u;
    std::vector<std::uint8_t> frame;
    frame.insert(frame.end(), reinterpret_cast<const std::uint8_t*>(&len),
                 reinterpret_cast<const std::uint8_t*>(&len) + 4);
    frame.push_back(kWireMagic);
    frame.push_back(kWireVersion);
    frame.push_back(static_cast<std::uint8_t>(MsgType::kPing));
    frame.push_back(200);  // ext_len > len - 4
    frame.push_back(0x00);
    sender.write_all(frame.data(), frame.size());
    EXPECT_THROW(read_frame(receiver, &type, &payload, &got), WireError);
  }
}

// ---- decoder fuzz ------------------------------------------------------
//
// The decoders face attacker-controlled bytes; under fuzzed input every
// outcome must be "decoded cleanly" or "threw WireError" — never a crash,
// an overread (ASan job), or a length-driven huge allocation.

template <typename Decoder>
void fuzz_decoder(const Decoder& decode, std::uint64_t seed) {
  Rng rng(seed);
  for (int iter = 0; iter < 800; ++iter) {
    const std::size_t len = rng.index(96);
    std::vector<std::uint8_t> payload(len);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.index(256));
    }
    // Bias some bytes toward small values so length-prefixed fields
    // occasionally parse a few levels deep instead of throwing at the
    // first u32.
    if (len >= 4 && rng.bernoulli(0.5)) {
      payload[1] = payload[2] = payload[3] = 0;
    }
    try {
      WireReader reader(payload);
      (void)decode(&reader);
    } catch (const WireError&) {
      // expected for malformed input
    }
  }
}

TEST(WireFuzz, RandomPayloadsNeverCrashTheDecoders) {
  fuzz_decoder([](WireReader* r) { return decode_lookup_result(r); }, 91);
  fuzz_decoder([](WireReader* r) { return decode_gate_report(r); }, 92);
  fuzz_decoder([](WireReader* r) { return decode_server_stats(r); }, 93);
  fuzz_decoder([](WireReader* r) { return decode_canary_status(r); }, 94);
  fuzz_decoder([](WireReader* r) { return decode_rollout_status(r); }, 95);
  fuzz_decoder([](WireReader* r) { return decode_topk_request(r); }, 96);
  fuzz_decoder([](WireReader* r) { return decode_topk_result(r); }, 97);
}

TEST(WireFuzz, TruncatedAndBitFlippedLookupResultsDecodeOrThrowCleanly) {
  serve::LookupResult result;
  result.dim = 6;
  result.version = "v-fuzz";
  for (int i = 0; i < 5 * 6; ++i) {
    result.vectors.push_back(static_cast<float>(i) * 0.5f);
  }
  result.oov = {0, 1, 0, 0, 1};
  WireWriter w;
  encode_lookup_result(result, &w);
  const std::vector<std::uint8_t>& valid = w.buffer();

  // Every truncation prefix: decode must throw WireError or succeed on
  // a consistent prefix — never read past the buffer.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    try {
      WireReader reader(valid.data(), cut);
      (void)decode_lookup_result(&reader);
    } catch (const WireError&) {
    }
  }

  // Random single-bit flips over the whole payload.
  Rng rng(95);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> flipped = valid;
    const std::size_t byte = rng.index(flipped.size());
    flipped[byte] ^= static_cast<std::uint8_t>(1u << rng.index(8));
    try {
      WireReader reader(flipped);
      const serve::LookupResult back = decode_lookup_result(&reader);
      // When it does decode, the sizes must be internally consistent
      // (the guarded resize path).
      EXPECT_EQ(back.vectors.size(), back.size() * back.dim);
    } catch (const WireError&) {
    }
  }
}

// ---- loopback RPC ------------------------------------------------------

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::DemoStoreConfig demo;
    demo.vocab = 600;
    demo.dim = 32;
    serve::add_demo_versions(store_, demo);
    server_ = std::make_unique<Server>(store_, ServerConfig{});
    server_->start();
  }

  void TearDown() override { server_->stop(); }

  serve::EmbeddingStore store_;
  std::unique_ptr<Server> server_;
};

TEST_F(RpcTest, LookupsMatchInProcessService) {
  Client client("127.0.0.1", server_->port());
  client.ping();

  const serve::LookupService direct(store_);
  const std::vector<std::size_t> ids = {0, 3, 599, 600, 17};
  const serve::LookupResult remote = client.lookup_ids(ids);
  const serve::LookupResult local = direct.lookup_ids(ids);
  ASSERT_EQ(remote.size(), local.size());
  EXPECT_EQ(remote.version, local.version);
  EXPECT_EQ(remote.dim, local.dim);
  EXPECT_EQ(remote.oov, local.oov);
  EXPECT_EQ(remote.vectors, local.vectors);

  const std::vector<std::string> words = {"w5", "never-seen-word"};
  const serve::LookupResult remote_words = client.lookup_words(words);
  const serve::LookupResult local_words = direct.lookup_words(words);
  EXPECT_EQ(remote_words.oov, local_words.oov);
  EXPECT_EQ(remote_words.vectors, local_words.vectors);

  const serve::LookupResult empty = client.lookup_ids({});
  EXPECT_EQ(empty.size(), 0u);
}

TEST_F(RpcTest, ConcurrentClientsCoalesceAndAgree) {
  constexpr int kClients = 4;
  constexpr int kLookups = 50;
  const serve::LookupService direct(store_);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client("127.0.0.1", server_->port());
      Rng rng(7 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kLookups; ++i) {
        const std::size_t id = rng.index(600);
        const serve::LookupResult remote = client.lookup_id(id);
        const serve::LookupResult local = direct.lookup_ids({id});
        if (remote.vectors != local.vectors) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // All traffic flowed through the server's batcher.
  EXPECT_EQ(server_->async().stats().snapshot().lookups,
            static_cast<std::uint64_t>(kClients * kLookups));
}

TEST_F(RpcTest, TryPromoteGatesOverRpc) {
  Client client("127.0.0.1", server_->port());
  EXPECT_EQ(client.stats().live_version, "v1");

  const serve::GateReport bad = client.try_promote("v3-bad");
  EXPECT_EQ(bad.decision, serve::GateDecision::kReject);
  EXPECT_FALSE(bad.promoted);
  EXPECT_EQ(client.stats().live_version, "v1");

  const serve::GateReport good = client.try_promote("v2-good");
  EXPECT_TRUE(good.promoted);
  EXPECT_EQ(client.stats().live_version, "v2-good");
  // Lookups follow the swap.
  EXPECT_EQ(client.lookup_id(0).version, "v2-good");

  EXPECT_THROW(client.try_promote("no-such-version"), RpcError);
  // The connection survives an error reply.
  client.ping();
}

TEST_F(RpcTest, StatsReflectServedTraffic) {
  Client client("127.0.0.1", server_->port());
  client.lookup_ids({1, 2, 3});
  client.lookup_id(4);
  const ServerStatsReport stats = client.stats();
  EXPECT_EQ(stats.live_version, "v1");
  EXPECT_EQ(stats.encoding, "fp32");  // the daemon reports real row storage
  EXPECT_EQ(stats.batcher.lookups, 4u);
  EXPECT_GE(stats.service.lookups, 4u);
  EXPECT_GT(stats.batcher.batches, 0u);
  // The stats snapshot now carries the full latency histogram (one
  // sample per batch), and the scalar percentiles agree with it.
  EXPECT_EQ(stats.batcher.latency.count, stats.batcher.batches);
  EXPECT_EQ(stats.batcher.p50_latency_us,
            stats.batcher.latency.quantile(0.5));
}

TEST_F(RpcTest, HeatRpcReportsWindowedLoadTopKeysAndHeat) {
  Client client("127.0.0.1", server_->port());
  // Skewed traffic: id 7 dominates, everything else is a thin tail.
  for (int i = 0; i < 40; ++i) client.lookup_id(7);
  client.lookup_ids({1, 2, 3, 7, 7});

  const HeatReport report = client.heat();
  // Windowed: every data-plane RPC recorded exactly once (41 lookups);
  // the HEAT RPC itself is control-plane and does not self-record.
  EXPECT_EQ(report.windowed.requests_in(60'000'000), 41u);
  EXPECT_EQ(report.windowed.errors_in(60'000'000), 0u);
  EXPECT_EQ(report.windowed.latency_in(60'000'000).count, 41u);
  EXPECT_GT(report.windowed.qps(60'000'000), 0.0);

  // Sketch: id 7 is the top key with an exact count (no evictions at
  // this scale), and the totals agree with the keys resolved (45).
  EXPECT_EQ(report.sketch.total, 45u);
  const auto top = report.sketch.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_EQ(top[0].count, 42u);

  // Heat map: covers the demo vocab, same total, and the bucket holding
  // id 7 carries the bulk of it.
  ASSERT_EQ(report.heat.ranges.size(), 1u);
  EXPECT_EQ(report.heat.ranges[0].row_begin, 0u);
  EXPECT_EQ(report.heat.ranges[0].row_end, 600u);
  EXPECT_EQ(report.heat.total, 45u);
  EXPECT_EQ(report.heat.range_total(7), 45u);

  // A second snapshot only grows — the recorders are cumulative.
  client.lookup_id(9);
  const HeatReport later = client.heat();
  EXPECT_EQ(later.sketch.total, 46u);
  EXPECT_EQ(later.windowed.requests_in(60'000'000), 42u);
}

TEST_F(RpcTest, MetricsRpcExposesTheServerRegistry) {
  Client client("127.0.0.1", server_->port());
  client.lookup_ids({1, 2, 3});
  const obs::MetricsReport report = client.metrics();
  ASSERT_FALSE(report.metrics.empty());
  const auto find = [&](const std::string& name) -> const obs::MetricValue* {
    for (const obs::MetricValue& m : report.metrics) {
      if (m.name.rfind(name, 0) == 0) return &m;
    }
    return nullptr;
  };
  const obs::MetricValue* lookups = find("anchor_lookup_requests_total");
  ASSERT_NE(lookups, nullptr);
  EXPECT_EQ(lookups->counter, 3u);
  const obs::MetricValue* version = find("anchor_live_version_info");
  ASSERT_NE(version, nullptr);
  EXPECT_NE(version->name.find("version=\"v1\""), std::string::npos);
  const obs::MetricValue* latency = find("anchor_service_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, obs::MetricKind::kHistogram);
  EXPECT_GE(latency->hist.count, 1u);
  // The same report renders to Prometheus text without falling over.
  const std::string text = obs::to_prometheus(report);
  EXPECT_NE(text.find("anchor_lookup_requests_total 3"), std::string::npos);
}

TEST_F(RpcTest, TopKOverLoopbackMatchesInProcessIndex) {
  Client client("127.0.0.1", server_->port());

  // In-process oracle: the same snapshot and the same default AnnConfig
  // build bit-identically to the server's lazily-built index.
  const ann::IvfPqIndex oracle(store_.live(), ServerConfig{}.ann);
  const serve::LookupService direct(store_);
  const serve::LookupResult row = direct.lookup_ids({5});
  ASSERT_EQ(row.oov[0], 0);
  const ann::TopKResult want = oracle.search(row.vectors.data(), 10);

  const ann::TopKResult by_id = client.topk_id(5, 10);
  ASSERT_EQ(by_id.hits.size(), want.hits.size());
  EXPECT_EQ(by_id.version, store_.live_version());
  for (std::size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(by_id.hits[i].id, want.hits[i].id) << "rank " << i;
    EXPECT_EQ(by_id.hits[i].exact, want.hits[i].exact);
    EXPECT_EQ(by_id.hits[i].adc, want.hits[i].adc);
  }
  // The demo store maps word "w5" to row 5: same query, same answer.
  const ann::TopKResult by_word = client.topk_word("w5", 10);
  ASSERT_EQ(by_word.hits.size(), want.hits.size());
  EXPECT_EQ(by_word.hits[0].id, want.hits[0].id);

  // Raw-vector kind, and candidates mode through the raw request form.
  const std::vector<float> query(row.vectors.begin(), row.vectors.end());
  const ann::TopKResult by_vec = client.topk_vector(query, 10);
  EXPECT_EQ(by_vec.hits[0].id, want.hits[0].id);
  TopKRequest creq;
  creq.kind = kTopKKindVector;
  creq.mode = kTopKModeCandidates;
  creq.vector = query;
  creq.nprobe = 4;
  creq.rerank = 32;
  const ann::TopKResult cands = client.topk(creq);
  EXPECT_EQ(cands.shortlist, cands.hits.size());
  ASSERT_FALSE(cands.hits.empty());
  for (std::size_t i = 1; i < cands.hits.size(); ++i) {
    EXPECT_LE(cands.hits[i - 1].adc, cands.hits[i].adc);  // (adc, id) order
  }

  // A wrong-dimension raw vector answers an error frame, not a hangup.
  EXPECT_THROW(client.topk_vector({1.0f, 2.0f}, 5), RpcError);
  client.ping();  // connection still usable

  // Observability: the request counter counted the four successful
  // searches and the TOPK histograms recorded them.
  const obs::MetricsReport report = client.metrics();
  const auto find = [&](const std::string& name) -> const obs::MetricValue* {
    for (const obs::MetricValue& m : report.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const obs::MetricValue* total = find("anchor_topk_requests_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->counter, 4u);
  const obs::MetricValue* cells = find("anchor_topk_cells_probed");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(cells->hist.count, 4u);
}

TEST_F(RpcTest, SampledTopKRecordsTheTopkTraceStage) {
  obs::Tracer::instance().clear();
  Client client("127.0.0.1", server_->port());
  const obs::TraceContext pinned = obs::TraceContext::start();
  client.set_next_trace(pinned);
  client.topk_id(3, 5);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool has_topk = false;
  while (!has_topk && std::chrono::steady_clock::now() < deadline) {
    const auto spans = obs::Tracer::instance().spans_for(pinned.trace_id);
    has_topk =
        std::any_of(spans.begin(), spans.end(), [](const obs::SpanRecord& s) {
          return s.stage == obs::TraceStage::kTopkSearch;
        });
    if (!has_topk) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(has_topk) << "no topk span recorded for the pinned trace";
  EXPECT_EQ(obs::trace_stage_name(obs::TraceStage::kTopkSearch),
            std::string("topk"));
}

TEST_F(RpcTest, SampledLookupTracesEveryBackendStage) {
  obs::Tracer::instance().clear();
  Client client("127.0.0.1", server_->port());
  const obs::TraceContext pinned = obs::TraceContext::start();
  client.set_next_trace(pinned);
  client.lookup_ids({1, 2, 3});
  EXPECT_EQ(client.last_trace().trace_id, pinned.trace_id);

  // Client and server share one in-process Tracer, so the whole span
  // waterfall is visible here: client_send wraps backend_recv wraps the
  // batcher stages. The server closes backend_recv after writing the
  // reply, which races the client past this point — poll until the
  // waterfall stops growing.
  std::vector<obs::SpanRecord> spans;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (std::size_t stable = 0; stable < 3;) {
    const std::size_t prev = spans.size();
    spans = obs::Tracer::instance().spans_for(pinned.trace_id);
    const bool has_recv =
        std::any_of(spans.begin(), spans.end(), [](const obs::SpanRecord& s) {
          return s.stage == obs::TraceStage::kBackendRecv;
        });
    stable = (has_recv && spans.size() == prev) ? stable + 1 : 0;
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<obs::TraceStage> stages;
  for (const obs::SpanRecord& s : spans) stages.push_back(s.stage);
  const auto has = [&](obs::TraceStage st) {
    return std::find(stages.begin(), stages.end(), st) != stages.end();
  };
  EXPECT_TRUE(has(obs::TraceStage::kClientSend));
  EXPECT_TRUE(has(obs::TraceStage::kBackendRecv));
  EXPECT_TRUE(has(obs::TraceStage::kBatchQueue));
  EXPECT_TRUE(has(obs::TraceStage::kBatchExec));
  EXPECT_TRUE(has(obs::TraceStage::kDequantize));
  // Monotone and well-formed: sorted by start, every span closed.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LE(spans[i].start_ns, spans[i].end_ns);
    if (i > 0) EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }

  // The next request is untraced again (set_next_trace is one-shot).
  client.lookup_ids({4});
  EXPECT_FALSE(client.last_trace().valid());

  // An unsampled server sees unsampled requests: no new spans.
  const std::uint64_t before = obs::Tracer::instance().spans_recorded();
  client.lookup_ids({5, 6});
  EXPECT_EQ(obs::Tracer::instance().spans_recorded(), before);
}

TEST_F(RpcTest, MalformedFramesCloseTheConnection) {
  // Bad magic byte: the server must drop the connection without replying.
  {
    TcpStream raw = TcpStream::connect("127.0.0.1", server_->port());
    const std::uint32_t len = 4;
    std::uint8_t frame[8];
    std::memcpy(frame, &len, 4);
    frame[4] = 0x00;  // wrong magic
    frame[5] = kWireVersion;
    frame[6] = static_cast<std::uint8_t>(MsgType::kPing);
    frame[7] = 0;  // ext_len
    raw.write_all(frame, sizeof(frame));
    std::uint8_t byte;
    EXPECT_FALSE(raw.read_exact_or_eof(&byte, 1));  // clean EOF
  }
  // Oversized declared length: same treatment, before any allocation.
  {
    TcpStream raw = TcpStream::connect("127.0.0.1", server_->port());
    const std::uint32_t len = kMaxFrameBytes + 1;
    raw.write_all(&len, sizeof(len));
    std::uint8_t byte;
    EXPECT_FALSE(raw.read_exact_or_eof(&byte, 1));
  }
  // The server is still healthy for well-formed clients.
  Client client("127.0.0.1", server_->port());
  client.ping();
}

TEST_F(RpcTest, UnknownRequestTypeAnswersError) {
  TcpStream raw = TcpStream::connect("127.0.0.1", server_->port());
  WireWriter empty;
  write_frame(raw, static_cast<MsgType>(0x55), empty);
  MsgType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(raw, &type, &payload));
  EXPECT_EQ(type, MsgType::kError);
}

TEST_F(RpcTest, FuzzedFramesNeverKillTheServer) {
  // Seeded garbage thrown at a LIVE server: raw byte soup, well-framed
  // random payloads under every request type, truncated and bit-flipped
  // frames. Per connection the server may answer (reply or error frame)
  // or hang up — but it must survive all of it and keep serving
  // well-formed clients (and the whole test runs under ASan in CI).
  Rng rng(4242);
  for (int iter = 0; iter < 60; ++iter) {
    try {
      TcpStream raw = TcpStream::connect("127.0.0.1", server_->port());
      const int mode = static_cast<int>(rng.index(3));
      if (mode == 0) {
        // Raw byte soup — usually an invalid frame header.
        std::vector<std::uint8_t> bytes(1 + rng.index(64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.index(256));
        raw.write_all(bytes.data(), bytes.size());
      } else if (mode == 1) {
        // Valid framing, random payload, random (mostly valid) type.
        WireWriter payload;
        const std::size_t len = rng.index(48);
        for (std::size_t i = 0; i < len; ++i) {
          payload.u8(static_cast<std::uint8_t>(rng.index(256)));
        }
        // Never draw kShutdown: an empty-payload draw would be a
        // LEGITIMATE shutdown request and kill the server mid-fuzz.
        // (Covers the router-only types 0x0A–0x0D too: a plain backend
        // answers them with an error frame like any unknown type.)
        std::uint8_t type_byte =
            static_cast<std::uint8_t>(1 + rng.index(13));
        if (type_byte == static_cast<std::uint8_t>(MsgType::kShutdown)) {
          type_byte = 0x7E;  // unused type → error frame
        }
        write_frame(raw, static_cast<MsgType>(type_byte), payload);
        MsgType reply_type{};
        std::vector<std::uint8_t> reply;
        try {
          (void)read_frame(raw, &reply_type, &reply);
        } catch (const NetError&) {
          // server hung up on us — acceptable for malformed payloads
        } catch (const WireError&) {
        }
      } else {
        // Declared length bigger than what we send, then hang up:
        // mid-frame EOF on the server side.
        const std::uint32_t len = 4 + static_cast<std::uint32_t>(
                                          16 + rng.index(1024));
        std::vector<std::uint8_t> partial;
        partial.insert(partial.end(),
                       reinterpret_cast<const std::uint8_t*>(&len),
                       reinterpret_cast<const std::uint8_t*>(&len) + 4);
        partial.push_back(kWireMagic);
        partial.push_back(kWireVersion);
        partial.push_back(static_cast<std::uint8_t>(MsgType::kPing));
        // Random ext_len byte: sometimes valid, sometimes exceeding the
        // declared frame — both must be survivable.
        partial.push_back(static_cast<std::uint8_t>(rng.index(256)));
        partial.push_back(0x00);  // 1 of the remaining bytes, then EOF
        raw.write_all(partial.data(), partial.size());
      }
    } catch (const NetError&) {
      // Connection refused/reset mid-write is fine — the server closing
      // early is one of the allowed outcomes.
    }
  }
  // The server took 60 hostile connections and still serves.
  Client client("127.0.0.1", server_->port());
  client.ping();
  EXPECT_EQ(client.lookup_id(3).size(), 1u);
}

TEST_F(RpcTest, ForcedPromoteBypassesTheGateAndIsAudited) {
  Client client("127.0.0.1", server_->port());
  // The gate rejects v3-bad outright...
  const serve::GateReport gated = client.try_promote("v3-bad");
  EXPECT_EQ(gated.decision, serve::GateDecision::kReject);
  EXPECT_FALSE(gated.promoted);
  // ...but a forced promote (the cluster rollback path) flips it anyway,
  // with an honest reason instead of fabricated measures.
  const serve::GateReport forced = client.try_promote("v3-bad", true);
  EXPECT_TRUE(forced.promoted);
  EXPECT_EQ(forced.old_version, "v1");
  EXPECT_NE(forced.reason.find("forced promote"), std::string::npos);
  EXPECT_EQ(client.lookup_id(0).version, "v3-bad");
  // Unknown versions still error; force is not a creation operator.
  EXPECT_THROW(client.try_promote("no-such-version", true), RpcError);
  // Restore v1 for any later test using this fixture instance.
  EXPECT_TRUE(client.try_promote("v1", true).promoted);
}

TEST_F(RpcTest, CanaryLifecycleOverRpc) {
  Client client("127.0.0.1", server_->port());
  EXPECT_EQ(client.canary_status().state, serve::CanaryState::kNone);

  // The strict default gate bounces the botched candidate offline —
  // phase 2 never starts and no traffic is ever routed to it.
  const CanaryStatusReport rejected = client.canary_start("v3-bad");
  EXPECT_EQ(rejected.state, serve::CanaryState::kOfflineRejected);
  EXPECT_EQ(rejected.offline.decision, serve::GateDecision::kReject);
  EXPECT_EQ(client.stats().live_version, "v1");
  EXPECT_EQ(client.canary_status().state,
            serve::CanaryState::kOfflineRejected);

  // Unknown candidates error without disturbing anything.
  EXPECT_THROW(client.canary_start("no-such-version"), RpcError);

  // The routine refresh starts phase 2; a second start is refused while
  // it runs.
  const CanaryStatusReport started =
      client.canary_start("v2-good", 0.5, 0.5);
  ASSERT_EQ(started.state, serve::CanaryState::kRunning);
  EXPECT_EQ(started.fraction, 0.5);
  EXPECT_EQ(started.shadow_rate, 0.5);
  EXPECT_NE(started.offline.decision, serve::GateDecision::kReject);
  EXPECT_EQ(client.stats().live_version, "v1");  // not flipped yet
  EXPECT_THROW(client.canary_start("v2-good"), RpcError);

  // Drive traffic; the server auto-promotes once the agreement bound
  // clears (min_shadows = 64 on the default config).
  Rng rng(31);
  CanaryStatusReport status = started;
  for (int iter = 0;
       iter < 400 && status.state == serve::CanaryState::kRunning; ++iter) {
    std::vector<std::size_t> ids(16);
    for (auto& id : ids) id = rng.index(600);
    client.lookup_ids(ids);
    if (iter % 4 == 3) status = client.canary_status();
  }
  status = client.canary_status();
  EXPECT_EQ(status.state, serve::CanaryState::kPromoted);
  EXPECT_GE(status.online.shadows, 64u);
  EXPECT_GE(status.online.agreement_lower, 0.70);
  EXPECT_EQ(client.stats().live_version, "v2-good");
  EXPECT_EQ(client.lookup_id(0).version, "v2-good");

  // A fresh canary (v1 as candidate against the new incumbent) can be
  // aborted by the operator; the incumbent stays live.
  const CanaryStatusReport second = client.canary_start("v1", 0.25, 0.25);
  ASSERT_EQ(second.state, serve::CanaryState::kRunning);
  // While it runs, an OFFLINE promote is refused too — it would flip the
  // incumbent out from under the router mid-measurement.
  EXPECT_THROW(client.try_promote("v1"), RpcError);
  EXPECT_EQ(client.stats().live_version, "v2-good");
  // Drained abort: the reply is the final scored status (the reason
  // names the drain so the audit trail distinguishes it).
  const CanaryStatusReport aborted = client.canary_abort(/*drain=*/true);
  EXPECT_EQ(aborted.state, serve::CanaryState::kAborted);
  EXPECT_NE(aborted.reason.find("(drained)"), std::string::npos);
  EXPECT_EQ(client.stats().live_version, "v2-good");
  // Abort with nothing running is a no-op status read.
  EXPECT_EQ(client.canary_abort().state, serve::CanaryState::kAborted);
}

TEST_F(RpcTest, CanaryRoutedLookupsMatchTheRightVersionPerKey) {
  Client client("127.0.0.1", server_->port());
  // Keep the canary running for the whole test: tiny shadow sample, huge
  // decision floor comes from the server default (min_shadows=64) — use
  // shadow_rate small enough that 64 is never reached here.
  const CanaryStatusReport started =
      client.canary_start("v2-good", 0.5, 0.01);
  ASSERT_EQ(started.state, serve::CanaryState::kRunning);

  const serve::LookupService direct_inc(store_);
  const serve::LookupService direct_cand(
      store_, {.pin_snapshot = store_.snapshot("v2-good")});
  const auto router = server_->canary();
  ASSERT_NE(router, nullptr);

  std::vector<std::size_t> ids = {0, 1, 2, 3, 4, 5, 6, 7,
                                  100, 200, 300, 400, 599};
  const std::uint64_t batcher_before = client.stats().batcher.lookups;
  const serve::LookupResult merged = client.lookup_ids(ids);
  // The Stats RPC must keep covering ALL keys while the canary routes
  // part of them to its own candidate stack (shared counters).
  EXPECT_GE(client.stats().batcher.lookups - batcher_before, ids.size());
  const serve::LookupResult inc = direct_inc.lookup_ids(ids);
  const serve::LookupResult cand = direct_cand.lookup_ids(ids);
  ASSERT_EQ(merged.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const serve::LookupResult& want =
        router->routes_to_candidate(ids[i]) ? cand : inc;
    for (std::size_t j = 0; j < merged.dim; ++j) {
      EXPECT_EQ(merged.row(i)[j], want.row(i)[j])
          << "key " << ids[i] << " col " << j;
    }
  }
  client.canary_abort();
}

TEST(RpcShutdown, ShutdownFrameStopsTheServer) {
  serve::EmbeddingStore store;
  serve::DemoStoreConfig demo;
  demo.vocab = 200;
  demo.dim = 16;
  demo.build_oov_table = false;
  serve::add_demo_versions(store, demo);
  Server server(store, ServerConfig{});
  server.start();
  {
    Client client("127.0.0.1", server.port());
    client.ping();
    EXPECT_FALSE(server.shutdown_requested());
    client.shutdown_server();
  }
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();  // joins promptly because the accept loop already quit
}

TEST(Sockets, ConnectToClosedPortThrows) {
  // Bind-then-close to obtain a port that is very likely unused.
  std::uint16_t port;
  {
    TcpListener listener = TcpListener::bind_loopback(0);
    port = listener.port();
  }
  EXPECT_THROW(TcpStream::connect("127.0.0.1", port), NetError);
}

TEST(Sockets, RpcDeadlineUnwedgesAClientOfAHungServer) {
  // A server that accepts and then goes silent is the failure mode a
  // connect-time check can never catch; only the per-recv deadline does.
  TcpListener listener = TcpListener::bind_loopback(0);
  std::atomic<bool> done{false};
  std::thread hung([&] {
    TcpStream stream = listener.accept(5000);  // never replies
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  Client client("127.0.0.1", listener.port(), /*rpc_timeout_ms=*/200);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.ping(), NetError);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(waited, 5000);  // the deadline fired, not a hang
  done.store(true);
  hung.join();
}

// ---- fault injection ---------------------------------------------------

TEST(FaultConfigCodec, ParsesSerializesAndRejectsMalformedClauses) {
  const FaultConfig none = FaultConfig::parse("");
  EXPECT_FALSE(none.any());
  EXPECT_EQ(none.serialize(), "");

  const FaultConfig cfg =
      FaultConfig::parse("delay=0.25:50,drop=0.05,close=0.1,truncate=1");
  EXPECT_EQ(cfg.delay_prob, 0.25);
  EXPECT_EQ(cfg.delay_ms, 50);
  EXPECT_EQ(cfg.drop_prob, 0.05);
  EXPECT_EQ(cfg.close_prob, 0.1);
  EXPECT_EQ(cfg.truncate_prob, 1.0);
  EXPECT_TRUE(cfg.any());
  // The text form round-trips through serialize — the FAULT_SET reply
  // echoes exactly what took effect.
  EXPECT_TRUE(FaultConfig::parse(cfg.serialize()) == cfg);

  EXPECT_THROW(FaultConfig::parse("drop=1.5"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("drop=-0.1"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("drop=abc"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("drop"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("delay=0.5"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("delay=0.5:-3"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("delay=0.5:90000"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("frob=0.1"), std::runtime_error);
}

TEST_F(RpcTest, FaultSetRefusedWhenTheServerIsNotArmed) {
  // The RpcTest server runs a default config: fault injection unarmed.
  // A production daemon must not be remotely perturbable.
  Client client("127.0.0.1", server_->port());
  EXPECT_THROW(client.fault_set("drop=1"), RpcError);
  // The refusal is an Error frame, not a connection fault: the same
  // connection keeps serving lookups.
  EXPECT_EQ(client.lookup_ids({1, 2}).size(), 2u);
}

TEST(FaultInjection, ArmedServerPerturbsLookupsButNeverControlTraffic) {
  serve::EmbeddingStore store;
  serve::DemoStoreConfig demo;
  demo.vocab = 100;
  demo.dim = 8;
  demo.build_oov_table = false;
  serve::add_demo_versions(store, demo);
  ServerConfig sc;
  sc.fault_inject = true;  // armed at startup; no faults until FAULT_SET
  Server server(store, sc);
  server.start();

  Client setter("127.0.0.1", server.port());
  EXPECT_EQ(setter.lookup_ids({5}).size(), 1u);  // armed but quiescent
  EXPECT_EQ(setter.fault_set("close=1"), "close=1");
  {
    // Every data-plane reply now closes the connection mid-exchange...
    Client victim("127.0.0.1", server.port(), /*rpc_timeout_ms=*/2000);
    EXPECT_THROW(victim.lookup_ids({1}), NetError);
  }
  // ...while control traffic stays reliable on fresh connections: the
  // chaos harness can still orchestrate the cluster it is breaking.
  Client control("127.0.0.1", server.port());
  control.ping();
  (void)control.stats();

  // Truncated replies look well-formed up front; the client must treat
  // the short read as a transport error, never decode a prefix.
  EXPECT_EQ(control.fault_set("truncate=1"), "truncate=1");
  {
    Client victim("127.0.0.1", server.port(), /*rpc_timeout_ms=*/2000);
    EXPECT_THROW(victim.lookup_ids({1}), std::runtime_error);
  }

  // Swallowed replies wedge the connection; the rpc deadline bounds it.
  EXPECT_EQ(control.fault_set("drop=1"), "drop=1");
  {
    Client victim("127.0.0.1", server.port(), /*rpc_timeout_ms=*/300);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(victim.lookup_ids({1}), NetError);
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(waited, 5000);
  }

  // FAULT_SET "" clears every fault: the data plane heals in place.
  EXPECT_EQ(control.fault_set(""), "");
  EXPECT_EQ(control.lookup_ids({3}).size(), 1u);
  server.stop();
}

}  // namespace
}  // namespace anchor::net
