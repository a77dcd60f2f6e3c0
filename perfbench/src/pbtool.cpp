// pbtool — the benchmark's client side. perfbench/run.py spawns the
// daemons and calls this tool for everything that speaks the RPC protocol:
//
//   pbtool ready    --ports P[,P...] [--topk 1]   wait until each daemon
//                   answers PING (and, with --topk, one TOPK: the lazy
//                   IVF-PQ index build is part of getting ready)
//   pbtool shutdown --ports P[,P...]              SHUTDOWN RPC to each
//   pbtool gen      ...                           one measured run: the
//                   phases, the output checks, one JSON object on stdout
//   pbtool trace    ...                           the traced run: spans
//                   around calls into each layer plus daemon METRICS
//
// One process, at most four threads, each holding at most one connection.
#include <sys/prctl.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ann/ann_service.hpp"
#include "bench_util.hpp"
#include "cluster/cluster_client.hpp"
#include "core/measures.hpp"
#include "la/svd.hpp"
#include "net/client.hpp"
#include "serve/batcher.hpp"
#include "serve/demo_store.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/embedding_store.hpp"
#include "serve/lookup_service.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace anchor;
using perfbench::Rng;
using perfbench::now_ns;

constexpr const char* kHost = "127.0.0.1";
constexpr int kRpcTimeoutMs = 5000;
// The first TOPK on a fresh daemon trains the index inside the request.
constexpr int kIndexBuildTimeoutMs = 120000;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kBatchKeys = 64;  // keys per multi-key lookup
constexpr std::size_t kSenders = 3;     // open-loop sender threads
constexpr std::size_t kClosedConns = 2; // closed-loop connections
constexpr std::int64_t kWindowNs = 250'000'000;         // closed-loop rates
constexpr std::int64_t kLatencyWindowNs = 500'000'000;  // open-loop percentiles
constexpr double kWarmupS = 0.5;
constexpr std::size_t kBlocks = 4;  // open/closed/gate blocks per run
constexpr std::size_t kRecallQueries = 200;
constexpr std::size_t kIdentitySample = 512;
constexpr std::size_t kAnnSampleRows = 4096;
const char* const kGateCycle[3] = {"v2-good", "v1", "v3-bad"};

// ---------------------------------------------------------------- args

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string k = argv[i];
      if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("expected --name value, got '" + k + "'");
      }
      kv_[k.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& k, const std::string& def = "") const {
    const auto it = kv_.find(k);
    if (it != kv_.end()) return it->second;
    if (def.empty()) throw std::runtime_error("missing --" + k);
    return def;
  }
  double num(const std::string& k, const std::string& def = "") const {
    return std::stod(str(k, def));
  }
  std::size_t count(const std::string& k, const std::string& def = "") const {
    return static_cast<std::size_t>(std::stoull(str(k, def)));
  }
  std::vector<std::uint16_t> ports(const std::string& k) const {
    std::vector<std::uint16_t> out;
    std::stringstream ss(str(k));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) out.push_back(static_cast<std::uint16_t>(std::stoul(item)));
    }
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// ---------------------------------------------------------------- JSON

std::string num_json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str_json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Flat ordered JSON object builder.
class Obj {
 public:
  Obj& num(const std::string& k, double v) { return raw(k, num_json(v)); }
  Obj& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Obj& str(const std::string& k, const std::string& v) { return raw(k, str_json(v)); }
  Obj& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + str_json(k) + ": " + json;
    return *this;
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------- traffic shape

enum class Kind { kLookup, kTopk };

/// What one phase sends: the request kind, its target daemon, and how
/// keys are drawn. Lookups draw Zipf(1.0) ids (word frequencies follow
/// Zipf's law); a `batch_share` of them are kBatchKeys-key LOOKUP_IDS
/// requests. TOPK queries draw uniform ids, as the recall check does: the
/// search costs about the same for any query row, and a skewed query set
/// would let the hot-row cache answer the query-row fetch and leave most
/// of the index's cells out of the recall sample.
struct Traffic {
  Kind kind = Kind::kLookup;
  std::uint16_t port = 0;
  std::size_t vocab = 0;
  double batch_share = 0.0;
  const perfbench::Zipf* zipf = nullptr;
  double sampling = 0.0;  // Client trace sampling
};

std::vector<std::size_t> next_keys(const Traffic& t, Rng& rng) {
  if (t.kind == Kind::kTopk) return {static_cast<std::size_t>(rng.below(t.vocab))};
  const bool batch = t.batch_share > 0.0 && rng.uniform() < t.batch_share;
  std::vector<std::size_t> ids(batch ? kBatchKeys : 1);
  for (auto& id : ids) id = t.zipf->sample(rng);
  return ids;
}

/// One connection plus the per-request output check. Reconnects after a
/// transport error; an RPC error leaves the connection usable.
class Caller {
 public:
  explicit Caller(const Traffic& t) : t_(t) {}

  /// Sends one request; returns the units of work done (keys looked up or
  /// one query), or 0 when the request failed or its reply was malformed.
  double call(const std::vector<std::size_t>& ids) {
    try {
      if (!client_) {
        client_ = std::make_unique<net::Client>(kHost, t_.port, kRpcTimeoutMs);
        client_->set_trace_sampling(t_.sampling);
      }
      if (t_.kind == Kind::kTopk) {
        const ann::TopKResult r = client_->topk_id(ids[0], kTopK);
        return r.hits.size() == kTopK ? 1.0 : 0.0;
      }
      const serve::LookupResult r =
          ids.size() == 1 ? client_->lookup_id(ids[0]) : client_->lookup_ids(ids);
      if (r.size() != ids.size()) return 0.0;
      versions.insert(r.version);
      return static_cast<double>(ids.size());
    } catch (const net::RpcError&) {
      return 0.0;
    } catch (const std::exception&) {
      client_.reset();
      return 0.0;
    }
  }

  std::set<std::string> versions;  // every version a lookup reply carried

 private:
  const Traffic& t_;
  std::unique_ptr<net::Client> client_;
};

/// Requests sent, answered and failed in one phase.
struct Tally {
  std::uint64_t sent = 0, ok = 0, failed = 0;
  void add(const Tally& o) {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
  }
};

void sleep_until_ns(std::int64_t t) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// The window length nearest `target` that divides `span` into whole
/// windows (at least one), so no phase loses a partial window.
std::int64_t fitted_window(std::int64_t span, std::int64_t target) {
  const std::int64_t n = std::max<std::int64_t>(1, (span + target / 2) / target);
  return span / n;
}

/// Open-loop results, pooled over every block of a run: every (due time,
/// latency) sample and the per-window p50 and p90 (the reported latencies
/// are their medians).
struct OpenStats {
  Tally tally;
  std::vector<std::pair<std::int64_t, double>> samples;
  std::vector<double> p50, p90;
  double lateness_max_us = 0.0;
  std::set<std::string> versions;

  double median_p50() const { return perfbench::median(p50); }
  double median_p90() const { return perfbench::median(p90); }
  double p99() const {
    std::vector<double> all;
    for (const auto& s : samples) all.push_back(s.second);
    return perfbench::percentile(std::move(all), 0.99);
  }
};

/// Open loop: kSenders threads, each on its own seeded schedule at
/// rate/kSenders. Each request is timed from when it was due, so a stall
/// charges every request it delayed. `beside` runs on the calling thread
/// while the senders send. Appends to `into`.
void run_open(const Traffic& t, double rate, double seconds, std::uint64_t seed,
              std::uint64_t stream, OpenStats* into,
              const std::function<void()>& beside = {}) {
  struct Part {
    Tally tally;
    std::vector<std::pair<std::int64_t, double>> samples;  // (due, latency us)
    double lateness_max_us = 0.0;
    std::set<std::string> versions;
  };
  std::vector<Part> parts(kSenders);
  const std::int64_t start = now_ns() + 20'000'000;  // let every sender arm
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not +50 us
      const auto due = perfbench::open_loop_schedule(
          seed, stream * 16 + s, rate / kSenders, seconds);
      Rng keys(seed, stream * 16 + s);
      Caller caller(t);
      Part& out = parts[s];
      out.samples.reserve(due.size());
      for (const std::int64_t offset : due) {
        const std::vector<std::size_t> ids = next_keys(t, keys);
        const std::int64_t due_at = start + offset;
        sleep_until_ns(due_at);
        const std::int64_t sent_at = now_ns();
        out.lateness_max_us = std::max(out.lateness_max_us, (sent_at - due_at) / 1e3);
        const bool ok = caller.call(ids) > 0.0;
        ++out.tally.sent;
        if (ok) {
          ++out.tally.ok;
          out.samples.emplace_back(due_at, (now_ns() - due_at) / 1e3);
        } else {
          ++out.tally.failed;
          out.samples.emplace_back(due_at, std::numeric_limits<double>::infinity());
        }
      }
      out.versions = std::move(caller.versions);
    });
  }
  if (beside) beside();
  for (auto& th : threads) th.join();
  std::vector<std::pair<std::int64_t, double>> samples;
  for (auto& p : parts) {
    into->tally.add(p.tally);
    samples.insert(samples.end(), p.samples.begin(), p.samples.end());
    into->lateness_max_us = std::max(into->lateness_max_us, p.lateness_max_us);
    into->versions.insert(p.versions.begin(), p.versions.end());
  }
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t window = fitted_window(end - start, kLatencyWindowNs);
  for (const auto& [q, out] : {std::pair{0.5, &into->p50}, std::pair{0.9, &into->p90}}) {
    const auto w = perfbench::window_percentiles(samples, start, end, window, q);
    out->insert(out->end(), w.begin(), w.end());
  }
  into->samples.insert(into->samples.end(), samples.begin(), samples.end());
}

/// Closed-loop results pooled over every block: per-window request and
/// key rates (the reported capacity is the median request rate).
struct ClosedStats {
  Tally tally;
  std::vector<double> rates, key_rates;
  std::set<std::string> versions;
};

/// Closed loop: kClosedConns blocking connections, each sending its next
/// request as soon as the previous one returns. Appends to `into`.
void run_closed(const Traffic& t, double seconds, std::uint64_t seed,
                std::uint64_t stream, ClosedStats* into) {
  std::vector<std::vector<std::pair<std::int64_t, double>>> events(kClosedConns);
  std::vector<Tally> tallies(kClosedConns);
  std::vector<std::set<std::string>> versions(kClosedConns);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClosedConns; ++c) {
    threads.emplace_back([&, c] {
      Rng keys(seed, stream * 16 + c);
      Caller caller(t);
      while (now_ns() < end) {
        const double units = caller.call(next_keys(t, keys));
        ++tallies[c].sent;
        if (units > 0.0) {
          ++tallies[c].ok;
          events[c].emplace_back(now_ns(), units);
        } else {
          ++tallies[c].failed;
        }
      }
      versions[c] = std::move(caller.versions);
    });
  }
  for (auto& th : threads) th.join();
  std::vector<std::pair<std::int64_t, double>> merged;
  for (std::size_t c = 0; c < kClosedConns; ++c) {
    into->tally.add(tallies[c]);
    into->versions.insert(versions[c].begin(), versions[c].end());
    merged.insert(merged.end(), events[c].begin(), events[c].end());
  }
  const std::int64_t window = fitted_window(end - start, kWindowNs);
  const auto keys = perfbench::window_rates(merged, start, end, window);
  into->key_rates.insert(into->key_rates.end(), keys.begin(), keys.end());
  for (auto& e : merged) e.second = 1.0;
  const auto reqs = perfbench::window_rates(merged, start, end, window);
  into->rates.insert(into->rates.end(), reqs.begin(), reqs.end());
}

// ------------------------------------------------------------- control

struct Decision {
  std::string candidate;
  std::string decision;  // admit / warn / reject, or "error"
  bool promoted = false;
  std::int64_t start_ns = 0, end_ns = 0;
  double seconds() const { return (end_ns - start_ns) / 1e9; }
};

/// Cycles TRY_PROMOTE v2-good → v1 → v3-bad on one connection until
/// `until_ns` (when nonzero) or until `count` decisions were made.
void run_control(std::uint16_t port, std::int64_t until_ns, std::size_t count,
                 std::vector<Decision>* out, Tally* tally) {
  std::unique_ptr<net::Client> client;
  while (until_ns > 0 ? now_ns() < until_ns : out->size() < count) {
    Decision d;
    d.candidate = kGateCycle[out->size() % 3];
    d.start_ns = now_ns();
    ++tally->sent;
    try {
      if (!client) client = std::make_unique<net::Client>(kHost, port, kIndexBuildTimeoutMs);
      const serve::GateReport r = client->try_promote(d.candidate);
      d.decision = serve::decision_name(r.decision);
      d.promoted = r.promoted;
      ++tally->ok;
    } catch (const std::exception&) {
      client.reset();
      d.decision = "error";
      ++tally->failed;
    }
    d.end_ns = now_ns();
    out->push_back(d);
  }
}

bool decisions_ok(const std::vector<Decision>& ds) {
  if (ds.empty()) return false;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const bool admit = i % 3 != 2;
    if (ds[i].decision != (admit ? "admit" : "reject") || ds[i].promoted != admit) {
      return false;
    }
  }
  return true;
}

// -------------------------------------------------------------- checks

/// Rows the router returns must be bit-identical to the owning backend's
/// own LOOKUP_IDS answer, for a seeded sample of global ids.
bool check_identity(std::uint16_t router, const std::vector<std::uint16_t>& backends,
                    std::size_t shard_rows, std::size_t vocab, std::uint64_t seed,
                    Tally* tally) {
  Rng rng(seed, 7);
  std::vector<std::size_t> ids(kIdentitySample);
  for (auto& id : ids) id = rng.below(vocab);
  try {
    net::Client rc(kHost, router, kRpcTimeoutMs);
    ++tally->sent;
    const serve::LookupResult merged = rc.lookup_ids(ids);
    ++tally->ok;
    if (merged.size() != ids.size()) return false;
    for (std::size_t b = 0; b < backends.size(); ++b) {
      std::vector<std::size_t> local, pos;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] / shard_rows == b) {
          local.push_back(ids[i] - b * shard_rows);
          pos.push_back(i);
        }
      }
      if (local.empty()) continue;
      net::Client bc(kHost, backends[b], kRpcTimeoutMs);
      ++tally->sent;
      const serve::LookupResult direct = bc.lookup_ids(local);
      ++tally->ok;
      if (direct.dim != merged.dim || direct.size() != local.size()) return false;
      for (std::size_t j = 0; j < local.size(); ++j) {
        if (std::memcmp(direct.row(j), merged.row(pos[j]), merged.dim * sizeof(float)) != 0 ||
            direct.oov[j] != merged.oov[pos[j]]) {
          return false;
        }
      }
    }
    return true;
  } catch (const std::exception& e) {
    ++tally->failed;
    std::cerr << "identity check: " << e.what() << "\n";
    return false;
  }
}

/// recall@10 of TOPK against an exact top-10 the benchmark computes itself
/// from every row fetched over LOOKUP_IDS, for a seeded query set.
double measure_recall(std::uint16_t port, std::size_t vocab, std::uint64_t seed,
                      Tally* tally) {
  try {
    net::Client c(kHost, port, kRpcTimeoutMs);
    std::vector<float> rows;
    std::size_t dim = 0;
    for (std::size_t b = 0; b < vocab; b += 1024) {
      std::vector<std::size_t> ids(std::min<std::size_t>(1024, vocab - b));
      std::iota(ids.begin(), ids.end(), b);
      ++tally->sent;
      const serve::LookupResult r = c.lookup_ids(ids);
      ++tally->ok;
      dim = r.dim;
      rows.insert(rows.end(), r.vectors.begin(), r.vectors.end());
    }
    if (rows.size() != vocab * dim) return 0.0;
    Rng rng(seed, 11);
    std::size_t hits = 0;
    std::vector<float> dist(vocab);
    std::vector<std::size_t> order(vocab);
    for (std::size_t q = 0; q < kRecallQueries; ++q) {
      const std::size_t qid = rng.below(vocab);
      ++tally->sent;
      const ann::TopKResult r = c.topk_id(qid, kTopK);
      ++tally->ok;
      const float* qv = rows.data() + qid * dim;
      for (std::size_t w = 0; w < vocab; ++w) {
        const float* v = rows.data() + w * dim;
        float s = 0.0f;
        for (std::size_t j = 0; j < dim; ++j) {
          const float d = v[j] - qv[j];
          s += d * d;
        }
        dist[w] = s;
      }
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::partial_sort(order.begin(), order.begin() + kTopK, order.end(),
                        [&](std::size_t a, std::size_t b) {
                          return dist[a] != dist[b] ? dist[a] < dist[b] : a < b;
                        });
      const std::set<std::size_t> exact(order.begin(), order.begin() + kTopK);
      for (const auto& h : r.hits) hits += exact.count(static_cast<std::size_t>(h.id));
    }
    return static_cast<double>(hits) / static_cast<double>(kRecallQueries * kTopK);
  } catch (const std::exception& e) {
    ++tally->failed;
    std::cerr << "recall check: " << e.what() << "\n";
    return 0.0;
  }
}

/// Issues the first TOPK (the daemon builds its index inside it) with a
/// deadline long enough for the build.
void warm_topk(std::uint16_t port, Tally* tally) {
  ++tally->sent;
  try {
    net::Client c(kHost, port, kIndexBuildTimeoutMs);
    c.topk_id(0, kTopK);
    ++tally->ok;
  } catch (const std::exception& e) {
    ++tally->failed;
    std::cerr << "topk warm-up on port " << port << ": " << e.what() << "\n";
  }
}

// ----------------------------------------------------------- gen (run)

/// One workload's run: its request kind, where it goes, its fixed open-loop
/// rate, how long each phase lasts, and where the gate runs.
struct Plan {
  Kind kind = Kind::kLookup;
  std::uint16_t target = 0;  // the router when there is one, else backend 0
  std::vector<std::uint16_t> backends;
  std::size_t shard_rows = 0, vocab = 0;
  double rate = 0, batch_share = 0, open_s = 0, closed_s = 0, gate_s = 0;
  double beside_s = 0;  // open loop with TRY_PROMOTE cycling beside it
  double min_recall = 0.0;
  std::uint64_t seed = 0;
  std::vector<int> pids;  // the daemons' processes, for their peak RSS

  static Plan from(const Args& a) {
    Plan p;
    const std::string kind = a.str("kind");
    if (kind != "lookup" && kind != "topk") throw std::runtime_error("--kind lookup|topk");
    p.kind = kind == "topk" ? Kind::kTopk : Kind::kLookup;
    p.target = static_cast<std::uint16_t>(a.count("target"));
    p.backends = a.ports("backends");
    if (p.backends.empty()) throw std::runtime_error("--backends is empty");
    p.shard_rows = a.count("shard-rows");
    p.vocab = p.shard_rows * p.backends.size();
    p.rate = a.num("rate");
    p.batch_share = a.num("batch-share", "0");
    p.open_s = a.num("open-s");
    p.closed_s = a.num("closed-s");
    p.gate_s = a.num("gate-s", "0");
    p.beside_s = a.num("beside-s", "0");
    p.min_recall = a.num("min-recall", "0");
    p.seed = a.count("seed");
    std::stringstream pids(a.str("pids"));
    for (std::string item; std::getline(pids, item, ',');) p.pids.push_back(std::stoi(item));
    return p;
  }
};

std::string phase_json(const Tally& t, Obj extra = Obj()) {
  extra.num("sent", static_cast<double>(t.sent))
      .num("ok", static_cast<double>(t.ok))
      .num("failed", static_cast<double>(t.failed));
  return extra.json();
}

/// Peak resident memory (VmHWM) summed over the processes, in MB.
double peak_rss_mb(const std::vector<int>& pids) {
  double mb = 0.0;
  for (const int pid : pids) {
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    bool found = false;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        mb += std::stod(line.substr(6)) / 1024.0;
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
  }
  return mb;
}

std::int64_t deadline_in(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

int cmd_gen(const Args& a) {
  const Plan p = Plan::from(a);
  const perfbench::Zipf zipf(p.vocab, 1.0, p.seed);
  const Traffic traffic{p.kind, p.target, p.vocab, p.batch_share, &zipf, 0.0};
  const std::uint16_t gate_port = p.backends[0];

  Tally warmup, control, checks;
  OpenStats open, beside;
  ClosedStats closed;
  std::vector<Decision> decisions;
  std::vector<double> gate_s;        // decisions timed alone, without traffic
  std::vector<double> gate_cycle_s;  // per whole cycle of them, their mean
  double serving_rss_mb = std::numeric_limits<double>::quiet_NaN();
  const auto finish_cycle = [&] {
    run_control(gate_port, 0, (decisions.size() + 2) / 3 * 3, &decisions, &control);
  };

  if (p.kind == Kind::kTopk) warm_topk(p.target, &warmup);
  {
    ClosedStats w;
    run_closed(traffic, kWarmupS, p.seed, 1, &w);
    warmup.add(w.tally);
  }
  // The phases interleave in kBlocks blocks, so every metric samples the
  // whole run rather than one stretch of it. Every block ends on a whole
  // TRY_PROMOTE cycle, so v1 is live whenever the next block's traffic runs.
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::uint64_t stream = 2 + 3 * b;
    run_open(traffic, p.rate, p.open_s / kBlocks, p.seed, stream, &open);
    run_closed(traffic, p.closed_s / kBlocks, p.seed, stream + 1, &closed);
    // Serving memory: the peak after open and closed traffic and before the
    // first TRY_PROMOTE, whose transient buffers land in per-thread malloc
    // arenas and move the peak by tens of MB from run to run.
    if (b == 0) serving_rss_mb = peak_rss_mb(p.pids);
    const std::size_t before = decisions.size();
    run_control(gate_port, deadline_in(p.gate_s / kBlocks), 0, &decisions, &control);
    finish_cycle();
    for (std::size_t i = before; i < decisions.size(); ++i) gate_s.push_back(decisions[i].seconds());
    // One decision's time is bimodal (about 0.33 and 0.41 s at d=200), so
    // a median over decisions jumps between the modes from run to run. A
    // cycle's wall time per decision averages them, as a window rate does.
    for (std::size_t i = before; i + 3 <= decisions.size(); i += 3) {
      gate_cycle_s.push_back((decisions[i + 2].end_ns - decisions[i].start_ns) / 3e9);
    }
    if (p.beside_s > 0) {
      // The main thread drives the control connection while the senders
      // run: 3 open-loop senders + control = 4 threads.
      const double secs = p.beside_s / kBlocks;
      run_open(traffic, p.rate, secs, p.seed, stream + 2, &beside, [&] {
        run_control(gate_port, deadline_in(secs), 0, &decisions, &control);
      });
      finish_cycle();
    }
  }

  double recall = std::numeric_limits<double>::quiet_NaN();
  bool ok_recall = true;
  if (p.kind == Kind::kTopk) {
    recall = measure_recall(p.target, p.vocab, p.seed, &checks);
    ok_recall = recall >= p.min_recall;
  }
  const bool identity = p.backends.size() < 2 ||
      check_identity(p.target, p.backends, p.shard_rows, p.vocab, p.seed, &checks);

  // Lookups beside the gate may see either admitted version; the other
  // phases run between whole cycles, with v1 live.
  std::set<std::string> versions = open.versions;
  versions.insert(closed.versions.begin(), closed.versions.end());
  bool versions_ok = p.kind == Kind::kTopk || versions == std::set<std::string>{"v1"};
  for (const auto& v : beside.versions) versions_ok &= v == "v1" || v == "v2-good";
  const bool ok_decisions = decisions_ok(decisions);

  Tally total;
  for (const Tally* t : {&warmup, &open.tally, &closed.tally, &beside.tally, &control, &checks}) {
    total.add(*t);
  }
  std::string decision_list = "[";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    decision_list += (i ? ", " : "") + str_json(decisions[i].decision);
  }
  decision_list += "]";

  Obj phases;
  phases.raw("warmup", phase_json(warmup))
      .raw("open", phase_json(open.tally, Obj().num("rate", p.rate)
                                             .num("windows", static_cast<double>(open.p50.size()))
                                             .num("lateness_max_us", open.lateness_max_us)
                                             .num("p90_us", open.median_p90())
                                             .num("p99_us", open.p99())))
      .raw("closed", phase_json(closed.tally, Obj().num("connections", kClosedConns)
                                                 .num("windows", static_cast<double>(closed.rates.size()))
                                                 .num("keys_per_s", perfbench::median(closed.key_rates))))
      .raw("beside_gate", phase_json(beside.tally, Obj().num("p50_us", beside.median_p50())
                                                        .num("p90_us", beside.median_p90())
                                                        .num("lateness_max_us", beside.lateness_max_us)))
      .raw("control", phase_json(control, Obj().num("timed", static_cast<double>(gate_s.size()))
                                               .num("decision_p50_s", perfbench::median(gate_s))
                                               .raw("decisions", decision_list)))
      .raw("checks", phase_json(checks));
  Obj metrics;
  metrics.num("p50_us", open.median_p50())
      .num("capacity_rps", perfbench::median(closed.rates))
      .num("gate_s", perfbench::median(gate_cycle_s))
      .num("server_rss_mb", serving_rss_mb);
  if (p.kind == Kind::kTopk) metrics.num("recall_at_10", recall);
  Obj checks_obj;
  checks_obj.boolean("router_rows_bit_identical", identity)
      .boolean("gate_decisions_admit_admit_reject", ok_decisions)
      .boolean("lookup_versions_admitted", versions_ok)
      .boolean("recall_at_10_at_least_bound", ok_recall);
  std::cout << Obj().boolean("correct", identity && ok_decisions && versions_ok && ok_recall)
                   .num("attempted", static_cast<double>(total.sent))
                   .num("failed", static_cast<double>(total.failed))
                   .raw("metrics", metrics.json())
                   .raw("checks", checks_obj.json())
                   .raw("phases", phases.json())
                   .json()
            << std::endl;
  return 0;
}

// --------------------------------------------------------------- trace

const obs::MetricValue* find_metric(const obs::MetricsReport& r, const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double counter(const obs::MetricsReport& r, const std::string& name) {
  const obs::MetricValue* m = find_metric(r, name);
  return m ? static_cast<double>(m->counter) : 0.0;
}

double hist_mean(const obs::MetricsReport& r, const std::string& name) {
  const obs::MetricValue* m = find_metric(r, name);
  return m && m->hist.count > 0 ? m->hist.mean() : 0.0;
}

obs::MetricsReport metrics_of(std::uint16_t port) {
  net::Client c(kHost, port, kRpcTimeoutMs);
  return c.metrics();
}

int cmd_trace(const Args& a) {
  const Plan p = Plan::from(a);
  const std::size_t dim = a.count("dim");
  const std::string spans_out = a.str("spans-out");
  const double seconds = a.num("seconds");
  const bool has_router = p.backends.size() > 1;
  perfbench::SpanRecorder rec;
  std::uint64_t request = 0;
  Rng rng(p.seed, 21);
  const perfbench::Zipf global_zipf(p.vocab, 1.0, p.seed);
  const perfbench::Zipf local_zipf(p.shard_rows, 1.0, p.seed);
  const auto zipf_keys = [&](const perfbench::Zipf& z, std::size_t n) {
    std::vector<std::size_t> ids(n);
    for (auto& id : ids) id = z.sample(rng);
    return ids;
  };

  // ---- serve: one daemon's store, built in-process.
  serve::EmbeddingStore store;
  serve::DemoStoreConfig demo;
  demo.vocab = p.shard_rows;
  demo.dim = dim;
  demo.bits = 8;
  {
    perfbench::ScopedSpan s(rec, "serve.store_build", 0, ++request);
    serve::add_demo_versions(store, demo);
  }

  // ---- lookup ladder: RPC to one backend, cluster fan-out, in-process.
  {
    serve::LookupService service(store);
    serve::AsyncLookupService async(service);
    net::Client backend(kHost, p.backends[0], kRpcTimeoutMs);
    std::vector<cluster::ShardSpec> shards;
    for (std::size_t b = 0; b < p.backends.size(); ++b) {
      shards.emplace_back(kHost, p.backends[b], b * p.shard_rows, (b + 1) * p.shard_rows);
    }
    cluster::ClusterConfig cc;
    cc.map = cluster::ShardMap(1, shards);
    cluster::ClusterClient cluster_client(cc);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t req = ++request;
      perfbench::ScopedSpan op(rec, "op.lookup", 0, req);
      {
        perfbench::ScopedSpan s(rec, "net.ping", op.id(), req);
        backend.ping();
      }
      {
        const std::size_t id = local_zipf.sample(rng);
        perfbench::ScopedSpan s(rec, "net.lookup_rpc", op.id(), req);
        backend.lookup_id(id);
      }
      {
        const auto ids = zipf_keys(global_zipf, kBatchKeys);
        perfbench::ScopedSpan s(rec, "cluster.lookup", op.id(), req);
        cluster_client.lookup_ids(ids);
      }
      {
        const auto ids = zipf_keys(local_zipf, kBatchKeys);
        perfbench::ScopedSpan s(rec, "serve.lookup_batch", op.id(), req);
        service.lookup_ids(ids);
      }
      {
        const std::size_t id = local_zipf.sample(rng);
        perfbench::ScopedSpan s(rec, "serve.async_lookup", op.id(), req);
        async.lookup_id(id).get();
      }
    }
  }

  // ---- the instability gate and its parts, on the gate's row sample.
  {
    const serve::GateConfig gc;
    const serve::DeploymentGate gate(gc);
    const auto v1 = store.snapshot("v1");
    const auto v2 = store.snapshot("v2-good");
    const la::Matrix x = v1->to_matrix(gc.max_rows);
    const la::Matrix xt = v2->to_matrix(gc.max_rows);
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t req = ++request;
      perfbench::ScopedSpan op(rec, "op.gate", 0, req);
      {
        perfbench::ScopedSpan s(rec, "serve.gate_eval", op.id(), req);
        gate.evaluate(*v1, *v2);
      }
      {
        perfbench::ScopedSpan s(rec, "la.svd", op.id(), req);
        la::svd(x);
      }
      {
        // The gate overlaps kNN with the EIS work; so does this span pair.
        perfbench::ScopedSpan m(rec, "gate.measures", op.id(), req);
        const std::uint64_t parent = m.id();
        auto knn = util::global_pool().submit([&] {
          perfbench::ScopedSpan s(rec, "core.knn", parent, req);
          const la::Matrix nx = core::normalize_rows_l2(x);
          const la::Matrix nxt = core::normalize_rows_l2(xt);
          return core::knn_measure_normalized(nx, nxt, gc.knn_k, gc.knn_queries, gc.knn_seed);
        });
        {
          perfbench::ScopedSpan s(rec, "core.eis", parent, req);
          const auto ctx = core::EisContext::build(x, xt, gc.alpha);
          core::eigenspace_instability(ctx.v, ctx.v_tilde, ctx);
        }
        knn.get();
      }
      for (const char* v : {"v2-good", "v1"}) {
        perfbench::ScopedSpan s(rec, "serve.set_live", op.id(), req);
        store.set_live(v);
      }
    }
  }

  // ---- ann + compress: the index the TOPK RPC builds, and its training.
  // Only the topk workload serves TOPK; the others time the same calls on
  // a kAnnSampleRows-row store of their dimension, since a full-size index
  // build there would take most of a minute and moves nothing they measure.
  double probed = 0, shortlist = 0;
  {
    const std::uint64_t req = ++request;
    perfbench::ScopedSpan op(rec, "op.ann", 0, req);
    serve::EmbeddingStore sample_store;
    if (p.kind != Kind::kTopk) {
      serve::DemoStoreConfig small = demo;
      small.vocab = std::min(demo.vocab, kAnnSampleRows);
      serve::add_demo_versions(sample_store, small);
    }
    serve::EmbeddingStore& ann_store = p.kind == Kind::kTopk ? store : sample_store;
    const ann::AnnConfig ac;
    const auto live = ann_store.live();
    embed::Embedding rows(live->vocab_size(), live->dim());
    std::vector<std::size_t> all(rows.vocab_size);
    std::iota(all.begin(), all.end(), std::size_t{0});
    live->copy_rows(all.data(), all.size(), rows.data.data());
    {
      perfbench::ScopedSpan s(rec, "compress.pq_train", op.id(), req);
      ann::train_ivfpq(rows, ac);
    }
    ann::AnnService ann_service(ann_store, ac);
    ann::IvfPqIndexPtr index;
    {
      perfbench::ScopedSpan s(rec, "ann.index_build", op.id(), req);
      index = ann_service.index_for_live();
    }
    constexpr int kSearches = 300;
    for (int i = 0; i < kSearches; ++i) {
      const float* q = rows.row(rng.below(rows.vocab_size));
      ann::TopKResult r;
      {
        perfbench::ScopedSpan s(rec, "ann.search", op.id(), req);
        r = index->search(q, kTopK);
      }
      probed += r.cells_probed;
      shortlist += r.shortlist;
    }
    probed /= kSearches;
    shortlist /= kSearches;
  }

  // ---- daemon counters: traffic shaped like the workload, read back
  // through METRICS; the same open-loop phase with tracing on and off.
  Traffic traffic{p.kind, p.target, p.vocab, p.batch_share, &global_zipf, 0.0};
  Tally warm;
  if (p.kind == Kind::kTopk) warm_topk(p.target, &warm);
  std::vector<obs::MetricsReport> before;
  for (const auto port : p.backends) before.push_back(metrics_of(port));
  const obs::MetricsReport router_before = has_router ? metrics_of(p.target) : obs::MetricsReport{};
  {
    ClosedStats w;
    run_closed(traffic, kWarmupS, p.seed, 1, &w);
    warm.add(w.tally);
  }
  // Sampling 0 and 1 alternate block by block, so both see the same host.
  OpenStats off, on;
  for (std::size_t blk = 0; blk < kBlocks; ++blk) {
    for (const bool traced : {blk % 2 == 1, blk % 2 == 0}) {
      traffic.sampling = traced ? 1.0 : 0.0;
      run_open(traffic, p.rate, seconds / (2 * kBlocks), p.seed, 2 + blk, traced ? &on : &off);
    }
  }
  double d_requests = 0, d_batches = 0, d_hits = 0, d_misses = 0;
  for (std::size_t b = 0; b < p.backends.size(); ++b) {
    const obs::MetricsReport after = metrics_of(p.backends[b]);
    d_requests += counter(after, "anchor_lookup_requests_total") - counter(before[b], "anchor_lookup_requests_total");
    d_batches += counter(after, "anchor_batches_total") - counter(before[b], "anchor_batches_total");
    d_hits += counter(after, "anchor_cache_hits_total") - counter(before[b], "anchor_cache_hits_total");
    d_misses += counter(after, "anchor_cache_misses_total") - counter(before[b], "anchor_cache_misses_total");
    if (p.kind == Kind::kTopk) {
      probed = hist_mean(after, "anchor_topk_cells_probed");
      shortlist = hist_mean(after, "anchor_topk_shortlist_size");
    }
  }
  double hedges = 0, wins = 0, retries = 0;
  if (has_router) {
    const obs::MetricsReport after = metrics_of(p.target);
    hedges = counter(after, "anchor_router_hedges_total") - counter(router_before, "anchor_router_hedges_total");
    wins = counter(after, "anchor_router_hedge_wins_total") - counter(router_before, "anchor_router_hedge_wins_total");
    retries = counter(after, "anchor_router_retries_total") - counter(router_before, "anchor_router_retries_total");
  }
  const double routed = static_cast<double>(off.tally.ok + on.tally.ok);
  const double p50_off = off.median_p50();
  const double p50_on = on.median_p50();

  // ---- spans out, then per-span statistics.
  const std::vector<perfbench::Span> spans = rec.spans();
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  {
    std::ofstream out(spans_out);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << Obj().num("id", static_cast<double>(s.id))
                 .num("parent", static_cast<double>(s.parent))
                 .num("request", static_cast<double>(s.request))
                 .str("name", s.name)
                 .num("start_ns", static_cast<double>(s.start_ns))
                 .num("end_ns", static_cast<double>(s.end_ns))
                 .num("self_ns", static_cast<double>(self[i]))
                 .json()
          << "\n";
    }
    if (!out) throw std::runtime_error("cannot write " + spans_out);
  }
  std::map<std::string, std::vector<double>> dur, selfs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    dur[spans[i].name].push_back((spans[i].end_ns - spans[i].start_ns) / 1e9);
    selfs[spans[i].name].push_back(self[i] / 1e9);
  }
  Obj table;
  for (const auto& [name, v] : dur) {
    table.raw(name, Obj().num("count", static_cast<double>(v.size()))
                        .num("p50_s", perfbench::percentile(v, 0.5))
                        .num("p90_s", perfbench::percentile(v, 0.9))
                        .num("self_p50_s", perfbench::median(selfs[name]))
                        .json());
  }

  Obj metrics;
  const auto timed = [&](const std::string& span, const std::string& metric, double scale) {
    metrics.num(metric, perfbench::percentile(dur[span], 0.5) * scale)
        .num(metric + ".p90", perfbench::percentile(dur[span], 0.9) * scale);
  };
  timed("net.ping", "net.ping_us", 1e6);
  timed("net.lookup_rpc", "net.lookup_rpc_us", 1e6);
  timed("cluster.lookup", "cluster.lookup_us", 1e6);
  timed("serve.lookup_batch", "serve.lookup_batch_us", 1e6);
  timed("serve.async_lookup", "serve.async_lookup_us", 1e6);
  timed("serve.store_build", "serve.store_build_s", 1.0);
  timed("serve.set_live", "serve.set_live_us", 1e6);
  timed("serve.gate_eval", "serve.gate_eval_s", 1.0);
  timed("core.eis", "core.eis_s", 1.0);
  timed("core.knn", "core.knn_s", 1.0);
  timed("la.svd", "la.svd_s", 1.0);
  timed("compress.pq_train", "compress.pq_train_s", 1.0);
  timed("ann.index_build", "ann.index_build_s", 1.0);
  timed("ann.search", "ann.search_us", 1e6);
  metrics.num("cluster.hedges_per_lookup", routed > 0 ? hedges / routed : 0.0)
      .num("cluster.hedge_win_rate", hedges > 0 ? wins / hedges : 0.0)
      .num("cluster.retries", retries)
      .num("serve.keys_per_batch", d_batches > 0 ? d_requests / d_batches : 0.0)
      .num("serve.cache_hit_rate", d_hits + d_misses > 0 ? d_hits / (d_hits + d_misses) : 0.0)
      .num("ann.cells_probed", probed)
      .num("ann.shortlist", shortlist)
      .num("obs.trace_overhead_pct", 100.0 * (p50_on / p50_off - 1.0))
      .num("gen.lateness_max_us", off.lateness_max_us)
      .num("gen.p90_us", off.median_p90())
      .num("gen.p99_us", off.p99())
      .num("gen.sent", static_cast<double>(off.tally.sent))
      .num("gen.ok", static_cast<double>(off.tally.ok))
      .num("gen.failed", static_cast<double>(off.tally.failed));

  Tally total = warm;
  for (const Tally* t : {&off.tally, &on.tally}) total.add(*t);
  std::cout << Obj().boolean("correct", total.failed == 0)
                   .num("attempted", static_cast<double>(total.sent))
                   .num("failed", static_cast<double>(total.failed))
                   .raw("metrics", metrics.json())
                   .raw("spans", table.json())
                   .json()
            << std::endl;
  return 0;
}

// ---------------------------------------------------- ready / shutdown

int cmd_ready(const Args& a) {
  const bool topk = a.str("topk", "0") == "1";
  const std::int64_t deadline = now_ns() + 60'000'000'000LL;
  for (const std::uint16_t port : a.ports("ports")) {
    for (;;) {
      try {
        net::Client c(kHost, port, kIndexBuildTimeoutMs);
        c.ping();
        if (topk) c.topk_id(0, kTopK);
        break;
      } catch (const std::exception& e) {
        if (now_ns() > deadline) {
          std::cerr << "port " << port << " not ready: " << e.what() << "\n";
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  return 0;
}

int cmd_shutdown(const Args& a) {
  int rc = 0;
  for (const std::uint16_t port : a.ports("ports")) {
    try {
      net::Client c(kHost, port, 2000);
      c.shutdown_server();
    } catch (const std::exception& e) {
      std::cerr << "shutdown of port " << port << ": " << e.what() << "\n";
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pbtool <ready|shutdown|gen|trace> --name value ...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (cmd == "ready") return cmd_ready(args);
    if (cmd == "shutdown") return cmd_shutdown(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "trace") return cmd_trace(args);
    std::cerr << "unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "pbtool: " << e.what() << "\n";
    return 1;
  }
}
