#include "cluster/cluster_client.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"

namespace anchor::cluster {

// ---- ClusterHealth -----------------------------------------------------

ClusterHealth::ClusterHealth(const ShardMap& map)
    : flags_(map.num_replicas_total()), offsets_(map.num_shards() + 1, 0) {
  for (std::size_t b = 0; b < map.num_shards(); ++b) {
    offsets_[b + 1] = offsets_[b] + map.shard(b).num_replicas();
  }
}

ClusterHealth::ClusterHealth(std::size_t num_shards)
    : flags_(num_shards), offsets_(num_shards + 1, 0) {
  for (std::size_t b = 0; b < num_shards; ++b) offsets_[b + 1] = b + 1;
}

bool ClusterHealth::healthy(std::size_t shard, std::size_t replica) const {
  return flags_[index(shard, replica)].up.load(std::memory_order_acquire);
}

void ClusterHealth::mark(std::size_t shard, std::size_t replica, bool up) {
  flags_[index(shard, replica)].up.store(up, std::memory_order_release);
}

void ClusterHealth::mark(std::size_t shard, bool up) {
  for (std::size_t r = 0; r < replicas(shard); ++r) mark(shard, r, up);
}

bool ClusterHealth::shard_alive(std::size_t shard) const {
  for (std::size_t r = 0; r < replicas(shard); ++r) {
    if (healthy(shard, r)) return true;
  }
  return false;
}

std::size_t ClusterHealth::alive_replicas(std::size_t shard) const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < replicas(shard); ++r) {
    if (healthy(shard, r)) ++n;
  }
  return n;
}

std::size_t ClusterHealth::alive() const {
  std::size_t n = 0;
  for (std::size_t b = 0; b < num_shards(); ++b) {
    if (shard_alive(b)) ++n;
  }
  return n;
}

std::size_t ClusterHealth::replicas_alive() const {
  std::size_t n = 0;
  for (const Rep& r : flags_) {
    if (r.up.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void ClusterHealth::add_load(std::size_t shard, std::size_t replica,
                             std::int64_t delta) {
  flags_[index(shard, replica)].load.fetch_add(delta,
                                               std::memory_order_relaxed);
}

std::uint64_t ClusterHealth::load(std::size_t shard,
                                  std::size_t replica) const {
  const std::int64_t v =
      flags_[index(shard, replica)].load.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

// ---- HedgePolicy -------------------------------------------------------

HedgePolicy::HedgePolicy(std::size_t num_shards)
    : HedgePolicy(num_shards, Config{}) {}

HedgePolicy::HedgePolicy(std::size_t num_shards, Config config)
    : config_(config) {
  shards_.reserve(num_shards);
  for (std::size_t b = 0; b < num_shards; ++b) {
    shards_.push_back(std::make_unique<PerShard>());
    shards_.back()->next_refresh.store(config_.min_samples,
                                       std::memory_order_relaxed);
  }
}

void HedgePolicy::record(std::size_t shard, double rtt_us) {
  shards_[shard]->rtt.record(rtt_us);
}

double HedgePolicy::hedge_delay_us(std::size_t shard) const {
  PerShard& s = *shards_[shard];
  const std::uint64_t count = s.rtt.count();
  if (count >= config_.min_samples) {
    // Lazy refresh: the first caller to cross the refresh mark recomputes
    // the quantile from the merged histogram; everyone else reads the
    // cached value (quantile() walks 1856 buckets — too hot per lookup).
    std::uint64_t next = s.next_refresh.load(std::memory_order_acquire);
    if (count >= next &&
        s.next_refresh.compare_exchange_strong(next,
                                               count + config_.refresh_every,
                                               std::memory_order_acq_rel)) {
      const double q =
          s.rtt.quantile(config_.quantile) * config_.multiplier;
      s.cached_delay_us.store(
          std::clamp(q, config_.min_delay_us, config_.max_delay_us),
          std::memory_order_release);
    }
    const double cached = s.cached_delay_us.load(std::memory_order_acquire);
    if (cached > 0.0) return cached;
  }
  return std::clamp(config_.default_delay_us, config_.min_delay_us,
                    config_.max_delay_us);
}

obs::HistogramSnapshot HedgePolicy::shard_snapshot(std::size_t shard) const {
  return shards_[shard]->rtt.snapshot();
}

std::uint64_t HedgePolicy::samples(std::size_t shard) const {
  return shards_[shard]->rtt.count();
}

// ---- ClusterClient -----------------------------------------------------

ClusterClient::ClusterClient(ClusterConfig config,
                             std::shared_ptr<ClusterHealth> health,
                             std::shared_ptr<HedgePolicy> hedge,
                             std::shared_ptr<ClusterCounters> counters)
    : config_(std::move(config)),
      health_(std::move(health)),
      hedge_(std::move(hedge)),
      counters_(std::move(counters)),
      conns_(config_.map.num_shards()),
      jitter_state_(std::random_device{}()),
      last_shard_ok_(config_.map.num_shards(), 1) {
  ANCHOR_CHECK_MSG(config_.map.num_shards() > 0,
                   "ClusterClient needs a non-empty ShardMap");
  for (std::size_t b = 0; b < config_.map.num_shards(); ++b) {
    conns_[b].resize(config_.map.shard(b).num_replicas());
  }
}

net::TcpStream* ClusterClient::stream(std::size_t shard,
                                      std::size_t replica) {
  ReplicaConn& c = conns_[shard][replica];
  if (!c.stream) {
    const Endpoint& ep = config_.map.shard(shard).replica(replica);
    try {
      c.stream.emplace(net::TcpStream::connect(ep.host, ep.port));
      c.stream->set_io_timeout(config_.io_timeout_ms);
      c.owed_frames = 0;  // a fresh connection owes nothing
    } catch (const net::NetError&) {
      c.stream.reset();
      return nullptr;
    }
  }
  return &*c.stream;
}

void ClusterClient::drop(std::size_t shard, std::size_t replica) {
  conns_[shard][replica].stream.reset();
  conns_[shard][replica].owed_frames = 0;
}

bool ClusterClient::replica_up(std::size_t shard,
                               std::size_t replica) const {
  return !health_ || health_->healthy(shard, replica);
}

void ClusterClient::mark_replica(std::size_t shard, std::size_t replica,
                                 bool up) {
  if (health_) health_->mark(shard, replica, up);
}

std::size_t ClusterClient::choose_replica(std::size_t shard,
                                          std::size_t exclude) {
  const std::size_t n = config_.map.shard(shard).num_replicas();
  // Rotating start so pooled clients with equal loads do not all pile on
  // replica 0; least in-flight load wins, a connection owing hedge-loser
  // frames loses ties (using it means draining or reconnecting first).
  const std::size_t start = rr_++ % n;
  std::size_t best = kNone;
  std::uint64_t best_load = 0;
  bool best_owed = false;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = (start + k) % n;
    if (r == exclude || !replica_up(shard, r)) continue;
    const std::uint64_t load = health_ ? health_->load(shard, r) : 0;
    const bool owed = conns_[shard][r].owed_frames > 0;
    if (best == kNone || (best_owed && !owed) ||
        (owed == best_owed && load < best_load)) {
      best = r;
      best_load = load;
      best_owed = owed;
    }
  }
  return best;
}

bool ClusterClient::settle_owed(std::size_t shard, std::size_t replica,
                                int budget_ms) {
  ReplicaConn& c = conns_[shard][replica];
  if (c.owed_frames == 0) return true;
  if (!c.stream) {
    c.owed_frames = 0;
    return true;
  }
  try {
    while (c.owed_frames > 0) {
      if (!c.stream->wait_readable(budget_ms)) {
        drop(shard, replica);  // reconnect is cheaper than waiting
        return false;
      }
      net::MsgType type{};
      std::vector<std::uint8_t> payload;
      if (!net::read_frame(*c.stream, &type, &payload)) {
        drop(shard, replica);
        return false;
      }
      --c.owed_frames;
    }
    return true;
  } catch (const std::exception&) {
    drop(shard, replica);
    return false;
  }
}

void ClusterClient::drain_owed_nonblocking() {
  for (std::size_t b = 0; b < conns_.size(); ++b) {
    for (std::size_t r = 0; r < conns_[b].size(); ++r) {
      if (conns_[b][r].owed_frames > 0) settle_owed(b, r, 0);
    }
  }
}

bool ClusterClient::send_plan(std::size_t shard, std::size_t replica,
                              const Plan& plan) {
  // A hedge loser from an earlier lookup still owes replies on this
  // connection; they must be consumed (or the stream replaced) before a
  // new sub-request, or reply frames would misalign with requests.
  settle_owed(shard, replica, /*budget_ms=*/50);
  net::TcpStream* s = stream(shard, replica);
  if (s == nullptr) return false;
  try {
    // A sampled lookup stamps a child context (same trace, fresh span id)
    // on every backend frame, so the backend's spans join this trace.
    if (!plan.local_ids.empty()) {
      net::WireWriter body;
      body.reserve(4 + plan.local_ids.size() * 8);
      body.u32(static_cast<std::uint32_t>(plan.local_ids.size()));
      for (const std::uint64_t id : plan.local_ids) body.u64(id);
      if (trace_.sampled()) {
        net::write_frame(*s, net::MsgType::kLookupIds, body, trace_.child());
      } else {
        net::write_frame(*s, net::MsgType::kLookupIds, body);
      }
    }
    if (!plan.words.empty()) {
      std::size_t bytes = 4;
      for (const std::string& w : plan.words) bytes += 4 + w.size();
      net::WireWriter body;
      body.reserve(bytes);
      body.u32(static_cast<std::uint32_t>(plan.words.size()));
      for (const std::string& w : plan.words) body.str(w);
      if (trace_.sampled()) {
        net::write_frame(*s, net::MsgType::kLookupWords, body,
                         trace_.child());
      } else {
        net::write_frame(*s, net::MsgType::kLookupWords, body);
      }
    }
    if (plan.topk) {
      net::WireWriter body;
      net::encode_topk_request(*plan.topk, &body);
      if (trace_.sampled()) {
        net::write_frame(*s, net::MsgType::kTopK, body, trace_.child());
      } else {
        net::write_frame(*s, net::MsgType::kTopK, body);
      }
    }
    return true;
  } catch (const net::NetError&) {
    drop(shard, replica);
    return false;
  }
}

bool ClusterClient::read_plan(std::size_t shard, std::size_t replica,
                              const Plan& plan,
                              serve::LookupResult* ids_reply,
                              serve::LookupResult* words_reply,
                              ann::TopKResult* topk_reply) {
  ReplicaConn& c = conns_[shard][replica];
  if (!c.stream) return false;
  net::TcpStream* s = &*c.stream;
  const auto read_one = [&](net::MsgType expected,
                            serve::LookupResult* out) -> bool {
    net::MsgType type{};
    std::vector<std::uint8_t> payload;
    if (!net::read_frame(*s, &type, &payload)) return false;  // backend EOF
    if (type != expected) return false;  // kError or a protocol mismatch
    net::WireReader reader(payload);
    *out = net::decode_lookup_result(&reader);
    reader.expect_done();
    return true;
  };
  try {
    if (!plan.local_ids.empty() &&
        !read_one(net::MsgType::kLookupIdsReply, ids_reply)) {
      drop(shard, replica);
      return false;
    }
    if (!plan.words.empty() &&
        !read_one(net::MsgType::kLookupWordsReply, words_reply)) {
      drop(shard, replica);
      return false;
    }
    if (plan.topk) {
      // A backend with TOPK disabled (or predating it) answers kError —
      // a per-shard failure (→ partial result), not a protocol breach,
      // but the connection is healthy, so no drop on that path alone.
      net::MsgType type{};
      std::vector<std::uint8_t> payload;
      if (!net::read_frame(*s, &type, &payload) ||
          type != net::MsgType::kTopKReply || topk_reply == nullptr) {
        drop(shard, replica);
        return false;
      }
      net::WireReader reader(payload);
      *topk_reply = net::decode_topk_result(&reader);
      reader.expect_done();
    }
    return true;
  } catch (const net::NetError&) {
    drop(shard, replica);
    return false;
  } catch (const net::WireError&) {
    drop(shard, replica);
    return false;
  }
}

void ClusterClient::backoff_sleep(int attempt) {
  // First failover is immediate (the replacement replica is presumed
  // healthy); later attempts back off exponentially with jitter so pooled
  // clients hammering one struggling shard spread out in time.
  if (attempt <= 1 || config_.backoff_base_ms <= 0) return;
  const int shift = std::min(attempt - 2, 20);
  const std::int64_t base =
      std::min<std::int64_t>(config_.backoff_max_ms,
                             std::int64_t{config_.backoff_base_ms} << shift);
  // splitmix64 step for the jitter draw — cheap, seeded per client.
  jitter_state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = jitter_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double jitter = 0.5 + 0.5 * (static_cast<double>(z >> 11) /
                                     9007199254740992.0);  // [0.5, 1.0)
  const auto sleep_us = static_cast<std::int64_t>(
      static_cast<double>(base) * 1000.0 * jitter);
  if (sleep_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
}

void ClusterClient::scatter_shard(std::size_t shard, const Plan& plan,
                                  ShardState* st) {
  // The attempt budget bounds requests actually SENT (each of which costs
  // a read, possibly a full io timeout). An instant connect/send failure
  // — the common shape when a replica was just killed — does NOT consume
  // it: those failovers are already bounded by the replica count, because
  // every failure marks its replica down and choose_replica skips downed
  // ones. Burning budget on refused connects would leave a shard with one
  // flaky survivor too few read attempts to ride out a transient.
  std::size_t first = kNone;
  std::size_t r = choose_replica(shard, kNone);
  while (r != kNone) {
    st->send_ns = obs::Tracer::now_ns();
    if (send_plan(shard, r, plan)) {
      ++st->attempts;
      st->sent = true;
      st->primary = r;
      if (health_) health_->add_load(shard, r, +1);
      if (counters_ && first != kNone) {
        counters_->failovers.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    // Connect/send failures are instant (no backoff): fail over to the
    // next live replica right away.
    mark_replica(shard, r, false);
    if (counters_) counters_->retries.fetch_add(1, std::memory_order_relaxed);
    if (first == kNone) first = r;
    r = choose_replica(shard, kNone);
  }
}

bool ClusterClient::gather_shard(std::size_t shard, const Plan& plan,
                                 ShardState* st,
                                 serve::LookupResult* ids_reply,
                                 serve::LookupResult* words_reply,
                                 ann::TopKResult* topk_reply) {
  if (!st->sent) return false;
  const std::size_t n_replicas = config_.map.shard(shard).num_replicas();
  const int budget = config_.retry ? std::max(config_.max_attempts, 1) : 1;
  const std::size_t original = st->primary;

  const auto release_load = [&](std::size_t r) {
    if (health_ && r != kNone) health_->add_load(shard, r, -1);
  };

  while (true) {
    // Hedge window: give the primary the shard's p99-derived delay to
    // start answering; when it stays silent, mirror the plan to a second
    // live replica and race them. At most one hedge per shard per lookup.
    if (config_.hedge && hedge_ && n_replicas > 1 && st->hedged == kNone) {
      const double delay_us = hedge_->hedge_delay_us(shard);
      int delay_ms =
          static_cast<int>(std::max(1.0, std::ceil(delay_us / 1000.0)));
      if (config_.io_timeout_ms > 0) {
        delay_ms = std::min(delay_ms, config_.io_timeout_ms);
      }
      net::TcpStream* ps = conns_[shard][st->primary].stream
                               ? &*conns_[shard][st->primary].stream
                               : nullptr;
      if (ps != nullptr && !ps->wait_readable(delay_ms)) {
        const std::size_t h = choose_replica(shard, st->primary);
        if (h != kNone && send_plan(shard, h, plan)) {
          st->hedged = h;
          if (health_) health_->add_load(shard, h, +1);
          if (counters_) {
            counters_->hedges.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }

    // Read the winner. Un-hedged: one blocking read (io_timeout-bounded).
    // Hedged: poll both connections; the first to turn readable gets the
    // blocking read, and a failed racer does not doom the attempt while
    // the other is still live.
    std::size_t winner = kNone;
    if (st->hedged == kNone) {
      if (read_plan(shard, st->primary, plan, ids_reply, words_reply,
                    topk_reply)) {
        winner = st->primary;
      } else {
        mark_replica(shard, st->primary, false);
      }
    } else {
      std::array<std::size_t, 2> racers = {st->primary, st->hedged};
      std::array<bool, 2> dead = {false, false};
      const std::uint64_t t0 = obs::Tracer::now_ns();
      const double limit_ns = config_.io_timeout_ms > 0
                                  ? config_.io_timeout_ms * 1e6
                                  : 0.0;
      while (winner == kNone && (!dead[0] || !dead[1])) {
        for (int i = 0; i < 2 && winner == kNone; ++i) {
          if (dead[i]) continue;
          const std::size_t r = racers[i];
          net::TcpStream* s =
              conns_[shard][r].stream ? &*conns_[shard][r].stream : nullptr;
          if (s == nullptr) {
            dead[i] = true;
            mark_replica(shard, r, false);
            continue;
          }
          // Sole survivor: no need to poll, the io timeout bounds it.
          if (dead[1 - i] || s->wait_readable(1)) {
            if (read_plan(shard, r, plan, ids_reply, words_reply,
                          topk_reply)) {
              winner = r;
            } else {
              dead[i] = true;
              mark_replica(shard, r, false);
            }
          }
        }
        if (limit_ns > 0.0 &&
            static_cast<double>(obs::Tracer::now_ns() - t0) > limit_ns) {
          // Both replicas accepted the plan and neither started answering
          // within the io timeout — treat both as hung.
          for (int i = 0; i < 2; ++i) {
            if (!dead[i]) {
              drop(shard, racers[i]);
              mark_replica(shard, racers[i], false);
              dead[i] = true;
            }
          }
        }
      }
    }

    if (winner != kNone) {
      // Loser of a race owes its (in-order) replies on its connection;
      // count them so a later lookup drains before reusing the stream.
      if (st->hedged != kNone) {
        const std::size_t loser =
            winner == st->primary ? st->hedged : st->primary;
        if (conns_[shard][loser].stream) {
          conns_[shard][loser].owed_frames += plan.frames();
        }
        if (counters_ && winner == st->hedged) {
          counters_->hedge_wins.fetch_add(1, std::memory_order_relaxed);
        }
        release_load(st->hedged);
      }
      release_load(st->primary);
      mark_replica(shard, winner, true);  // it answered; no probe needed
      if (hedge_) {
        hedge_->record(shard,
                       static_cast<double>(obs::Tracer::now_ns() -
                                           st->send_ns) /
                           1000.0);
      }
      st->primary = winner;
      return true;
    }

    // Every replica this attempt engaged is dead; fail over with backoff
    // until the attempt budget or the live replica set runs out.
    release_load(st->primary);
    release_load(st->hedged);
    st->hedged = kNone;
    bool resent = false;
    while (st->attempts < budget) {
      std::size_t next = choose_replica(shard, kNone);
      if (next == kNone) {
        // Every replica is marked down, but the shard may still be
        // servable: a transient fault can mark the sole survivor down in
        // the same breath that the dead replica fails. Rotate the
        // remaining budget across ALL replicas — pinning to one endpoint
        // (say, the original) would burn the budget on connect-refused
        // while a live-but-marked-down replica sits untried. The shard
        // degrades only once the budget runs out with nobody answering.
        next = (original + static_cast<std::size_t>(st->attempts)) %
               n_replicas;
      }
      if (counters_) {
        counters_->retries.fetch_add(1, std::memory_order_relaxed);
        if (next != original) {
          counters_->failovers.fetch_add(1, std::memory_order_relaxed);
        }
      }
      backoff_sleep(st->attempts);
      ++st->attempts;
      st->send_ns = obs::Tracer::now_ns();
      if (send_plan(shard, next, plan)) {
        st->primary = next;
        if (health_) health_->add_load(shard, next, +1);
        resent = true;
        break;
      }
      mark_replica(shard, next, false);
    }
    if (!resent) return false;
  }
}

serve::LookupResult ClusterClient::execute(const std::vector<Plan>& plans,
                                           std::size_t n_slots,
                                           std::vector<std::uint8_t> flags) {
  const std::uint64_t windowed_t0 =
      config_.windowed != nullptr ? obs::Tracer::now_ns() : 0;
  const std::size_t n_shards = config_.map.num_shards();
  std::fill(last_shard_ok_.begin(), last_shard_ok_.end(), 1);

  // An all-OOV batch involves no shard, but its reply must still carry
  // the store's dim and live version (the single-process shape — a
  // consumer sizing buffers as n×dim must see the same numbers through
  // the router). Probe shard 0 for them on EVERY such batch — not just
  // cold start — so the reported version cannot go stale across a
  // rollout that happened while this client saw only OOV traffic; the
  // cached hint is the fallback when the probe fails.
  bool any_involved = false;
  for (const Plan& plan : plans) any_involved |= plan.involved();
  if (!any_involved && n_slots > 0 && config_.map.total_rows() > 0 &&
      (!health_ || health_->shard_alive(0))) {
    Plan probe;
    probe.local_ids.push_back(0);
    probe.id_slots.push_back(0);
    ShardState pst;
    serve::LookupResult ids_reply, words_reply;
    scatter_shard(0, probe, &pst);
    if (gather_shard(0, probe, &pst, &ids_reply, &words_reply) &&
        ids_reply.size() == 1) {
      hint_dim_ = ids_reply.dim;
      hint_version_ = ids_reply.version;
    }
  }

  // Phase 1 — fan out: every involved shard's plan goes to its chosen
  // (least-loaded live) replica before any reply is read, so shard
  // execution overlaps. A shard whose EVERY replica is marked down is
  // skipped outright: degrading instantly beats re-paying a timeout.
  const bool traced = trace_.sampled();
  const std::uint64_t scatter_t0 = traced ? obs::Tracer::now_ns() : 0;
  std::vector<ShardState> states(n_shards);
  for (std::size_t b = 0; b < n_shards; ++b) {
    if (!plans[b].involved()) continue;
    if (health_ && !health_->shard_alive(b)) {
      last_shard_ok_[b] = 0;
      continue;
    }
    scatter_shard(b, plans[b], &states[b]);
    if (!states[b].sent) last_shard_ok_[b] = 0;
  }

  // Phase 2 — gather, in shard order (per-connection replies are ordered
  // anyway). gather_shard hedges the straggler replica, fails over with
  // bounded backoff, and only reports failure once every replica of the
  // shard is exhausted — which is when its rows degrade.
  std::vector<serve::LookupResult> ids_replies(n_shards);
  std::vector<serve::LookupResult> words_replies(n_shards);
  std::vector<std::uint8_t> ok(n_shards, 0);
  for (std::size_t b = 0; b < n_shards; ++b) {
    if (!states[b].sent) continue;
    if (gather_shard(b, plans[b], &states[b], &ids_replies[b],
                     &words_replies[b])) {
      ok[b] = 1;
      if (traced) {
        obs::Tracer::instance().record(trace_, obs::TraceStage::kShardRtt,
                                       states[b].send_ns,
                                       obs::Tracer::now_ns(),
                                       static_cast<std::uint32_t>(b));
      }
      continue;
    }
    last_shard_ok_[b] = 0;
  }
  const std::uint64_t merge_t0 = traced ? obs::Tracer::now_ns() : 0;
  if (traced) {
    obs::Tracer::instance().record(trace_, obs::TraceStage::kRouterScatter,
                                   scatter_t0, merge_t0);
  }

  // Merge. dim comes from the first answering shard whose reply actually
  // matches its sub-request (a stale-topology shard answering the wrong
  // row count must not get to define the output shape and starve the
  // correct shards); the map's row-range total is the authority on
  // vocabulary, so every slot already has a home — scatter fills the
  // served ones and the flags vector already carries kLookupFlagOov for
  // unroutable keys.
  serve::LookupResult out;
  out.dim = 0;
  const auto matching_subs = [&](std::size_t b) {
    return std::array<std::pair<const serve::LookupResult*, std::size_t>, 2>{
        {{&ids_replies[b], plans[b].local_ids.size()},
         {&words_replies[b], plans[b].words.size()}}};
  };
  // Pass 1: row-weighted majority dim among size-matching replies (ties →
  // smaller dim, arbitrarily but deterministically).
  std::map<std::size_t, std::uint64_t> dim_rows;
  for (std::size_t b = 0; b < n_shards; ++b) {
    if (!ok[b]) continue;
    for (const auto& [reply, expected] : matching_subs(b)) {
      if (expected > 0 && reply->size() == expected) {
        dim_rows[reply->dim] += expected;
      }
    }
  }
  std::uint64_t dim_best = 0;
  for (const auto& [dim, rows] : dim_rows) {
    if (rows > dim_best) {
      dim_best = rows;
      out.dim = dim;
    }
  }
  // Pass 2: version majority, counting only replies of the chosen dim.
  std::map<std::string, std::uint64_t> version_rows;
  for (std::size_t b = 0; b < n_shards; ++b) {
    if (!ok[b]) continue;
    for (const auto& [reply, expected] : matching_subs(b)) {
      if (expected > 0 && reply->size() == expected &&
          reply->dim == out.dim) {
        version_rows[reply->version] += expected;
      }
    }
  }
  // Refuse (don't allocate) a merged result that could never be encoded
  // within the frame cap — the same pre-flight the backend server runs,
  // done here once dim is known. Requests whose shards ALL failed skip
  // this (dim 0): the flags-only degraded reply is small by construction.
  if (out.dim > 0 &&
      n_slots > (net::kMaxFrameBytes - 1024) /
                    (out.dim * sizeof(float) + 1)) {
    throw std::runtime_error(
        "batch too large: reply would exceed the frame cap");
  }
  out.vectors.assign(n_slots * out.dim, 0.0f);
  out.oov = std::move(flags);
  out.oov.resize(n_slots, 0);

  const auto scatter = [&](const serve::LookupResult& reply,
                           const std::vector<std::uint32_t>& slots,
                           bool expected_rows_match) {
    // A shard answering with the wrong row count or dim disagrees with the
    // map (a topology change mid-flight); treat its rows as degraded
    // rather than scattering garbage.
    if (!expected_rows_match || reply.dim != out.dim) {
      for (const std::uint32_t slot : slots) {
        out.oov[slot] = serve::kLookupFlagDegraded;
      }
      return;
    }
    for (std::size_t r = 0; r < reply.size(); ++r) {
      std::memcpy(out.vectors.data() + slots[r] * out.dim, reply.row(r),
                  out.dim * sizeof(float));
      out.oov[slots[r]] = reply.oov[r];
    }
  };
  bool degraded = false;
  for (std::size_t b = 0; b < n_shards; ++b) {
    const Plan& plan = plans[b];
    if (!plan.involved()) continue;
    if (!ok[b]) {
      for (const std::uint32_t slot : plan.id_slots) {
        out.oov[slot] = serve::kLookupFlagDegraded;
      }
      for (const std::uint32_t slot : plan.word_slots) {
        out.oov[slot] = serve::kLookupFlagDegraded;
      }
      degraded = true;
      continue;
    }
    if (!plan.local_ids.empty()) {
      scatter(ids_replies[b], plan.id_slots,
              ids_replies[b].size() == plan.local_ids.size());
    }
    if (!plan.words.empty()) {
      scatter(words_replies[b], plan.word_slots,
              words_replies[b].size() == plan.words.size());
    }
  }
  for (std::size_t i = 0; i < out.oov.size() && !degraded; ++i) {
    degraded = out.oov[i] == serve::kLookupFlagDegraded;
  }
  last_degraded_ = degraded;

  // Version = row-weighted majority of the answering shards (a healthy,
  // rollout-coordinated cluster is unanimous; during a rolling promote the
  // majority version is the honest summary). Ties break lexicographically.
  std::uint64_t best = 0;
  for (const auto& [version, rows] : version_rows) {
    if (rows > best) {
      best = rows;
      out.version = version;
    }
  }
  // Fall back to (then refresh) the hint so all-OOV and all-degraded
  // replies keep a stable shape across requests. Same frame-cap
  // pre-flight as above — the hint dim can turn a previously flags-only
  // reply into a full n×dim one.
  if (out.dim == 0) out.dim = hint_dim_;
  if (out.version.empty()) out.version = hint_version_;
  if (out.dim > 0 && out.vectors.empty() && n_slots > 0) {
    if (n_slots > (net::kMaxFrameBytes - 1024) /
                      (out.dim * sizeof(float) + 1)) {
      throw std::runtime_error(
          "batch too large: reply would exceed the frame cap");
    }
    out.vectors.assign(n_slots * out.dim, 0.0f);
  }
  hint_dim_ = out.dim;
  if (!out.version.empty()) hint_version_ = out.version;
  if (traced) {
    obs::Tracer::instance().record(trace_, obs::TraceStage::kRouterMerge,
                                   merge_t0, obs::Tracer::now_ns());
  }
  trace_ = obs::TraceContext{};  // consumed: one set_trace per lookup
  // Hedge losers whose replies have arrived by now get their connections
  // squared away for free; stragglers stay owed and settle on next use.
  drain_owed_nonblocking();
  if (config_.windowed != nullptr) {
    // One windowed record per cluster lookup: full scatter-gather wall
    // latency; degraded partial results burn error budget.
    config_.windowed->record(
        static_cast<double>(obs::Tracer::now_ns() - windowed_t0) / 1000.0,
        degraded);
  }
  return out;
}

serve::LookupResult ClusterClient::lookup_ids(
    const std::vector<std::size_t>& ids) {
  const std::uint64_t total = config_.map.total_rows();
  std::vector<Plan> plans(config_.map.num_shards());
  std::vector<std::uint8_t> flags(ids.size(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t id = ids[i];
    if (id >= total) {
      flags[i] = serve::kLookupFlagOov;  // same contract as one process
      continue;
    }
    const std::size_t b = config_.map.shard_of_id(id);
    plans[b].local_ids.push_back(id - config_.map.shard(b).row_begin);
    plans[b].id_slots.push_back(static_cast<std::uint32_t>(i));
    // Router-side key-load attribution, in GLOBAL id space (the backends
    // record the same key in their local space).
    if (config_.load != nullptr) config_.load->record(id);
  }
  return execute(plans, ids.size(), std::move(flags));
}

serve::LookupResult ClusterClient::lookup_words(
    const std::vector<std::string>& words) {
  const std::uint64_t total = config_.map.total_rows();
  std::vector<Plan> plans(config_.map.num_shards());
  std::vector<std::uint8_t> flags(words.size(), 0);
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::size_t id = 0;
    if (serve::parse_synthetic_word_id(words[i], &id) && id < total) {
      // In-vocabulary: route by row range and ship the LOCAL id — the
      // backend's own "w<local>" naming must never be consulted, it
      // numbers a different (sliced) space.
      const std::size_t b = config_.map.shard_of_id(id);
      plans[b].local_ids.push_back(id - config_.map.shard(b).row_begin);
      plans[b].id_slots.push_back(static_cast<std::uint32_t>(i));
      if (config_.load != nullptr) config_.load->record(id);
    } else {
      // OOV: one deterministic home shard synthesizes it.
      const std::size_t b = config_.map.shard_of_word(words[i]);
      plans[b].words.push_back(words[i]);
      plans[b].word_slots.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return execute(plans, words.size(), std::move(flags));
}

ann::TopKResult ClusterClient::topk_vector(const std::vector<float>& query,
                                           std::size_t k, std::size_t nprobe,
                                           std::size_t rerank) {
  const std::size_t n_shards = config_.map.num_shards();
  std::fill(last_shard_ok_.begin(), last_shard_ok_.end(), 1);
  // Explicit knobs on every sub-request: the merge below truncates the
  // pooled candidates at `rerank`, so backends and router must agree on
  // the depth — a backend falling back to a *different* local default
  // would break the single-process-equality contract.
  if (nprobe == 0) nprobe = ann::kDefaultNprobe;
  if (rerank == 0) rerank = ann::kDefaultRerank;

  net::TopKRequest sub;
  sub.k = static_cast<std::uint32_t>(k);
  sub.nprobe = static_cast<std::uint32_t>(nprobe);
  sub.rerank = static_cast<std::uint32_t>(rerank);
  sub.mode = net::kTopKModeCandidates;
  sub.kind = net::kTopKKindVector;
  sub.vector = query;

  // Scatter the broadcast through the same plan machinery as lookups
  // (least-loaded replica, hedging, bounded failover).
  const bool traced = trace_.sampled();
  const std::uint64_t scatter_t0 = traced ? obs::Tracer::now_ns() : 0;
  std::vector<Plan> plans(n_shards);
  std::vector<ShardState> states(n_shards);
  for (std::size_t b = 0; b < n_shards; ++b) {
    plans[b].topk = sub;
    if (health_ && !health_->shard_alive(b)) {
      last_shard_ok_[b] = 0;
      continue;
    }
    scatter_shard(b, plans[b], &states[b]);
    if (!states[b].sent) last_shard_ok_[b] = 0;
  }
  std::vector<ann::TopKResult> replies(n_shards);
  std::vector<std::uint8_t> ok(n_shards, 0);
  serve::LookupResult unused_ids, unused_words;
  for (std::size_t b = 0; b < n_shards; ++b) {
    if (!states[b].sent) continue;
    if (gather_shard(b, plans[b], &states[b], &unused_ids, &unused_words,
                     &replies[b])) {
      ok[b] = 1;
      if (traced) {
        obs::Tracer::instance().record(trace_, obs::TraceStage::kShardRtt,
                                       states[b].send_ns,
                                       obs::Tracer::now_ns(),
                                       static_cast<std::uint32_t>(b));
      }
      continue;
    }
    last_shard_ok_[b] = 0;
  }
  const std::uint64_t merge_t0 = traced ? obs::Tracer::now_ns() : 0;
  if (traced) {
    obs::Tracer::instance().record(trace_, obs::TraceStage::kRouterScatter,
                                   scatter_t0, merge_t0);
  }

  // Merge. Each shard's hits arrive sorted by (adc, local id) with LOCAL
  // ids; translate to global ids via the shard's row_begin (contiguous
  // ranges keep the (adc, id) order), pool, and re-select:
  //   1. global top-`rerank` by (adc, global id) — heap selection — which
  //      reconstructs exactly the single-process candidate shortlist,
  //      because each shard's top-`rerank` is a superset of that shard's
  //      members of the global top-`rerank`;
  //   2. top-`k` of those by (exact, global id), the final answer.
  ann::TopKResult out;
  bool partial = false;
  struct Cand {
    float adc;
    std::uint64_t gid;
    float exact;
    bool operator<(const Cand& o) const {
      return adc != o.adc ? adc < o.adc : gid < o.gid;
    }
  };
  std::vector<Cand> pool;
  for (std::size_t b = 0; b < n_shards; ++b) {
    if (!ok[b]) {
      partial = true;
      continue;
    }
    const std::uint64_t row_begin = config_.map.shard(b).row_begin;
    for (const ann::TopKHit& h : replies[b].hits) {
      pool.push_back(Cand{h.adc, h.id + row_begin, h.exact});
    }
    out.cells_probed += replies[b].cells_probed;
    if (out.version.empty()) {
      out.version = replies[b].version;
    } else if (out.version != replies[b].version) {
      out.version = "mixed";  // rolling promote in flight; honest summary
    }
  }
  const std::size_t keep = std::min(rerank, pool.size());
  std::partial_sort(pool.begin(), pool.begin() + keep, pool.end());
  pool.resize(keep);
  out.shortlist = static_cast<std::uint32_t>(keep);
  std::sort(pool.begin(), pool.end(), [](const Cand& a, const Cand& b) {
    return a.exact != b.exact ? a.exact < b.exact : a.gid < b.gid;
  });
  if (pool.size() > k) pool.resize(k);
  out.hits.reserve(pool.size());
  for (const Cand& c : pool) {
    out.hits.push_back(ann::TopKHit{c.gid, c.exact, c.adc});
  }
  if (partial) out.flags |= ann::kTopKFlagPartial;
  last_degraded_ = partial;
  if (traced) {
    obs::Tracer::instance().record(trace_, obs::TraceStage::kRouterMerge,
                                   merge_t0, obs::Tracer::now_ns());
  }
  trace_ = obs::TraceContext{};  // consumed: one set_trace per request
  drain_owed_nonblocking();
  return out;
}

ann::TopKResult ClusterClient::topk_id(std::uint64_t id, std::size_t k,
                                       std::size_t nprobe,
                                       std::size_t rerank) {
  // Resolve the query row with a normal cluster lookup first (the trace,
  // if any, is saved for the search itself — the lookup would consume it).
  const obs::TraceContext saved = trace_;
  trace_ = obs::TraceContext{};
  const serve::LookupResult row =
      lookup_ids({static_cast<std::size_t>(id)});
  if (row.size() != 1 || row.dim == 0 || row.oov[0] != 0) {
    trace_ = obs::TraceContext{};
    throw std::runtime_error("cannot resolve topk query id " +
                             std::to_string(id));
  }
  trace_ = saved;
  return topk_vector(std::vector<float>(row.row(0), row.row(0) + row.dim), k,
                     nprobe, rerank);
}

ann::TopKResult ClusterClient::topk_word(const std::string& word,
                                         std::size_t k, std::size_t nprobe,
                                         std::size_t rerank) {
  const obs::TraceContext saved = trace_;
  trace_ = obs::TraceContext{};
  const serve::LookupResult row = lookup_words({word});
  // OOV is fine (the home shard synthesized a deterministic vector —
  // neighbors of a novel word are exactly the interesting query); only a
  // degraded row has no usable vector at all.
  if (row.size() != 1 || row.dim == 0 ||
      (row.oov[0] & serve::kLookupFlagDegraded) != 0) {
    trace_ = obs::TraceContext{};
    throw std::runtime_error("cannot resolve topk query word '" + word +
                             "'");
  }
  trace_ = saved;
  return topk_vector(std::vector<float>(row.row(0), row.row(0) + row.dim), k,
                     nprobe, rerank);
}

ClusterStatsReport ClusterClient::stats() {
  ClusterStatsReport report;
  const std::size_t n_shards = config_.map.num_shards();
  report.shard_versions.assign(n_shards, "");
  report.shard_encodings.assign(n_shards, "");
  const auto fold = [](serve::StatsSnapshot* acc,
                       const serve::StatsSnapshot& x) {
    acc->lookups += x.lookups;
    acc->batches += x.batches;
    acc->oov_fallbacks += x.oov_fallbacks;
    acc->qps += x.qps;
    acc->elapsed_seconds = std::max(acc->elapsed_seconds, x.elapsed_seconds);
    // Latency distributions MERGE (exact integer bucket adds); the
    // fleet percentiles are re-derived from the merged histogram
    // below. A max over per-shard percentile scalars — the pre-v3
    // behavior — is not a fleet percentile at all.
    acc->latency.merge(x.latency);
  };
  for (std::size_t b = 0; b < n_shards; ++b) {
    bool answered = false;
    // EVERY replica is serving traffic, so the fleet aggregate sums over
    // all of them, not one delegate per shard.
    for (std::size_t r = 0; r < config_.map.shard(b).num_replicas(); ++r) {
      if (!replica_up(b, r)) continue;
      settle_owed(b, r, /*budget_ms=*/50);
      net::TcpStream* s = stream(b, r);
      if (s == nullptr) continue;
      try {
        net::write_frame(*s, net::MsgType::kStats, net::WireWriter());
        net::MsgType type{};
        std::vector<std::uint8_t> payload;
        if (!net::read_frame(*s, &type, &payload) ||
            type != net::MsgType::kStatsReply) {
          drop(b, r);
          continue;
        }
        net::WireReader reader(payload);
        const net::ServerStatsReport one = net::decode_server_stats(&reader);
        reader.expect_done();
        if (!answered) {
          answered = true;
          ++report.shards_answering;
          report.shard_versions[b] = one.live_version;
          report.shard_encodings[b] = one.encoding;
        }
        fold(&report.aggregate.service, one.service);
        fold(&report.aggregate.batcher, one.batcher);
      } catch (const std::exception&) {
        drop(b, r);
      }
    }
  }
  // Unanimous version, or the literal "mixed" while shards disagree (a
  // rollout in flight) — stats is a monitoring surface, and "mixed" is
  // the honest summary; per-shard truth is in shard_versions.
  for (const std::string& v : report.shard_versions) {
    if (v.empty()) continue;
    if (report.aggregate.live_version.empty()) {
      report.aggregate.live_version = v;
    } else if (report.aggregate.live_version != v) {
      report.aggregate.live_version = "mixed";
      break;
    }
  }
  // Same contract for the row encoding: unanimous (the deployment norm —
  // shared clip/codebooks imply one encoding) or "mixed" mid-migration.
  for (const std::string& e : report.shard_encodings) {
    if (e.empty()) continue;
    if (report.aggregate.encoding.empty()) {
      report.aggregate.encoding = e;
    } else if (report.aggregate.encoding != e) {
      report.aggregate.encoding = "mixed";
      break;
    }
  }
  report.aggregate.service.refresh_percentiles();
  report.aggregate.batcher.refresh_percentiles();
  return report;
}

net::HeatReport ClusterClient::heat() {
  net::HeatReport fleet;
  const std::size_t n_shards = config_.map.num_shards();
  for (std::size_t b = 0; b < n_shards; ++b) {
    net::HeatReport shard_merge;
    bool answered = false;
    for (std::size_t r = 0; r < config_.map.shard(b).num_replicas(); ++r) {
      if (!replica_up(b, r)) continue;
      settle_owed(b, r, /*budget_ms=*/50);
      net::TcpStream* s = stream(b, r);
      if (s == nullptr) continue;
      try {
        net::write_frame(*s, net::MsgType::kHeat, net::WireWriter());
        net::MsgType type{};
        std::vector<std::uint8_t> payload;
        if (!net::read_frame(*s, &type, &payload) ||
            type != net::MsgType::kHeatReply) {
          // An old backend answers kError; either way an unexpected type
          // breaks the in-order reply alignment, so drop the connection
          // (same policy as stats) and move on without its data.
          drop(b, r);
          continue;
        }
        net::WireReader reader(payload);
        net::HeatReport one = net::decode_heat_report(&reader);
        reader.expect_done();
        // Replicas of one shard report the same LOCAL id space: merge
        // them first, lift once.
        if (!answered) {
          shard_merge = std::move(one);
          answered = true;
        } else {
          shard_merge.windowed.merge(one.windowed);
          shard_merge.sketch.merge(one.sketch);
          shard_merge.heat.merge(one.heat);
        }
      } catch (const std::exception&) {
        drop(b, r);
      }
    }
    if (!answered) continue;
    // Lift local keys/ranges into global id space. A uniform key shift
    // preserves the canonical (count desc, key asc) order, so no re-sort
    // is needed before the cross-shard merge re-sorts anyway.
    const std::uint64_t shift = config_.map.shard(b).row_begin;
    if (shift != 0) {
      shard_merge.heat.shift_rows(shift);
      for (obs::HeavyHitter& e : shard_merge.sketch.entries) e.key += shift;
    }
    fleet.windowed.merge(shard_merge.windowed);
    fleet.sketch.merge(shard_merge.sketch);
    fleet.heat.merge(shard_merge.heat);
  }
  return fleet;
}

void ClusterClient::shutdown_backends() {
  for (std::size_t b = 0; b < config_.map.num_shards(); ++b) {
    for (std::size_t r = 0; r < config_.map.shard(b).num_replicas(); ++r) {
      settle_owed(b, r, /*budget_ms=*/50);
      net::TcpStream* s = stream(b, r);
      if (s == nullptr) continue;
      try {
        net::write_frame(*s, net::MsgType::kShutdown, net::WireWriter());
        net::MsgType type{};
        std::vector<std::uint8_t> payload;
        net::read_frame(*s, &type, &payload);
      } catch (const std::exception&) {
      }
      drop(b, r);
    }
  }
}

bool ClusterClient::probe(const std::string& host, std::uint16_t port,
                          int timeout_ms) {
  try {
    net::TcpStream s = net::TcpStream::connect(host, port);
    s.set_io_timeout(timeout_ms);
    net::write_frame(s, net::MsgType::kPing, net::WireWriter());
    net::MsgType type{};
    std::vector<std::uint8_t> payload;
    return net::read_frame(s, &type, &payload) &&
           type == net::MsgType::kPong;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace anchor::cluster
