#include "net/client.hpp"

namespace anchor::net {

Client::Client(const std::string& host, std::uint16_t port,
               int rpc_timeout_ms)
    : stream_(TcpStream::connect(host, port)) {
  if (rpc_timeout_ms > 0) stream_.set_io_timeout(rpc_timeout_ms);
}

std::vector<std::uint8_t> Client::roundtrip(MsgType request,
                                            const WireWriter& body) {
  // Attach a trace context: a pinned one (set_next_trace, consumed here)
  // wins over the sampling draw.
  obs::TraceContext ctx = next_trace_;
  next_trace_ = obs::TraceContext{};
  if (!ctx.valid() && trace_sampling_ > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(sample_rng_) < trace_sampling_) ctx = obs::TraceContext::start();
  }
  last_trace_ = ctx;

  const std::uint64_t start_ns = obs::Tracer::now_ns();
  write_frame(stream_, request, body, ctx);
  MsgType type{};
  std::vector<std::uint8_t> payload;
  if (!read_frame(stream_, &type, &payload)) {
    throw NetError("server closed the connection");
  }
  if (ctx.sampled()) {
    const std::uint64_t end_ns = obs::Tracer::now_ns();
    obs::Tracer::instance().record(ctx, obs::TraceStage::kClientSend,
                                   start_ns, end_ns);
    obs::Tracer::instance().finish_request(ctx, start_ns, end_ns);
  }
  if (type == MsgType::kError) throw RpcError(decode<std::string>(payload));
  if (type != reply_type(request)) {
    throw WireError("unexpected reply type " +
                    std::to_string(static_cast<int>(type)));
  }
  return payload;
}

template <class Reply, class Request>
Reply Client::call(MsgType type, const Request& request) {
  WireWriter body;
  encode(request, &body);
  return decode<Reply>(roundtrip(type, body));
}

serve::LookupResult Client::lookup_ids(const std::vector<std::size_t>& ids) {
  return call<serve::LookupResult>(MsgType::kLookupIds,
                                   LookupIdsRequest{ids});
}

serve::LookupResult Client::lookup_words(
    const std::vector<std::string>& words) {
  return call<serve::LookupResult>(MsgType::kLookupWords,
                                   LookupWordsRequest{words});
}

serve::LookupResult Client::lookup_id(std::size_t id) {
  return lookup_ids({id});
}

ann::TopKResult Client::topk(const TopKRequest& req) {
  return call<ann::TopKResult>(MsgType::kTopK, req);
}

ann::TopKResult Client::topk_id(std::uint64_t id, std::size_t k,
                                std::size_t nprobe, std::size_t rerank) {
  TopKRequest req;
  req.kind = kTopKKindId;
  req.id = id;
  req.k = static_cast<std::uint32_t>(k);
  req.nprobe = static_cast<std::uint32_t>(nprobe);
  req.rerank = static_cast<std::uint32_t>(rerank);
  return topk(req);
}

ann::TopKResult Client::topk_word(const std::string& word, std::size_t k,
                                  std::size_t nprobe, std::size_t rerank) {
  TopKRequest req;
  req.kind = kTopKKindWord;
  req.word = word;
  req.k = static_cast<std::uint32_t>(k);
  req.nprobe = static_cast<std::uint32_t>(nprobe);
  req.rerank = static_cast<std::uint32_t>(rerank);
  return topk(req);
}

ann::TopKResult Client::topk_vector(const std::vector<float>& query,
                                    std::size_t k, std::size_t nprobe,
                                    std::size_t rerank) {
  TopKRequest req;
  req.kind = kTopKKindVector;
  req.vector = query;
  req.k = static_cast<std::uint32_t>(k);
  req.nprobe = static_cast<std::uint32_t>(nprobe);
  req.rerank = static_cast<std::uint32_t>(rerank);
  return topk(req);
}

serve::GateReport Client::try_promote(const std::string& candidate,
                                      bool force) {
  return call<serve::GateReport>(MsgType::kTryPromote,
                                 PromoteRequest{candidate, force});
}

CanaryStatusReport Client::canary_start(const std::string& candidate,
                                        double fraction,
                                        double shadow_rate) {
  return call<CanaryStatusReport>(
      MsgType::kCanaryStart,
      CanaryStartRequest{candidate, fraction, shadow_rate});
}

CanaryStatusReport Client::canary_status() {
  return call<CanaryStatusReport>(MsgType::kCanaryStatus, Empty{});
}

CanaryStatusReport Client::canary_abort(bool drain) {
  return call<CanaryStatusReport>(MsgType::kCanaryAbort,
                                  AbortRequest{drain});
}

RolloutStatusReport Client::rollout_start(const std::string& candidate,
                                          std::uint8_t mode, double fraction,
                                          double shadow_rate) {
  return call<RolloutStatusReport>(
      MsgType::kRolloutStart,
      RolloutStartRequest{candidate, mode, fraction, shadow_rate});
}

RolloutStatusReport Client::rollout_status() {
  return call<RolloutStatusReport>(MsgType::kRolloutStatus, Empty{});
}

RolloutStatusReport Client::rollout_abort(bool drain) {
  return call<RolloutStatusReport>(MsgType::kRolloutAbort,
                                   AbortRequest{drain});
}

std::string Client::shard_map() {
  return call<std::string>(MsgType::kShardMap, Empty{});
}

std::string Client::fault_set(const std::string& spec) {
  return call<std::string>(MsgType::kFaultSet, FaultSetRequest{spec});
}

ServerStatsReport Client::stats() {
  return call<ServerStatsReport>(MsgType::kStats, Empty{});
}

HeatReport Client::heat() {
  return call<HeatReport>(MsgType::kHeat, Empty{});
}

obs::MetricsReport Client::metrics() {
  return call<obs::MetricsReport>(MsgType::kMetrics, Empty{});
}

void Client::ping() { call<Empty>(MsgType::kPing, Empty{}); }

void Client::shutdown_server() { call<Empty>(MsgType::kShutdown, Empty{}); }

}  // namespace anchor::net
