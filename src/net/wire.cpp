#include "net/wire.hpp"

#include "net/socket.hpp"
#include "util/check.hpp"

namespace anchor::net {

std::vector<std::uint8_t> encode_frame(MsgType type, const WireWriter& payload,
                                       const obs::TraceContext& trace) {
  const std::vector<std::uint8_t>& body = payload.buffer();
  const std::uint8_t ext_len = trace.valid() ? kTraceExtBytes : 0;
  ANCHOR_CHECK_MSG(body.size() + 4 + ext_len <= kMaxFrameBytes,
                   "frame too large");
  // One contiguous buffer per frame: a single send() keeps small RPCs in
  // one TCP segment (TCP_NODELAY would otherwise split prefix and body).
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + 4 + ext_len + body.size());
  const std::uint32_t len =
      static_cast<std::uint32_t>(4 + ext_len + body.size());
  const auto* lp = reinterpret_cast<const std::uint8_t*>(&len);
  frame.insert(frame.end(), lp, lp + 4);
  frame.push_back(kWireMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<std::uint8_t>(type));
  frame.push_back(ext_len);
  if (ext_len != 0) {
    const auto* tp = reinterpret_cast<const std::uint8_t*>(&trace.trace_id);
    frame.insert(frame.end(), tp, tp + 8);
    const auto* sp = reinterpret_cast<const std::uint8_t*>(&trace.span_id);
    frame.insert(frame.end(), sp, sp + 8);
    frame.push_back(trace.flags);
  }
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

void write_frame(TcpStream& stream, MsgType type, const WireWriter& payload,
                 const obs::TraceContext& trace) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload, trace);
  stream.write_all(frame.data(), frame.size());
}

bool read_frame(TcpStream& stream, MsgType* type,
                std::vector<std::uint8_t>* payload,
                obs::TraceContext* trace) {
  if (trace != nullptr) *trace = obs::TraceContext{};
  std::uint32_t len = 0;
  if (!stream.read_exact_or_eof(&len, sizeof(len))) return false;
  if (len < 4 || len > kMaxFrameBytes) {
    throw WireError("bad frame length: " + std::to_string(len));
  }
  std::uint8_t header[4];
  stream.read_exact(header, sizeof(header));
  if (header[0] != kWireMagic) throw WireError("bad magic byte");
  if (header[1] != kWireVersion) {
    throw WireError("unsupported protocol version " +
                    std::to_string(header[1]));
  }
  *type = static_cast<MsgType>(header[2]);
  const std::uint8_t ext_len = header[3];
  if (ext_len > len - 4) {
    throw WireError("extension length exceeds frame");
  }
  if (ext_len != 0) {
    std::uint8_t ext[255];
    stream.read_exact(ext, ext_len);
    // A trace extension needs all 17 bytes; anything shorter (or any
    // bytes beyond them) is an extension this version does not know and
    // skips — that forward-compat hole is the point of ext_len.
    if (ext_len >= kTraceExtBytes && trace != nullptr) {
      std::memcpy(&trace->trace_id, ext, 8);
      std::memcpy(&trace->span_id, ext + 8, 8);
      trace->flags = ext[16];
    }
  }
  payload->resize(len - 4 - ext_len);
  if (!payload->empty()) stream.read_exact(payload->data(), payload->size());
  return true;
}

LookupRows LookupRows::of(const serve::ResultSlice& slice) {
  static const serve::LookupResult kNoRows;
  const serve::LookupResult* batch =
      slice.batch() ? slice.batch().get() : &kNoRows;
  return {const_cast<serve::LookupResult*>(batch), slice.first(),
          slice.size()};
}

// ---- cluster rollout ----------------------------------------------------

std::string rollout_state_name(RolloutState s) {
  switch (s) {
    case RolloutState::kIdle:
      return "idle";
    case RolloutState::kRunning:
      return "running";
    case RolloutState::kCompleted:
      return "completed";
    case RolloutState::kRolledBack:
      return "rolled-back";
    case RolloutState::kAborted:
      return "aborted";
  }
  ANCHOR_CHECK_MSG(false, "unknown RolloutState");
  return "";
}

std::string shard_rollout_state_name(ShardRolloutState s) {
  switch (s) {
    case ShardRolloutState::kPending:
      return "pending";
    case ShardRolloutState::kInProgress:
      return "in-progress";
    case ShardRolloutState::kPromoted:
      return "promoted";
    case ShardRolloutState::kFailed:
      return "failed";
    case ShardRolloutState::kRolledBack:
      return "rolled-back";
  }
  ANCHOR_CHECK_MSG(false, "unknown ShardRolloutState");
  return "";
}

}  // namespace anchor::net
