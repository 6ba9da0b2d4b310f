#include "serve/protocol.h"

#include <cstring>

namespace ba::serve {
namespace {

using util::AppendPod;

using Micros = std::chrono::microseconds;

}  // namespace

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kDeadline:
      return "deadline";
    case RequestOutcome::kDegraded:
      return "degraded";
    case RequestOutcome::kError:
      return "error";
  }
  return "unknown";
}

bool RequestTimeline::Monotone() const {
  if (deliver_ns < 0) return false;  // never delivered: not a timeline
  const int64_t stamps[] = {enqueue_ns, batch_join_ns, lookup_ns,
                            build_ns,   aggregate_ns,  deliver_ns};
  int64_t last = 0;
  for (const int64_t s : stamps) {
    if (s < 0) continue;  // stage never reached
    if (s < last) return false;
    last = s;
  }
  return true;
}

std::string RequestTimeline::ToJson() const {
  std::string out;
  out += "{\"trace_id\":" + std::to_string(trace_id);
  out += ",\"span_id\":" + std::to_string(span_id);
  out += ",\"outcome\":\"";
  out += RequestOutcomeName(outcome);
  out += "\",\"enqueue_ns\":" + std::to_string(enqueue_ns);
  out += ",\"batch_join_ns\":" + std::to_string(batch_join_ns);
  out += ",\"lookup_ns\":" + std::to_string(lookup_ns);
  out += ",\"build_ns\":" + std::to_string(build_ns);
  out += ",\"aggregate_ns\":" + std::to_string(aggregate_ns);
  out += ",\"deliver_ns\":" + std::to_string(deliver_ns) + "}";
  return out;
}

void RequestTimeline::EncodeTo(std::string* out) const {
  AppendPod(out, trace_id);
  AppendPod(out, span_id);
  AppendPod(out, enqueue_ns);
  AppendPod(out, batch_join_ns);
  AppendPod(out, lookup_ns);
  AppendPod(out, build_ns);
  AppendPod(out, aggregate_ns);
  AppendPod(out, deliver_ns);
  AppendPod(out, static_cast<uint8_t>(outcome));
}

Status RequestTimeline::DecodeFrom(util::BufferReader* in,
                                   RequestTimeline* out) {
  RequestTimeline tl;
  uint8_t outcome = 0;
  if (!in->ReadPod(&tl.trace_id) || !in->ReadPod(&tl.span_id) ||
      !in->ReadPod(&tl.enqueue_ns) || !in->ReadPod(&tl.batch_join_ns) ||
      !in->ReadPod(&tl.lookup_ns) || !in->ReadPod(&tl.build_ns) ||
      !in->ReadPod(&tl.aggregate_ns) || !in->ReadPod(&tl.deliver_ns) ||
      !in->ReadPod(&outcome)) {
    return Status::InvalidArgument("truncated RequestTimeline encoding");
  }
  if (outcome > static_cast<uint8_t>(RequestOutcome::kError)) {
    return Status::InvalidArgument(
        "RequestTimeline.outcome out of range: " + std::to_string(outcome));
  }
  tl.outcome = static_cast<RequestOutcome>(outcome);
  *out = tl;
  return Status::OK();
}

void ClassifyOptions::EncodeTo(
    std::string* out, std::chrono::steady_clock::time_point now) const {
  int64_t budget_micros = -1;
  if (has_deadline()) {
    // A deadline already behind `now` encodes as a negative budget and
    // decodes as already-expired — exactly the submit-time rejection
    // the receiver should apply.
    budget_micros =
        std::chrono::duration_cast<Micros>(deadline - now).count();
  }
  AppendPod(out, budget_micros);
  AppendPod(out, static_cast<uint8_t>(allow_degraded ? 1 : 0));
  AppendPod(out, static_cast<int32_t>(priority));
  AppendPod(out, trace_id);
  AppendPod(out, span_id);
}

Status ClassifyOptions::DecodeFrom(
    util::BufferReader* in, std::chrono::steady_clock::time_point now,
    ClassifyOptions* out) {
  int64_t budget_micros = 0;
  uint8_t allow = 0;
  int32_t priority = 0;
  if (!in->ReadPod(&budget_micros) || !in->ReadPod(&allow) ||
      !in->ReadPod(&priority)) {
    return Status::InvalidArgument("truncated ClassifyOptions encoding");
  }
  if (allow > 1) {
    return Status::InvalidArgument(
        "ClassifyOptions.allow_degraded must encode as 0 or 1, got " +
        std::to_string(allow));
  }
  *out = ClassifyOptions{};
  if (budget_micros >= 0) {
    out->deadline = now + Micros(budget_micros);
  } else if (budget_micros != -1) {
    // Negative budget: the deadline expired in transit. Anchor it just
    // behind `now` so the receiver's expiry checks fire.
    out->deadline = now - Micros(1);
  }
  out->allow_degraded = allow != 0;
  out->priority = priority;
  if (!in->ReadPod(&out->trace_id) || !in->ReadPod(&out->span_id)) {
    return Status::InvalidArgument(
        "truncated ClassifyOptions trace context");
  }
  return Status::OK();
}

void ClassifyResult::EncodeTo(std::string* out) const {
  AppendPod(out, static_cast<int32_t>(predicted));
  AppendPod(out, static_cast<uint8_t>(cache_hit ? 1 : 0));
  AppendPod(out, static_cast<int32_t>(slices_reused));
  AppendPod(out, static_cast<int32_t>(slices_built));
  AppendPod(out, tx_count);
  AppendPod(out, static_cast<uint8_t>(degraded ? 1 : 0));
  AppendPod(out, epoch_lag);
}

Status ClassifyResult::DecodeFrom(util::BufferReader* in,
                                  ClassifyResult* out) {
  int32_t predicted = 0;
  uint8_t cache_hit = 0;
  int32_t slices_reused = 0;
  int32_t slices_built = 0;
  uint64_t tx_count = 0;
  uint8_t degraded = 0;
  uint64_t epoch_lag = 0;
  if (!in->ReadPod(&predicted) || !in->ReadPod(&cache_hit) ||
      !in->ReadPod(&slices_reused) || !in->ReadPod(&slices_built) ||
      !in->ReadPod(&tx_count) || !in->ReadPod(&degraded) ||
      !in->ReadPod(&epoch_lag)) {
    return Status::InvalidArgument("truncated ClassifyResult encoding");
  }
  *out = ClassifyResult{};
  out->predicted = predicted;
  out->cache_hit = cache_hit != 0;
  out->slices_reused = slices_reused;
  out->slices_built = slices_built;
  out->tx_count = tx_count;
  out->degraded = degraded != 0;
  out->epoch_lag = epoch_lag;
  return Status::OK();
}

std::string ClassifyRequest::EncodePayload(
    std::chrono::steady_clock::time_point now) const {
  std::string payload;
  AppendPod(&payload, request_id);
  AppendPod(&payload, address);
  options.EncodeTo(&payload, now);
  return payload;
}

Status ClassifyRequest::Decode(std::string_view payload,
                               std::chrono::steady_clock::time_point now,
                               ClassifyRequest* out) {
  util::BufferReader reader(payload.data(), payload.size());
  ClassifyRequest req;
  if (!reader.ReadPod(&req.request_id) || !reader.ReadPod(&req.address)) {
    return Status::InvalidArgument("truncated ClassifyRequest payload");
  }
  BA_RETURN_NOT_OK(ClassifyOptions::DecodeFrom(&reader, now, &req.options));
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "ClassifyRequest payload has " +
        std::to_string(reader.remaining()) + " trailing bytes");
  }
  *out = std::move(req);
  return Status::OK();
}

ClassifyResponse ClassifyResponse::From(
    uint64_t request_id, const Result<ClassifyResult>& outcome,
    const RequestTimeline& timeline) {
  ClassifyResponse resp;
  resp.request_id = request_id;
  resp.timeline = timeline;
  if (outcome.ok()) {
    resp.code = static_cast<int32_t>(StatusCode::kOk);
    resp.has_result = true;
    resp.result = outcome.value();
    resp.result.timeline = timeline;
  } else {
    resp.code = static_cast<int32_t>(outcome.status().code());
    resp.message = outcome.status().message();
    if (resp.message.size() > kMaxWireMessage) {
      resp.message.resize(kMaxWireMessage);
    }
  }
  return resp;
}

Result<ClassifyResult> ClassifyResponse::ToResult() const {
  if (code == static_cast<int32_t>(StatusCode::kOk) && has_result) {
    return result;
  }
  if (code == static_cast<int32_t>(StatusCode::kOk)) {
    return Status::Internal("ClassifyResponse: OK code without a result");
  }
  return Status(static_cast<StatusCode>(code), message);
}

std::string ClassifyResponse::EncodePayload() const {
  std::string payload;
  AppendPod(&payload, request_id);
  AppendPod(&payload, code);
  AppendPod(&payload, static_cast<uint32_t>(message.size()));
  payload.append(message);
  AppendPod(&payload, static_cast<uint8_t>(has_result ? 1 : 0));
  if (has_result) result.EncodeTo(&payload);
  timeline.EncodeTo(&payload);
  return payload;
}

Status ClassifyResponse::Decode(std::string_view payload,
                                ClassifyResponse* out) {
  util::BufferReader reader(payload.data(), payload.size());
  ClassifyResponse resp;
  uint32_t message_len = 0;
  if (!reader.ReadPod(&resp.request_id) || !reader.ReadPod(&resp.code) ||
      !reader.ReadPod(&message_len)) {
    return Status::InvalidArgument("truncated ClassifyResponse payload");
  }
  if (message_len > kMaxWireMessage) {
    return Status::InvalidArgument(
        "ClassifyResponse message claims an absurd length " +
        std::to_string(message_len));
  }
  if (reader.remaining() < message_len) {
    return Status::InvalidArgument("truncated ClassifyResponse message");
  }
  resp.message.resize(message_len);
  if (message_len > 0 &&
      !reader.ReadBytes(resp.message.data(), message_len)) {
    return Status::InvalidArgument("truncated ClassifyResponse message");
  }
  uint8_t has_result = 0;
  if (!reader.ReadPod(&has_result)) {
    return Status::InvalidArgument("truncated ClassifyResponse payload");
  }
  if (has_result > 1) {
    return Status::InvalidArgument(
        "ClassifyResponse.has_result must encode as 0 or 1, got " +
        std::to_string(has_result));
  }
  resp.has_result = has_result != 0;
  if (resp.has_result) {
    BA_RETURN_NOT_OK(ClassifyResult::DecodeFrom(&reader, &resp.result));
  }
  BA_RETURN_NOT_OK(RequestTimeline::DecodeFrom(&reader, &resp.timeline));
  resp.result.timeline = resp.timeline;
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "ClassifyResponse payload has " +
        std::to_string(reader.remaining()) + " trailing bytes");
  }
  *out = std::move(resp);
  return Status::OK();
}

std::string EncodeFrame(MessageType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  frame.append(kWireMagic, sizeof(kWireMagic));
  AppendPod(&frame, kWireVersion);
  AppendPod(&frame, static_cast<uint16_t>(type));
  AppendPod(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload.data(), payload.size());
  const uint32_t crc = util::Crc32(frame.data(), frame.size());
  AppendPod(&frame, crc);
  return frame;
}

void FrameDecoder::Append(const char* data, size_t len) {
  if (!failed_.ok()) return;  // corrupt stream: drop further bytes
  // Compact the consumed prefix before it dominates the buffer, so a
  // long-lived connection's memory stays proportional to in-flight
  // bytes, not lifetime traffic.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, len);
}

Result<bool> FrameDecoder::Next(Frame* out) {
  if (!failed_.ok()) return failed_;
  const size_t avail = buf_.size() - pos_;
  if (avail < 8) return false;  // magic + version + type first
  const char* head = buf_.data() + pos_;
  if (std::memcmp(head, kWireMagic, sizeof(kWireMagic)) != 0) {
    failed_ = Status::InvalidArgument(
        "frame decode: bad magic (not a BANP stream)");
    return failed_;
  }
  uint16_t version = 0;
  uint16_t type = 0;
  std::memcpy(&version, head + 4, sizeof(version));
  std::memcpy(&type, head + 6, sizeof(type));
  if (version != kWireVersion) {
    failed_ = Status::InvalidArgument(
        "frame decode: unsupported protocol version " +
        std::to_string(version) + " (this peer speaks " +
        std::to_string(kWireVersion) + ")");
    return failed_;
  }
  if (avail < kFrameHeaderBytes) return false;
  uint32_t payload_len = 0;
  std::memcpy(&payload_len, head + 8, sizeof(payload_len));
  // Validated straight from the header — an oversized claim is
  // rejected before any payload is buffered or allocated.
  if (payload_len > kMaxWirePayload) {
    failed_ = Status::InvalidArgument(
        "frame decode: declared payload length " +
        std::to_string(payload_len) + " exceeds the " +
        std::to_string(kMaxWirePayload) + " byte limit");
    return failed_;
  }
  const size_t total =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (avail < total) return false;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, head + kFrameHeaderBytes + payload_len,
              sizeof(stored_crc));
  const uint32_t computed_crc =
      util::Crc32(head, kFrameHeaderBytes + payload_len);
  if (stored_crc != computed_crc) {
    failed_ = Status::InvalidArgument(
        "frame decode: crc32 mismatch (stored " +
        std::to_string(stored_crc) + ", computed " +
        std::to_string(computed_crc) + ")");
    return failed_;
  }
  out->type = static_cast<MessageType>(type);
  out->payload.assign(head + kFrameHeaderBytes, payload_len);
  pos_ += total;
  return true;
}

}  // namespace ba::serve
