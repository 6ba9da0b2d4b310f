// Wire protocol tests: round trips for every versioned serving type,
// the relative-budget deadline encoding, and a fuzz-ish suite against
// the frame decoder — truncated frames, bad magic, wrong version,
// flipped CRC bits, oversized length claims, byte-at-a-time delivery.
// Every hostile input must yield a descriptive Status (and a sticky
// failed decoder), never a crash, hang, or silently-decoded garbage.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>

#include "serve/protocol.h"
#include "util/fs.h"
#include "util/status.h"

namespace ba {
namespace {

using serve::ClassifyOptions;
using serve::ClassifyRequest;
using serve::ClassifyResponse;
using serve::ClassifyResult;
using serve::EncodeFrame;
using serve::Frame;
using serve::FrameDecoder;
using serve::MessageType;
using serve::RequestOutcome;
using serve::RequestTimeline;
using Clock = std::chrono::steady_clock;

ClassifyResult SampleResult() {
  ClassifyResult r;
  r.predicted = 3;
  r.cache_hit = true;
  r.slices_reused = 7;
  r.slices_built = 2;
  r.tx_count = 41;
  r.degraded = true;
  r.epoch_lag = 5;
  return r;
}

void ExpectSameResult(const ClassifyResult& a, const ClassifyResult& b) {
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.slices_reused, b.slices_reused);
  EXPECT_EQ(a.slices_built, b.slices_built);
  EXPECT_EQ(a.tx_count, b.tx_count);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.epoch_lag, b.epoch_lag);
}

TEST(ProtocolTest, RequestRoundTripsThroughPayload) {
  const auto now = Clock::now();
  ClassifyRequest req;
  req.request_id = 0xDEADBEEFCAFE;
  req.address = 12345;
  req.options.allow_degraded = true;
  req.options.priority = 2;

  ClassifyRequest back;
  ASSERT_TRUE(
      ClassifyRequest::Decode(req.EncodePayload(now), now, &back).ok());
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.address, req.address);
  EXPECT_TRUE(back.options.allow_degraded);
  EXPECT_EQ(back.options.priority, 2);
  EXPECT_FALSE(back.options.has_deadline());
}

TEST(ProtocolTest, DeadlineCrossesTheWireAsRelativeBudget) {
  // A 250ms budget encoded at `now` and decoded at `now + 100ms` must
  // leave ~150ms — queueing and transit spend the request's own budget.
  const auto encode_now = Clock::now();
  ClassifyRequest req;
  req.options.deadline = encode_now + std::chrono::milliseconds(250);

  const auto decode_now = encode_now + std::chrono::milliseconds(100);
  ClassifyRequest back;
  ASSERT_TRUE(ClassifyRequest::Decode(req.EncodePayload(encode_now),
                                      decode_now, &back)
                  .ok());
  ASSERT_TRUE(back.options.has_deadline());
  const double remaining =
      std::chrono::duration<double>(back.options.deadline - decode_now)
          .count();
  EXPECT_NEAR(remaining, 0.25, 1e-3);
}

TEST(ProtocolTest, ExpiredDeadlineStaysExpiredAfterDecode) {
  const auto now = Clock::now();
  ClassifyRequest req;
  req.options.deadline = now - std::chrono::milliseconds(50);

  ClassifyRequest back;
  ASSERT_TRUE(
      ClassifyRequest::Decode(req.EncodePayload(now), now, &back).ok());
  ASSERT_TRUE(back.options.has_deadline());
  EXPECT_LT(back.options.deadline, now);
}

TEST(ProtocolTest, NoDeadlineDecodesAsNoDeadline) {
  const auto now = Clock::now();
  ClassifyRequest req;  // epoch default = none
  ClassifyRequest back;
  ASSERT_TRUE(
      ClassifyRequest::Decode(req.EncodePayload(now), now, &back).ok());
  EXPECT_FALSE(back.options.has_deadline());
}

TEST(ProtocolTest, OkResponseRoundTripsResult) {
  const ClassifyResponse resp =
      ClassifyResponse::From(99, Result<ClassifyResult>(SampleResult()));
  ClassifyResponse back;
  ASSERT_TRUE(ClassifyResponse::Decode(resp.EncodePayload(), &back).ok());
  EXPECT_EQ(back.request_id, 99u);
  ASSERT_TRUE(back.has_result);
  ExpectSameResult(back.result, SampleResult());
  const auto outcome = back.ToResult();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().predicted, 3);
}

TEST(ProtocolTest, ErrorResponseRoundTripsStatus) {
  const ClassifyResponse resp = ClassifyResponse::From(
      7, Result<ClassifyResult>(
             Status::ResourceExhausted("shedding load, try later")));
  ClassifyResponse back;
  ASSERT_TRUE(ClassifyResponse::Decode(resp.EncodePayload(), &back).ok());
  EXPECT_EQ(back.request_id, 7u);
  EXPECT_FALSE(back.has_result);
  const auto outcome = back.ToResult();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(outcome.status().message().find("shedding"),
            std::string::npos);
}

TEST(ProtocolTest, FrameRoundTripsThroughDecoder) {
  const std::string payload = "hello frame";
  const std::string bytes =
      EncodeFrame(MessageType::kClassifyRequest, payload);
  FrameDecoder decoder;
  decoder.Append(bytes);
  Frame frame;
  const auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.type, MessageType::kClassifyRequest);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ProtocolTest, DecoderReassemblesByteAtATime) {
  const std::string bytes =
      EncodeFrame(MessageType::kClassifyResponse, "slow loris");
  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Before the last byte the frame must never surface.
    const auto got = decoder.Next(&frame);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.value()) << "frame surfaced at byte " << i;
    decoder.Append(bytes.data() + i, 1);
  }
  const auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.payload, "slow loris");
}

TEST(ProtocolTest, DecoderHandlesBackToBackFrames) {
  FrameDecoder decoder;
  decoder.Append(EncodeFrame(MessageType::kClassifyRequest, "one"));
  decoder.Append(EncodeFrame(MessageType::kClassifyResponse, "two"));
  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.payload, "one");
  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.payload, "two");
  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(ProtocolTest, BadMagicFailsLoudlyAndSticks) {
  FrameDecoder decoder;
  decoder.Append("XXXX0123456789abcdef");
  Frame frame;
  const auto got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("magic"), std::string::npos);

  // Sticky: even after appending a perfectly valid frame the decoder
  // keeps reporting the original corruption.
  decoder.Append(EncodeFrame(MessageType::kClassifyRequest, "late"));
  const auto again = decoder.Next(&frame);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), got.status().code());
}

TEST(ProtocolTest, WrongVersionIsRejected) {
  std::string bytes = EncodeFrame(MessageType::kClassifyRequest, "v?");
  bytes[4] = 0x42;  // version word straddles bytes 4-5
  bytes[5] = 0x42;
  FrameDecoder decoder;
  decoder.Append(bytes);
  Frame frame;
  const auto got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("version"), std::string::npos);
}

TEST(ProtocolTest, FlippedCrcBitIsRejected) {
  std::string bytes = EncodeFrame(MessageType::kClassifyRequest, "crc");
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  FrameDecoder decoder;
  decoder.Append(bytes);
  Frame frame;
  const auto got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("crc32"), std::string::npos);
}

TEST(ProtocolTest, FlippedPayloadBitIsCaughtByCrc) {
  std::string bytes =
      EncodeFrame(MessageType::kClassifyRequest, "payload");
  bytes[serve::kFrameHeaderBytes] =
      static_cast<char>(bytes[serve::kFrameHeaderBytes] ^ 0x80);
  FrameDecoder decoder;
  decoder.Append(bytes);
  Frame frame;
  EXPECT_FALSE(decoder.Next(&frame).ok());
}

TEST(ProtocolTest, OversizedLengthClaimIsRejectedBeforeBuffering) {
  // Headers claiming a 64MiB payload, or one byte over the limit; the
  // decoder must reject from the 12 header bytes alone — no waiting
  // for (or allocating) the claim.
  for (const uint32_t huge : {64u << 20, serve::kMaxWirePayload + 1}) {
    std::string bytes(serve::kWireMagic, 4);
    const uint16_t version = serve::kWireVersion;
    const uint16_t type = 1;
    bytes.append(reinterpret_cast<const char*>(&version), 2);
    bytes.append(reinterpret_cast<const char*>(&type), 2);
    bytes.append(reinterpret_cast<const char*>(&huge), 4);
    FrameDecoder decoder;
    decoder.Append(bytes);
    Frame frame;
    const auto got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok()) << huge;
    EXPECT_NE(got.status().message().find("payload"), std::string::npos);
  }
  // A payload of exactly the limit is a valid frame.
  const std::string payload(serve::kMaxWirePayload, 'x');
  FrameDecoder decoder;
  decoder.Append(EncodeFrame(MessageType::kClassifyRequest, payload));
  Frame frame;
  const auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(got.value());
  EXPECT_EQ(frame.payload.size(), payload.size());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ProtocolTest, TruncatedFrameIsIncompleteNotAnError) {
  const std::string bytes =
      EncodeFrame(MessageType::kClassifyRequest, "truncated");
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size() / 2);
  Frame frame;
  const auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());  // the rest may still arrive
  EXPECT_FALSE(got.value());
  EXPECT_GT(decoder.buffered(), 0u);
}

TEST(ProtocolTest, TruncatedResponsePayloadDecodeFails) {
  const ClassifyResponse resp =
      ClassifyResponse::From(1, Result<ClassifyResult>(SampleResult()));
  const std::string payload = resp.EncodePayload();
  ClassifyResponse back;
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ClassifyResponse::Decode(
                     std::string_view(payload).substr(0, cut), &back)
                     .ok())
        << "decoded from " << cut << " of " << payload.size() << " bytes";
  }
}

TEST(ProtocolTest, TruncatedRequestPayloadDecodeFails) {
  const auto now = Clock::now();
  ClassifyRequest req;
  req.request_id = 5;
  req.address = 17;
  const std::string payload = req.EncodePayload(now);
  ClassifyRequest back;
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(ClassifyRequest::Decode(
                     std::string_view(payload).substr(0, cut), now, &back)
                     .ok());
  }
}

TEST(ProtocolTest, ResponseMessageLengthIsBounded) {
  // A hostile response claiming a message longer than kMaxWireMessage
  // must be rejected, not allocated.
  ClassifyResponse resp;
  resp.request_id = 1;
  resp.code = static_cast<int32_t>(StatusCode::kInternal);
  resp.message = "x";
  std::string payload = resp.EncodePayload();
  // The message length field sits after u64 request_id + i32 code.
  const uint32_t bogus = serve::kMaxWireMessage + 1;
  std::memcpy(payload.data() + 12, &bogus, sizeof(bogus));
  ClassifyResponse back;
  EXPECT_FALSE(ClassifyResponse::Decode(payload, &back).ok());
}

// --- v2 trace context + timelines ------------------------------------

RequestTimeline SampleTimeline() {
  RequestTimeline tl;
  tl.trace_id = 0xABCDEF0123456789ULL;
  tl.span_id = 0x42;
  tl.enqueue_ns = 1'000;
  tl.batch_join_ns = 2'500;
  tl.lookup_ns = 9'000;
  tl.build_ns = 120'000;
  tl.aggregate_ns = 150'000;
  tl.deliver_ns = 160'000;
  tl.outcome = RequestOutcome::kDegraded;
  return tl;
}

void ExpectSameTimeline(const RequestTimeline& a, const RequestTimeline& b) {
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_EQ(a.enqueue_ns, b.enqueue_ns);
  EXPECT_EQ(a.batch_join_ns, b.batch_join_ns);
  EXPECT_EQ(a.lookup_ns, b.lookup_ns);
  EXPECT_EQ(a.build_ns, b.build_ns);
  EXPECT_EQ(a.aggregate_ns, b.aggregate_ns);
  EXPECT_EQ(a.deliver_ns, b.deliver_ns);
  EXPECT_EQ(a.outcome, b.outcome);
}

TEST(ProtocolTest, TraceContextRoundTripsInV2Request) {
  const auto now = Clock::now();
  ClassifyRequest req;
  req.request_id = 7;
  req.address = 99;
  req.options.trace_id = 0x1122334455667788ULL;
  req.options.span_id = 0x99AA;

  ClassifyRequest back;
  ASSERT_TRUE(
      ClassifyRequest::Decode(req.EncodePayload(now), now, &back).ok());
  EXPECT_EQ(back.options.trace_id, req.options.trace_id);
  EXPECT_EQ(back.options.span_id, req.options.span_id);
}

TEST(ProtocolTest, RequestDecodeIsStrictPerVersion) {
  // The payload must be exactly the live version's layout.
  const auto now = Clock::now();
  ClassifyRequest req;
  req.request_id = 9;
  req.address = 5;
  const std::string payload = req.EncodePayload(now);
  ClassifyRequest back;
  // Short of the trace ids: the decoder wants bytes that never came.
  EXPECT_FALSE(ClassifyRequest::Decode(payload.substr(0, payload.size() - 16),
                                       now, &back)
                   .ok());
  // Trailing bytes nobody consumed.
  const auto got = ClassifyRequest::Decode(payload + std::string(16, '\0'),
                                           now, &back);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.message().find("trailing"), std::string::npos);
}

TEST(ProtocolTest, TimelineRoundTripsThroughCodec) {
  const RequestTimeline tl = SampleTimeline();
  std::string bytes;
  tl.EncodeTo(&bytes);

  util::BufferReader reader(bytes);
  RequestTimeline back;
  ASSERT_TRUE(RequestTimeline::DecodeFrom(&reader, &back).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  ExpectSameTimeline(tl, back);
}

TEST(ProtocolTest, TimelineOutcomeByteIsRangeChecked) {
  RequestTimeline tl = SampleTimeline();
  std::string bytes;
  tl.EncodeTo(&bytes);
  bytes.back() = 17;  // outcome is the trailing u8

  util::BufferReader reader(bytes);
  RequestTimeline back;
  const auto got = RequestTimeline::DecodeFrom(&reader, &back);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.message().find("outcome"), std::string::npos);
}

TEST(ProtocolTest, MonotoneRequiresDeliveryAndStageOrder) {
  RequestTimeline tl;
  EXPECT_FALSE(tl.Monotone()) << "never delivered";

  // Shed inline: only deliver_ns is stamped, every stage skipped.
  tl.deliver_ns = 100;
  EXPECT_TRUE(tl.Monotone());

  // Full pipeline, ordered.
  EXPECT_TRUE(SampleTimeline().Monotone());

  // A stamp that runs backwards across present stages.
  RequestTimeline bad = SampleTimeline();
  bad.build_ns = bad.batch_join_ns - 1;
  EXPECT_FALSE(bad.Monotone());

  // Skipped interior stages (-1) don't break the ordering check.
  RequestTimeline sparse = SampleTimeline();
  sparse.build_ns = -1;
  sparse.aggregate_ns = -1;
  EXPECT_TRUE(sparse.Monotone());
}

TEST(ProtocolTest, ResponseCarriesTimelineOnlyInV2) {
  ClassifyResponse resp = ClassifyResponse::From(
      21, Result<ClassifyResult>(SampleResult()), SampleTimeline());

  const std::string v2 = resp.EncodePayload();
  ClassifyResponse back;
  ASSERT_TRUE(ClassifyResponse::Decode(v2, &back).ok());
  ExpectSameTimeline(back.timeline, SampleTimeline());
  // The decode mirrors the wire timeline into the in-process result.
  ExpectSameTimeline(back.result.timeline, SampleTimeline());

  // Strictness mirrors the request side: a payload without its
  // timeline, or with trailing bytes, is rejected.
  std::string no_timeline;
  RequestTimeline().EncodeTo(&no_timeline);
  EXPECT_FALSE(ClassifyResponse::Decode(
                   v2.substr(0, v2.size() - no_timeline.size()), &back)
                   .ok());
  const auto got = ClassifyResponse::Decode(v2 + "x", &back);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.message().find("trailing"), std::string::npos);
}

TEST(ProtocolTest, ErrorResponseStillCarriesItsTimeline) {
  // Sheds and deadline misses answer with an error *and* a timeline —
  // that's how the client learns where a rejected request spent time.
  RequestTimeline tl;
  tl.trace_id = 77;
  tl.deliver_ns = 420;
  tl.outcome = RequestOutcome::kShed;
  const ClassifyResponse resp = ClassifyResponse::From(
      33, Result<ClassifyResult>(Status::ResourceExhausted("shed")), tl);

  ClassifyResponse back;
  ASSERT_TRUE(ClassifyResponse::Decode(resp.EncodePayload(), &back).ok());
  EXPECT_FALSE(back.has_result);
  EXPECT_EQ(back.timeline.trace_id, 77u);
  EXPECT_EQ(back.timeline.deliver_ns, 420);
  EXPECT_EQ(back.timeline.outcome, RequestOutcome::kShed);
  const auto result = back.ToResult();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProtocolTest, FutureVersionIsRejected) {
  // The retired v1 and a future v3 alike: one version is live.
  const uint16_t future = serve::kWireVersion + 1;
  for (const uint16_t version : {uint16_t{1}, future}) {
    std::string bytes = EncodeFrame(MessageType::kClassifyRequest, "v?");
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    FrameDecoder decoder;
    decoder.Append(bytes);
    Frame frame;
    const auto got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok()) << "version " << version;
    EXPECT_NE(
        got.status().message().find("version " + std::to_string(version)),
        std::string::npos)
        << got.status().message();
  }
}

}  // namespace
}  // namespace ba
