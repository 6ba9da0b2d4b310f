#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/fs.h"
#include "util/status.h"

/// \file protocol.h
/// \brief Versioned, wire-stable serving types and the length-prefixed
/// binary frame protocol that carries them.
///
/// `ClassifyOptions` / `ClassifyResult` started as in-process structs
/// on `InferenceEngine::Classify`; promoting them here makes them the
/// *protocol* surface shared by the engine, the network server
/// (`net::Server`), the client library (`net::Client`) and the loadgen
/// — one definition, one encoding, one version number.
///
/// Encoding rules (all integers little-endian, explicitly sized —
/// never a struct memcpy, so the layout survives compiler/ABI drift):
///
///  * Each type writes its fields in a fixed documented order via
///    `EncodeTo` and reads them back with a bounds-checked
///    `DecodeFrom` (util::BufferReader — a truncated or hostile buffer
///    yields a descriptive Status, never an out-of-bounds read).
///  * Deadlines cross the wire as a **relative budget** in
///    microseconds (steady_clock time_points are meaningless in
///    another process): `EncodeTo` converts `deadline - now` at encode
///    time, `DecodeFrom` re-anchors `now + budget` at decode time, so
///    a request spends its queueing and transit time out of its own
///    budget. -1 encodes "no deadline".
///
/// Frame layout (12-byte header + payload + 4-byte trailer):
///
///     magic   'BANP'      4 bytes
///     version uint16      protocol version (kWireVersion)
///     type    uint16      MessageType
///     length  uint32      payload byte count (<= max payload)
///     payload ...         `length` bytes
///     crc32   uint32      util::Crc32 over header + payload
///
/// One version is live. v2 added request-scoped trace context to the
/// original v1 layout: `ClassifyOptions` carries a client-generated
/// 64-bit `trace_id`/`span_id` pair and every `ClassifyResponse`
/// appends the server-side `RequestTimeline` for the request it
/// answers. v1 is retired: a frame declaring any version other than
/// `kWireVersion` is rejected, naming the version. Payload decoding is
/// strict: a payload short of the trace context or timeline, or one
/// with trailing bytes, fails loudly instead of decoding garbage.
///
/// The decoder (`FrameDecoder`) is an incremental reassembler for
/// non-blocking sockets: feed it arbitrary byte chunks, poll frames
/// out. It validates magic and version from the first 8 bytes and the
/// declared length from the header *before* buffering a payload, so an
/// oversized or garbage length is rejected without allocation; the CRC
/// is verified before a frame is surfaced, so a flipped bit fails
/// loudly instead of decoding garbage. Every failure is a descriptive
/// Status — a hostile peer can never crash or hang the decoder.

namespace ba::serve {

/// First bytes of every frame.
inline constexpr char kWireMagic[4] = {'B', 'A', 'N', 'P'};

/// Protocol version carried in every frame header, the only one
/// decoders accept. Bump when any wire layout below changes.
inline constexpr uint16_t kWireVersion = 2;

/// Default ceiling on a frame's declared payload length. A header
/// claiming more is a protocol error, rejected before any buffering.
inline constexpr uint32_t kMaxWirePayload = 1u << 20;

/// Ceiling on a status message string carried in a response.
inline constexpr uint32_t kMaxWireMessage = 1u << 16;

/// Frame header + CRC trailer sizes (fixed by the layout above).
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr size_t kFrameTrailerBytes = 4;

/// \brief What a frame carries. Unknown values decode fine at the
/// frame layer (forward compatibility); the dispatcher answers them
/// with kError.
enum class MessageType : uint16_t {
  kClassifyRequest = 1,
  kClassifyResponse = 2,
  /// Server-to-client: the request could not even be decoded (payload
  /// is a ClassifyResponse with request_id 0 when the id was
  /// unreadable).
  kError = 3,
};

/// \brief How a request ended — the wire-stable outcome label carried
/// in every `RequestTimeline`. Matches the resilience contract's four
/// explicit endings plus kError for injected faults and invalid
/// addresses.
enum class RequestOutcome : uint8_t {
  kOk = 0,        ///< nominal answer
  kShed = 1,      ///< ResourceExhausted from admission control
  kDeadline = 2,  ///< DeadlineExceeded, no degraded answer available
  kDegraded = 3,  ///< labeled degraded answer (stale/fallback/late)
  kError = 4,     ///< anything else (injected fault, unknown address)
};

/// "ok" / "shed" / "deadline" / "degraded" / "error".
const char* RequestOutcomeName(RequestOutcome outcome);

/// \brief How a request interacts with the engine's embedding cache.
/// In-process routing metadata — never encoded on the wire (a remote
/// peer cannot be trusted to classify its own traffic as hot-set).
enum class CacheMode : uint8_t {
  /// Normal: hits refresh LRU recency, computed results are inserted.
  kNormal = 0,
  /// Scan traffic (mixer_hunt-style cold sweeps, as flagged by the
  /// engine's per-connection miss-streak detector): lookups still read
  /// the cache but never refresh recency, and computed results update
  /// an existing entry in place without inserting new ones — a full
  /// sweep cannot evict the hot working set.
  kNoPromote = 1,
};

/// \brief Compact per-request timeline: where one request spent its
/// life, stamped by the engine as the request crosses each stage.
///
/// Stamps are nanosecond offsets from submit (the admit decision); -1
/// means the stage was never reached (a shed request has only
/// `deliver_ns`, a full cache hit never builds or aggregates, and an
/// async request the submit-side lookup settles never queues or joins
/// a batch). Present
/// stamps are monotone non-decreasing in stage order. The engine
/// records every finished timeline into its flight recorder and
/// returns it on `ClassifyResult`; every response carries it back over
/// the wire.
///
/// Wire layout: u64 trace_id, u64 span_id, i64 enqueue_ns,
/// i64 batch_join_ns, i64 lookup_ns, i64 build_ns, i64 aggregate_ns,
/// i64 deliver_ns, u8 outcome.
struct RequestTimeline {
  /// Client-generated trace context (0 = untraced request). Rides the
  /// wire in `ClassifyOptions` and is echoed here so the client can
  /// stitch its own span to the server-side flow.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  int64_t enqueue_ns = -1;     ///< handed to a batch or a pool task
  int64_t batch_join_ns = -1;  ///< its micro-batch started
  int64_t lookup_ns = -1;      ///< cache-lookup stage done
  int64_t build_ns = -1;       ///< build/embed stage done
  int64_t aggregate_ns = -1;   ///< aggregate stage done
  int64_t deliver_ns = -1;     ///< callback about to fire (total latency)
  RequestOutcome outcome = RequestOutcome::kOk;

  /// True when every present (>= 0) stamp is ordered by stage and the
  /// timeline was delivered — the invariant tests assert per request.
  bool Monotone() const;

  /// Single-line JSON object (slowlog / timeline admin output).
  std::string ToJson() const;

  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(util::BufferReader* in, RequestTimeline* out);
};

/// \brief Per-request serving options (wire type).
///
/// Wire layout: i64 deadline budget in microseconds (-1 = none, may be
/// negative = already expired), u8 allow_degraded, i32 priority,
/// u64 trace_id, u64 span_id.
struct ClassifyOptions {
  /// Hard per-request deadline; the epoch default means "none".
  /// Checked at submit, at cache lookup and between batch stages —
  /// an expired request never pays for graph construction.
  std::chrono::steady_clock::time_point deadline{};
  /// Permits labeled non-nominal answers (stale cache / fallback /
  /// fresh-but-late) instead of a DeadlineExceeded or
  /// ResourceExhausted error.
  bool allow_degraded = false;
  /// > 0 bypasses watermark shedding (not the hard in-flight budget).
  int priority = 0;
  /// Client-generated 64-bit trace context (0 = untraced). Propagated
  /// through admission and every batch stage, echoed in the response
  /// timeline, and used as the Perfetto flow id so client, server and
  /// engine extents stitch into one async track.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  /// In-process only (never on the wire): a stable caller identity —
  /// the net server stamps its connection id — that the engine's
  /// sweep detector keys per-connection miss streaks on.
  /// 0 = anonymous (no sweep tracking).
  uint64_t client_id = 0;
  /// In-process only (never on the wire): kNoPromote keeps this
  /// request from promoting into the cache. The engine also applies it
  /// on its own once a client's miss streak marks it as a cold sweep.
  CacheMode cache_mode = CacheMode::kNormal;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }

  /// Convenience: a deadline `seconds` from now.
  static ClassifyOptions WithTimeout(double seconds) {
    ClassifyOptions o;
    o.deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds));
    return o;
  }

  /// Appends the wire encoding, converting the absolute deadline into
  /// a budget relative to `now`.
  void EncodeTo(std::string* out,
                std::chrono::steady_clock::time_point now) const;

  /// Reads the wire encoding, re-anchoring the budget against `now`.
  static Status DecodeFrom(util::BufferReader* in,
                           std::chrono::steady_clock::time_point now,
                           ClassifyOptions* out);
};

/// \brief Outcome of one classification query (wire type).
///
/// Wire layout: i32 predicted, u8 cache_hit, i32 slices_reused,
/// i32 slices_built, u64 tx_count, u8 degraded, u64 epoch_lag.
///
/// **Degraded-answer contract** (pinned by
/// resilience_test DegradedResultContract*): every degraded answer
/// sets the same fields the same way no matter which pipeline stage
/// produced it — submit fast path, cache-lookup stage, build-boundary
/// recheck, or delivery:
///
///  * **stale**  (cached prediction from an older epoch):
///    `cache_hit = true`, `tx_count` = the epoch the answer was
///    computed at, `epoch_lag` = live capped count − `tx_count` (> 0),
///    `slices_reused` = the cached entry's slice count.
///  * **fallback** (flat-feature hook): `cache_hit = false`,
///    `tx_count` = the live capped count, `epoch_lag = 0`,
///    `slices_reused = 0`.
///  * **late** (fresh result past its deadline): identical to the
///    nominal result — `tx_count` = the batch epoch, `epoch_lag = 0`,
///    real `slices_reused`/`slices_built` — except `degraded = true`.
struct ClassifyResult {
  int predicted = 0;
  /// Served entirely from cache (no graph/encoder work).
  bool cache_hit = false;
  /// Complete-slice embeddings reused from the cache.
  int slices_reused = 0;
  /// Slices built and embedded for this query.
  int slices_built = 0;
  /// The address's capped transaction count at the epoch this result
  /// was computed against (the micro-batch's pinned snapshot). Lets a
  /// caller racing ledger growth identify which epoch answered it.
  uint64_t tx_count = 0;
  /// True for every non-nominal labeled answer: stale cache, fallback
  /// classifier, or a fresh result delivered past its deadline. Only
  /// possible with `ClassifyOptions::allow_degraded`.
  bool degraded = false;
  /// How far behind the live epoch the answer is: the address's capped
  /// tx count now minus the capped tx count the answer was computed at
  /// (0 for fresh and fallback answers).
  uint64_t epoch_lag = 0;
  /// Where this request spent its life (in-process field — on the wire
  /// the timeline travels once at the `ClassifyResponse` layer, and
  /// the client decode copies it back here).
  RequestTimeline timeline;

  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(util::BufferReader* in, ClassifyResult* out);
};

/// \brief One classification request as sent over the wire.
///
/// Wire layout: u64 request_id, u64 address, ClassifyOptions fields.
struct ClassifyRequest {
  /// Client-chosen correlation id, echoed verbatim in the response so
  /// a client may pipeline many requests on one connection.
  uint64_t request_id = 0;
  uint64_t address = 0;
  ClassifyOptions options;

  /// The full frame payload for this request.
  std::string EncodePayload(std::chrono::steady_clock::time_point now) const;
  /// Strict decode: a short payload or trailing bytes fail.
  static Status Decode(std::string_view payload,
                       std::chrono::steady_clock::time_point now,
                       ClassifyRequest* out);
};

/// \brief One classification response as sent over the wire.
///
/// Wire layout: u64 request_id, i32 status code, string message
/// (u32 length + bytes, <= kMaxWireMessage), u8 has_result,
/// ClassifyResult fields when has_result, then the RequestTimeline
/// fields — error outcomes (shed, deadline) carry
/// their timeline too, which is how the acceptance invariant "every
/// wire completion yields a timeline matching its outcome" holds for
/// inline sheds.
struct ClassifyResponse {
  uint64_t request_id = 0;
  /// StatusCode of the outcome (kOk carries a result).
  int32_t code = 0;
  std::string message;
  bool has_result = false;
  ClassifyResult result;
  /// Server-side timeline for the request this answers (all stamps -1
  /// for responses synthesized without one, e.g. protocol errors).
  /// Decode mirrors it into `result.timeline`.
  RequestTimeline timeline;

  /// Builds a response from an engine outcome and its timeline (the
  /// two arguments ClassifyCallback delivers).
  static ClassifyResponse From(uint64_t request_id,
                               const Result<ClassifyResult>& outcome,
                               const RequestTimeline& timeline = {});

  /// The outcome this response carries, as the engine would have
  /// returned it in process.
  Result<ClassifyResult> ToResult() const;

  std::string EncodePayload() const;
  static Status Decode(std::string_view payload, ClassifyResponse* out);
};

/// \brief One decoded frame.
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// \brief Encodes a complete frame (header + payload + CRC trailer)
/// declaring `kWireVersion`.
std::string EncodeFrame(MessageType type, std::string_view payload);

/// \brief Incremental frame reassembler for a byte stream.
///
/// Feed bytes with `Append` as they arrive (any chunking — a slow
/// peer may deliver one byte at a time); extract frames with `Next`.
/// After `Next` returns a non-OK Status the stream is corrupt and the
/// connection should be closed — the decoder stays in the failed
/// state and keeps returning the same error.
class FrameDecoder {
 public:
  void Append(const char* data, size_t len);
  void Append(std::string_view bytes) { Append(bytes.data(), bytes.size()); }

  /// OK(true): `*out` holds the next frame. OK(false): incomplete —
  /// feed more bytes. Non-OK: the stream is corrupt (bad magic, wrong
  /// version, a length claim above `kMaxWirePayload`, CRC mismatch),
  /// described in the message.
  Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet consumed by a returned frame.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  Status failed_ = Status::OK();
};

}  // namespace ba::serve
