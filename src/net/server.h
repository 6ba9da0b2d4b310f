#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "chain/ledger.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/protocol.h"

/// \file server.h
/// \brief The network serving front end: one epoll thread, two
/// listeners, zero threads per request.
///
/// **Data port** — the binary frame protocol of serve/protocol.h. Each
/// connection owns a non-blocking read state machine (FrameDecoder
/// reassembling frames from arbitrary chunks) and a write state
/// machine (immediate write, overflow buffered, EPOLLOUT armed only
/// while bytes are pending). A decoded ClassifyRequest dispatches into
/// `serve::InferenceEngine::ClassifyAsync`, whose completion callback
/// encodes the response frame. Whatever the engine decides at submit —
/// a cache hit, an admission shed, an expired deadline, an unknown
/// address — fires the callback synchronously on the loop thread, which
/// writes the answer out directly; only a miss completes later on an
/// engine worker thread, which posts the frame back to the loop. Because
/// dispatch is non-blocking, *backpressure is the engine's admission
/// controller*: when it sheds, the connection answers
/// ResourceExhausted in well under a millisecond instead of queueing
/// bytes behind a saturated pipeline.
///
/// A protocol violation (bad magic, wrong version, oversized length,
/// CRC mismatch) answers one kError frame naming the violation, then
/// closes after the flush — a hostile or confused peer gets a
/// diagnosis, never a hang. A connection with more than 8 MiB of
/// outbound bytes pending (a reader that stopped reading) is dropped.
///
/// **Admin port** — a GET-style line protocol (one command in, one
/// line out) for operators and scrape sidecars:
///
///     metrics             → obs::MetricsRegistry JSON exposition
///     health              → {"status","admission","epoch",...}
///     trace start         → enable process tracing
///     trace save <path>   → write collected spans (Perfetto JSON)
///     trace stop          → disable tracing
///     slowlog [n]         → one JSON line: the engine's slow-request
///                           ring plus the n most recent timelines
///                           (flight recorder), default n = 32
///     timeline <trace_id> → one JSON line: the most recent recorded
///                           timeline for that trace id (decimal or
///                           0x-hex), or {"error":...} when unknown
///     quit                → "bye", then the server drains and stops
///
/// Instruments (naming convention `net.<stage>`, DESIGN.md §6):
/// `net.connections_accepted/active`, `net.frames_received/sent`,
/// `net.requests`, `net.responses`, `net.protocol_errors`,
/// `net.slow_consumer_drops`, `net.admin_commands`; spans `net.request`
/// (dispatch → response enqueued) when tracing is enabled, plus an
/// async flow event per traced request (`net.request` keyed by the
/// request's trace_id) that stitches with the client's and engine's
/// flow events into one Perfetto track.
///
/// **Wire version** — the data port speaks `serve::kWireVersion`
/// only; a frame declaring any other version is a protocol violation,
/// answered with a kError frame that names the version.

namespace ba::net {

struct ServerOptions {
  /// Data port; 0 binds a kernel-assigned ephemeral port (read it back
  /// with `port()` — how tests and the check.sh smoke mode avoid
  /// collisions).
  uint16_t port = 0;
  /// Admin port (0 = ephemeral). Only bound when `enable_admin`.
  uint16_t admin_port = 0;
  bool enable_admin = true;
  /// Connections with no traffic and no in-flight requests for this
  /// many seconds are closed; 0 disables the sweep.
  int idle_timeout_sec = 0;

  Status Validate() const;
};

/// \brief TCP front end over one serve::InferenceEngine. Create →
/// Start → (serve) → Stop. `engine` and `ledger` must outlive the
/// server; `ledger` may be null (health then omits the epoch
/// watermark).
class Server {
 public:
  static Result<std::unique_ptr<Server>> Create(
      serve::InferenceEngine* engine, const chain::Ledger* ledger,
      ServerOptions options);

  /// Stops and drains (idempotent with Stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the loop thread and begins accepting.
  Status Start();

  /// Stops accepting, stops the loop, joins the thread, then blocks
  /// until every dispatched ClassifyAsync callback has fired — no
  /// engine callback ever runs against a destroyed server. Idempotent;
  /// callable from any thread except the loop thread itself (the admin
  /// `quit` command instead stops the loop and lets the owner's
  /// Wait()/Stop() finish the teardown).
  void Stop();

  /// Blocks until the loop thread exits (SIGINT via EventLoop::Stop,
  /// or an admin `quit`). The caller still runs Stop() (or the
  /// destructor) afterwards to drain.
  void Wait();

  /// Async-signal-safe stop request (atomic store + eventfd write):
  /// the daemon's SIGINT/SIGTERM handler calls this, then the main
  /// thread's Wait() returns and the owner finishes with Stop().
  void RequestStop() {
    quit_requested_.store(true, std::memory_order_relaxed);
    loop_->Stop();
  }

  /// Bound data / admin ports (valid after Create).
  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }

  /// Lets the daemon observe an admin `quit` asynchronously.
  bool quit_requested() const {
    return quit_requested_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection state. Owned by the loop thread; looked up by id
  /// (never by raw pointer) from posted completions, so a connection
  /// that died with requests in flight is simply absent — its
  /// responses are dropped, never written to a reused fd.
  struct Connection {
    uint64_t id = 0;
    Socket sock;
    bool admin = false;
    serve::FrameDecoder decoder;
    /// Admin byte accumulator (line protocol).
    std::string line;
    /// Outbound bytes not yet accepted by the kernel.
    std::string out;
    size_t out_pos = 0;
    /// EPOLLOUT currently armed.
    bool want_write = false;
    /// Set while ProcessFrames drains a read burst: responses append
    /// to `out` instead of hitting the kernel one by one, and the
    /// whole burst flushes with a single send() at the end — on a
    /// pipelined connection that turns N syscalls into one.
    bool corked = false;
    /// Flush `out`, then close (protocol-error goodbyes).
    bool closing = false;
    /// Fatal condition seen mid-handler (peer reset, slow-consumer
    /// overflow). Handlers only set this; the event entry points do
    /// the actual close, so no raw Connection* is ever left dangling
    /// inside a call chain.
    bool dead = false;
    /// ClassifyAsync dispatches not yet answered.
    int64_t inflight = 0;
    std::chrono::steady_clock::time_point last_active{};
  };

  Server(serve::InferenceEngine* engine,
         const chain::Ledger* ledger, ServerOptions options);

  void OnAcceptable(Socket* listener, bool admin);
  void OnConnectionEvent(uint64_t conn_id, uint32_t events);
  /// Closes the connection if a handler marked it dead (or closing
  /// with everything flushed). Every event entry point ends here.
  void FinishEvent(uint64_t conn_id);
  void OnReadable(Connection* conn);
  void OnWritable(Connection* conn);

  /// Pulls every complete frame out of the decoder and dispatches it.
  void ProcessFrames(Connection* conn);
  void DispatchClassify(Connection* conn, const serve::Frame& frame);
  void HandleAdminLine(Connection* conn, const std::string& line);

  /// Queues bytes on the connection: writes immediately while the
  /// socket accepts them, buffers the rest, arms EPOLLOUT.
  void SendBytes(Connection* conn, std::string_view bytes);
  /// One kError frame carrying `why`, then close-after-flush.
  void SendProtocolError(Connection* conn, uint64_t request_id,
                         const Status& why);

  void CloseConnection(uint64_t conn_id);
  /// Runs on the loop thread (posted from engine callbacks).
  void CompleteClassify(uint64_t conn_id, std::string frame_bytes);
  /// Response bookkeeping + send, without the close check — used
  /// directly when the engine answered synchronously on the loop
  /// thread (cache hits, admission sheds, expired deadlines, invalid
  /// addresses), where `conn` is still held live by the calling
  /// handler and FinishEvent belongs to the event entry point.
  void CompleteClassifyInline(Connection* conn, std::string frame_bytes);
  void SweepIdle();

  std::string HealthJson() const;

  serve::InferenceEngine* engine_;
  const chain::Ledger* ledger_;
  ServerOptions options_;

  std::unique_ptr<EventLoop> loop_;
  Socket data_listener_;
  Socket admin_listener_;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;

  std::thread loop_thread_;
  /// Lets engine callbacks detect they fired synchronously on the loop
  /// thread (cache hits and the shed / reject fast paths) and answer
  /// without the eventfd round trip — for a hit that round trip costs
  /// more than the lookup, and under overload it is most of the shed
  /// latency.
  std::atomic<std::thread::id> loop_thread_id_{};
  /// Serializes the join between Wait() and Stop().
  std::mutex join_mu_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> quit_requested_{false};

  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;

  /// ClassifyAsync callbacks not yet fired, across all connections.
  /// Stop() drains this to zero before tearing the loop down; guarded
  /// by its own mutex because callbacks fire on engine worker threads.
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  int64_t pending_classifies_ = 0;

  struct Instruments {
    obs::Counter* connections_accepted;
    obs::Gauge* connections_active;
    obs::Counter* frames_received;
    obs::Counter* frames_sent;
    obs::Counter* requests;
    obs::Counter* responses;
    obs::Counter* protocol_errors;
    obs::Counter* slow_consumer_drops;
    obs::Counter* admin_commands;
  };
  Instruments net_;
};

}  // namespace ba::net
