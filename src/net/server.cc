#include "net/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace ba::net {
namespace {

/// Per-event read cap: level-triggered epoll re-notifies, so a
/// firehose peer shares the loop instead of starving it.
constexpr int kMaxReadsPerEvent = 4;
constexpr size_t kReadChunk = 64 * 1024;
constexpr size_t kMaxAdminLine = 4096;
/// Outbound bytes a connection may have pending before it is dropped
/// as a slow consumer.
constexpr size_t kMaxWriteBuffer = 8u << 20;

/// Best effort: the request_id is the first 8 payload bytes; a payload
/// too short to carry one answers with id 0.
uint64_t PeekRequestId(const std::string& payload) {
  if (payload.size() < sizeof(uint64_t)) return 0;
  uint64_t id = 0;
  std::memcpy(&id, payload.data(), sizeof(id));
  return id;
}

}  // namespace

Status ServerOptions::Validate() const {
  if (idle_timeout_sec < 0) {
    return Status::InvalidArgument(
        "ServerOptions.idle_timeout_sec must be >= 0, got " +
        std::to_string(idle_timeout_sec));
  }
  return Status::OK();
}

Server::Server(serve::InferenceEngine* engine,
               const chain::Ledger* ledger, ServerOptions options)
    : engine_(engine), ledger_(ledger), options_(options) {
  auto& reg = obs::MetricsRegistry::Instance();
  net_.connections_accepted = reg.GetCounter("net.connections_accepted");
  net_.connections_active = reg.GetGauge("net.connections_active");
  net_.frames_received = reg.GetCounter("net.frames_received");
  net_.frames_sent = reg.GetCounter("net.frames_sent");
  net_.requests = reg.GetCounter("net.requests");
  net_.responses = reg.GetCounter("net.responses");
  net_.protocol_errors = reg.GetCounter("net.protocol_errors");
  net_.slow_consumer_drops = reg.GetCounter("net.slow_consumer_drops");
  net_.admin_commands = reg.GetCounter("net.admin_commands");
}

Result<std::unique_ptr<Server>> Server::Create(
    serve::InferenceEngine* engine, const chain::Ledger* ledger,
    ServerOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("Server: engine must not be null");
  }
  BA_RETURN_NOT_OK(options.Validate());
  auto server = std::unique_ptr<Server>(
      new Server(engine, ledger, options));
  BA_ASSIGN_OR_RETURN(server->loop_, EventLoop::Create());

  BA_ASSIGN_OR_RETURN(server->data_listener_, ListenTcp(options.port));
  BA_RETURN_NOT_OK(SetNonBlocking(server->data_listener_.fd()));
  BA_ASSIGN_OR_RETURN(server->port_,
                      LocalPort(server->data_listener_.fd()));
  Server* raw = server.get();
  BA_RETURN_NOT_OK(server->loop_->Add(
      server->data_listener_.fd(), EPOLLIN, [raw](uint32_t) {
        raw->OnAcceptable(&raw->data_listener_, /*admin=*/false);
      }));

  if (options.enable_admin) {
    BA_ASSIGN_OR_RETURN(server->admin_listener_,
                        ListenTcp(options.admin_port));
    BA_RETURN_NOT_OK(SetNonBlocking(server->admin_listener_.fd()));
    BA_ASSIGN_OR_RETURN(server->admin_port_,
                        LocalPort(server->admin_listener_.fd()));
    BA_RETURN_NOT_OK(server->loop_->Add(
        server->admin_listener_.fd(), EPOLLIN, [raw](uint32_t) {
          raw->OnAcceptable(&raw->admin_listener_, /*admin=*/true);
        }));
  }
  if (options.idle_timeout_sec > 0) {
    server->loop_->SetTick([raw] { raw->SweepIdle(); }, /*period_ms=*/1000);
  }
  return server;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("Server: already started");
  }
  loop_thread_ = std::thread([this] {
    loop_thread_id_.store(std::this_thread::get_id(),
                          std::memory_order_relaxed);
    loop_->Run();
  });
  return Status::OK();
}

void Server::Wait() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  loop_->Stop();
  Wait();
  // Engine callbacks still in flight capture `this` and post to the
  // loop; both must stay alive until the last one has fired.
  {
    std::unique_lock<std::mutex> lock(pending_mu_);
    pending_cv_.wait(lock, [this] { return pending_classifies_ == 0; });
  }
  // Loop thread is dead: connection state is ours to tear down.
  for (auto& [id, conn] : conns_) {
    loop_->Remove(conn->sock.fd());
    net_.connections_active->Add(-1);
  }
  conns_.clear();
}

void Server::OnAcceptable(Socket* listener, bool admin) {
  while (true) {
    const int fd = ::accept(listener->fd(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN: drained (other errnos: retry on
                         // the next level-triggered notification)
    if (!SetNonBlocking(fd).ok() || (!admin && !SetNoDelay(fd).ok())) {
      ::close(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->id = id;
    conn->sock = Socket(fd);
    conn->admin = admin;
    conn->last_active = std::chrono::steady_clock::now();
    const Status added = loop_->Add(
        fd, EPOLLIN,
        [this, id](uint32_t events) { OnConnectionEvent(id, events); });
    if (!added.ok()) continue;  // conn's Socket closes the fd
    conns_[id] = std::move(conn);
    net_.connections_accepted->Increment();
    net_.connections_active->Add(1);
  }
}

void Server::FinishEvent(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if (conn->dead ||
      (conn->closing && conn->out_pos >= conn->out.size())) {
    CloseConnection(conn_id);
  }
}

void Server::OnConnectionEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConnection(conn_id);
    return;
  }
  if ((events & EPOLLIN) != 0) OnReadable(conn);
  if ((events & EPOLLOUT) != 0 && !conn->dead) OnWritable(conn);
  FinishEvent(conn_id);
}

void Server::OnReadable(Connection* conn) {
  char buf[kReadChunk];
  conn->last_active = std::chrono::steady_clock::now();
  for (int round = 0; round < kMaxReadsPerEvent && !conn->dead &&
                      !conn->closing;
       ++round) {
    const ssize_t n = ::read(conn->sock.fd(), buf, sizeof(buf));
    if (n > 0) {
      if (conn->admin) {
        conn->line.append(buf, static_cast<size_t>(n));
        if (conn->line.size() > kMaxAdminLine) {
          net_.protocol_errors->Increment();
          SendBytes(conn, "ERR admin line exceeds 4096 bytes\n");
          conn->closing = true;
          break;
        }
        size_t nl = 0;
        while (!conn->dead && !conn->closing &&
               (nl = conn->line.find('\n')) != std::string::npos) {
          std::string line = conn->line.substr(0, nl);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          conn->line.erase(0, nl + 1);
          HandleAdminLine(conn, line);
        }
      } else {
        conn->decoder.Append(buf, static_cast<size_t>(n));
      }
      if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained
      continue;
    }
    if (n == 0) {  // peer closed; in-flight responses will be dropped
      conn->dead = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->dead = true;
    return;
  }
  if (!conn->admin && !conn->dead) ProcessFrames(conn);
}

void Server::ProcessFrames(Connection* conn) {
  conn->corked = true;  // one flush for the whole burst of responses
  while (!conn->closing && !conn->dead) {
    serve::Frame frame;
    Result<bool> next = conn->decoder.Next(&frame);
    if (!next.ok()) {
      // Corrupt stream: one diagnostic frame, then goodbye. The
      // decoder is sticky-failed, so nothing further decodes.
      net_.protocol_errors->Increment();
      SendProtocolError(conn, 0, next.status());
      conn->closing = true;
      break;
    }
    if (!next.value()) break;  // incomplete: wait for more bytes
    net_.frames_received->Increment();
    switch (frame.type) {
      case serve::MessageType::kClassifyRequest:
        DispatchClassify(conn, frame);
        break;
      default:
        net_.protocol_errors->Increment();
        SendProtocolError(
            conn, PeekRequestId(frame.payload),
            Status::InvalidArgument(
                "unsupported message type " +
                std::to_string(static_cast<int>(frame.type))));
        break;
    }
  }
  conn->corked = false;
  if (!conn->dead && conn->out_pos < conn->out.size()) {
    OnWritable(conn);  // uncork: flush the burst in one send
  }
}

void Server::DispatchClassify(Connection* conn,
                              const serve::Frame& frame) {
  serve::ClassifyRequest req;
  const Status decoded = serve::ClassifyRequest::Decode(
      frame.payload, std::chrono::steady_clock::now(), &req);
  if (!decoded.ok()) {
    // The frame itself was well-formed (magic/CRC passed), so the
    // connection survives — only this request is answered with an
    // error.
    net_.protocol_errors->Increment();
    SendProtocolError(conn, PeekRequestId(frame.payload), decoded);
    return;
  }
  net_.requests->Increment();
  // Stamp the connection id as the in-process client identity: the
  // engine's sweep detector keys its per-client miss streaks on it.
  // Never decoded from the wire — a client cannot claim another
  // connection's identity.
  req.options.client_id = conn->id;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    ++pending_classifies_;
  }
  ++conn->inflight;
  auto& tracer = obs::Tracer::Instance();
  const int64_t start_ns = tracer.enabled() ? obs::Tracer::NowNs() : -1;
  const uint64_t conn_id = conn->id;
  const uint64_t request_id = req.request_id;
  engine_->ClassifyAsync(
      static_cast<chain::AddressId>(req.address), req.options,
      [this, conn, conn_id, request_id, start_ns](
          Result<serve::ClassifyResult> outcome,
          const serve::RequestTimeline& tl) {
        // Runs synchronously right here on the loop thread for
        // everything the engine decides at submit — cache hits (most
        // of a polling fleet's traffic), admission sheds, expired
        // deadlines, invalid addresses — so a hit or a shed answers
        // within microseconds of the decision. Only a miss completes
        // later, on an engine worker thread.
        std::string frame_bytes = serve::EncodeFrame(
            serve::MessageType::kClassifyResponse,
            serve::ClassifyResponse::From(request_id, outcome, tl)
                .EncodePayload());
        if (start_ns >= 0) {
          const int64_t end_ns = obs::Tracer::NowNs();
          obs::Tracer::Instance().RecordComplete("net.request", start_ns,
                                                 end_ns - start_ns);
          // Flow event keyed by the request's trace context — stitches
          // with the engine's serve.request and the client's
          // net.client.request extents in Perfetto.
          obs::Tracer::Instance().RecordAsync("net.request", tl.trace_id,
                                              start_ns, end_ns - start_ns);
        }
        if (std::this_thread::get_id() ==
            loop_thread_id_.load(std::memory_order_relaxed)) {
          // Synchronous: we are still inside DispatchClassify, so
          // `conn` is alive and the caller's event entry point owns
          // the FinishEvent. Answering directly skips an eventfd wake
          // plus a task-queue round — which would cost a hit more than
          // its lookup, and under a shed flood dominates the
          // client-observed rejection latency.
          CompleteClassifyInline(conn, std::move(frame_bytes));
        } else {
          loop_->Post([this, conn_id, frame_bytes]() mutable {
            CompleteClassify(conn_id, std::move(frame_bytes));
          });
        }
        // Last touch of `this`: once pending hits zero, Stop() may
        // tear the server down.
        std::lock_guard<std::mutex> lock(pending_mu_);
        --pending_classifies_;
        pending_cv_.notify_all();
      });
}

void Server::CompleteClassify(uint64_t conn_id, std::string frame_bytes) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died before the answer
  CompleteClassifyInline(it->second.get(), std::move(frame_bytes));
  FinishEvent(conn_id);
}

void Server::CompleteClassifyInline(Connection* conn,
                                    std::string frame_bytes) {
  --conn->inflight;
  net_.responses->Increment();
  net_.frames_sent->Increment();
  SendBytes(conn, frame_bytes);
}

void Server::HandleAdminLine(Connection* conn, const std::string& line) {
  net_.admin_commands->Increment();
  std::istringstream is(line);
  std::string cmd;
  is >> cmd;
  if (cmd == "metrics") {
    SendBytes(conn,
              obs::MetricsRegistry::Instance().JsonExposition() + "\n");
  } else if (cmd == "health") {
    SendBytes(conn, HealthJson() + "\n");
  } else if (cmd == "trace") {
    std::string verb;
    is >> verb;
    if (verb == "start") {
      obs::Tracer::Instance().Enable();
      SendBytes(conn, "OK tracing enabled\n");
    } else if (verb == "stop") {
      obs::Tracer::Instance().Disable();
      SendBytes(conn, "OK tracing disabled\n");
    } else if (verb == "save") {
      std::string path;
      is >> path;
      if (path.empty()) {
        SendBytes(conn, "ERR usage: trace save <path>\n");
      } else {
        const Status saved = obs::Tracer::Instance().Save(path);
        SendBytes(conn, saved.ok() ? "OK trace saved to " + path + "\n"
                                   : "ERR " + saved.message() + "\n");
      }
    } else {
      SendBytes(conn, "ERR usage: trace start|stop|save <path>\n");
    }
  } else if (cmd == "slowlog") {
    size_t max_entries = 32;
    if (size_t n = 0; is >> n) max_entries = std::max<size_t>(n, 1);
    // The engine composes the payload — the server never reaches into
    // its recorders.
    SendBytes(conn, engine_->SlowlogJson(max_entries) + "\n");
  } else if (cmd == "timeline") {
    std::string arg;
    is >> arg;
    const uint64_t trace_id = std::strtoull(arg.c_str(), nullptr, 0);
    if (trace_id == 0) {
      SendBytes(conn, "ERR usage: timeline <trace_id>\n");
    } else {
      std::optional<serve::FlightRecorder::Entry> hit =
          engine_->FindTimeline(trace_id);
      SendBytes(conn, hit.has_value()
                          ? hit->ToJson() + "\n"
                          : "{\"error\":\"trace_id not found\","
                            "\"trace_id\":" +
                                std::to_string(trace_id) + "}\n");
    }
  } else if (cmd == "quit") {
    SendBytes(conn, "bye\n");
    conn->closing = true;
    quit_requested_.store(true, std::memory_order_relaxed);
    // Stops the loop; the owner (daemon main) observes Wait() return
    // and finishes the teardown — Stop() joins, so it cannot run here.
    loop_->Stop();
  } else if (cmd.empty()) {
    // Blank line: ignore (lets `printf 'health\n\n' | nc` work).
  } else {
    SendBytes(conn, "ERR unknown command '" + cmd +
                        "' (try: metrics, health, trace, slowlog, "
                        "timeline, quit)\n");
  }
}

std::string Server::HealthJson() const {
  const auto snapshot = engine_->Metrics();
  std::ostringstream os;
  os << "{\"status\":\"ok\",\"admission\":\"" << snapshot.admission_state
     << "\",\"requests\":" << snapshot.requests
     << ",\"shed\":" << snapshot.shed;
  if (ledger_ != nullptr) {
    os << ",\"epoch_height\":" << ledger_->height()
       << ",\"epoch_transactions\":" << ledger_->num_transactions();
  }
  os << ",\"connections\":" << conns_.size() << "}";
  return os.str();
}

void Server::SendBytes(Connection* conn, std::string_view bytes) {
  if (conn->dead) return;
  size_t offset = 0;
  // Fast path: nothing buffered and not corked — hand bytes straight
  // to the kernel.
  if (!conn->corked && conn->out_pos >= conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
    while (offset < bytes.size()) {
      const ssize_t n = ::send(conn->sock.fd(), bytes.data() + offset,
                               bytes.size() - offset, MSG_NOSIGNAL);
      if (n > 0) {
        offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      conn->dead = true;  // peer gone mid-write
      return;
    }
    if (offset == bytes.size()) return;
  }
  conn->out.append(bytes.data() + offset, bytes.size() - offset);
  if (conn->out.size() - conn->out_pos > kMaxWriteBuffer) {
    // The peer stopped reading; buffering further would let one slow
    // consumer hold the server's memory hostage.
    net_.slow_consumer_drops->Increment();
    conn->dead = true;
    return;
  }
  // Corked: the uncork flush at the end of ProcessFrames arms
  // EPOLLOUT if anything is left over.
  if (!conn->corked && !conn->want_write) {
    conn->want_write = true;
    if (!loop_->Modify(conn->sock.fd(), EPOLLIN | EPOLLOUT).ok()) {
      conn->dead = true;
    }
  }
}

void Server::OnWritable(Connection* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n =
        ::send(conn->sock.fd(), conn->out.data() + conn->out_pos,
               conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full mid-flush; make sure EPOLLOUT is armed
      // (it won't be when called as the uncork flush).
      if (!conn->want_write) {
        conn->want_write = true;
        if (!loop_->Modify(conn->sock.fd(), EPOLLIN | EPOLLOUT).ok()) {
          conn->dead = true;
        }
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    conn->dead = true;
    return;
  }
  conn->out.clear();
  conn->out_pos = 0;
  if (conn->closing) return;  // FinishEvent closes now that we flushed
  if (conn->want_write) {
    conn->want_write = false;
    if (!loop_->Modify(conn->sock.fd(), EPOLLIN).ok()) {
      conn->dead = true;
    }
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_->Remove(it->second->sock.fd());
  conns_.erase(it);
  net_.connections_active->Add(-1);
  // Drop the engine's sweep-detector state keyed on this connection id.
  engine_->ForgetClient(conn_id);
}

void Server::SendProtocolError(Connection* conn, uint64_t request_id,
                               const Status& why) {
  serve::ClassifyResponse resp;
  resp.request_id = request_id;
  resp.code = static_cast<int32_t>(why.code());
  resp.message = why.message();
  if (resp.message.size() > serve::kMaxWireMessage) {
    resp.message.resize(serve::kMaxWireMessage);
  }
  net_.frames_sent->Increment();
  SendBytes(conn, serve::EncodeFrame(serve::MessageType::kError,
                                     resp.EncodePayload()));
}

void Server::SweepIdle() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::seconds(options_.idle_timeout_sec);
  std::vector<uint64_t> stale;
  for (const auto& [id, conn] : conns_) {
    if (conn->inflight == 0 && conn->out_pos >= conn->out.size() &&
        now - conn->last_active > limit) {
      stale.push_back(id);
    }
  }
  for (const uint64_t id : stale) CloseConnection(id);
}

}  // namespace ba::net
