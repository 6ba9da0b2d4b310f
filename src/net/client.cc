#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.h"

namespace ba::net {

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               double timeout_seconds) {
  BA_ASSIGN_OR_RETURN(Socket sock, ConnectTcp(host, port));
  BA_RETURN_NOT_OK(SetNoDelay(sock.fd()));
  if (timeout_seconds > 0) {
    BA_RETURN_NOT_OK(SetRecvTimeout(sock.fd(), timeout_seconds));
  }
  return Client(std::move(sock));
}

Status Client::SendRaw(std::string_view bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n = ::send(sock_.fd(), bytes.data() + offset,
                             bytes.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("send: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status Client::Send(uint64_t request_id, uint64_t address,
                    const serve::ClassifyOptions& options) {
  serve::ClassifyRequest req;
  req.request_id = request_id;
  req.address = address;
  req.options = options;
  return SendRaw(serve::EncodeFrame(
      serve::MessageType::kClassifyRequest,
      req.EncodePayload(std::chrono::steady_clock::now())));
}

Result<serve::ClassifyResponse> Client::ReadResponse() {
  char buf[16 * 1024];
  while (true) {
    serve::Frame frame;
    BA_ASSIGN_OR_RETURN(const bool have, decoder_.Next(&frame));
    if (have) {
      if (frame.type != serve::MessageType::kClassifyResponse &&
          frame.type != serve::MessageType::kError) {
        return Status::Internal(
            "client: unexpected frame type " +
            std::to_string(static_cast<int>(frame.type)));
      }
      serve::ClassifyResponse resp;
      BA_RETURN_NOT_OK(serve::ClassifyResponse::Decode(frame.payload, &resp));
      return resp;
    }
    const ssize_t n = ::recv(sock_.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::Internal(
          "client: server closed the connection");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded(
          "client: read timed out waiting for a response frame");
    }
    return Status::Internal(std::string("recv: ") +
                            std::strerror(errno));
  }
}

Result<serve::ClassifyResult> Client::Classify(
    uint64_t address, const serve::ClassifyOptions& options) {
  obs::Tracer& tracer = obs::Tracer::Instance();
  const int64_t start_ns = (options.trace_id != 0 && tracer.enabled())
                               ? obs::Tracer::NowNs()
                               : -1;
  const uint64_t id = next_request_id_++;
  BA_RETURN_NOT_OK(Send(id, address, options));
  BA_ASSIGN_OR_RETURN(const serve::ClassifyResponse resp, ReadResponse());
  if (start_ns >= 0) {
    // The client's extent of the request flow: send → response read.
    tracer.RecordAsync("net.client.request", options.trace_id, start_ns,
                       obs::Tracer::NowNs() - start_ns);
  }
  if (resp.request_id != id) {
    return Status::Internal(
        "client: response correlates to request " +
        std::to_string(resp.request_id) + ", expected " +
        std::to_string(id) +
        " (pipelined reads must use Send/ReadResponse)");
  }
  return resp.ToResult();
}

Status Client::ShutdownWrite() {
  if (::shutdown(sock_.fd(), SHUT_WR) != 0) {
    return Status::Internal(std::string("shutdown: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Result<std::string> Client::AdminCommand(const std::string& host,
                                         uint16_t port,
                                         const std::string& command,
                                         double timeout_seconds) {
  BA_ASSIGN_OR_RETURN(Socket sock, ConnectTcp(host, port));
  if (timeout_seconds > 0) {
    BA_RETURN_NOT_OK(SetRecvTimeout(sock.fd(), timeout_seconds));
  }
  const std::string line = command + "\n";
  size_t offset = 0;
  while (offset < line.size()) {
    const ssize_t n = ::send(sock.fd(), line.data() + offset,
                             line.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("send: ") +
                            std::strerror(errno));
  }
  std::string reply;
  char buf[16 * 1024];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      reply.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;  // server closed after replying (quit)
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded(
          "admin: read timed out waiting for a reply line");
    }
    return Status::Internal(std::string("recv: ") +
                            std::strerror(errno));
  }
  const size_t nl = reply.find('\n');
  if (nl != std::string::npos) reply.resize(nl);
  if (reply.empty()) {
    return Status::Internal("admin: connection closed with no reply");
  }
  return reply;
}

}  // namespace ba::net
