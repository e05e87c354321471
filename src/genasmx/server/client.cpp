#include "genasmx/server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gx::server {
namespace {

using common::Error;
using common::ErrorCode;
using common::Status;

Status errnoStatus(ErrorCode code, const std::string& what) {
  return Status(code, what + ": " + std::string(std::strerror(errno)));
}

}  // namespace

void MapClient::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader{};
}

Status MapClient::connectUnix(const std::string& path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status(ErrorCode::kMalformedInput,
                  "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return errnoStatus(ErrorCode::kIoTransient, "socket(AF_UNIX)");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = errnoStatus(ErrorCode::kIoTransient, "connect(" + path + ")");
    close();
    return st;
  }
  return Status();
}

Status MapClient::connectTcp(int port) {
  close();
  if (port < 0 || port > 65535) {
    return Status(ErrorCode::kMalformedInput,
                  "tcp port " + std::to_string(port) +
                      " out of range (0..65535)");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return errnoStatus(ErrorCode::kIoTransient, "socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status st = errnoStatus(
        ErrorCode::kIoTransient, "connect(127.0.0.1:" + std::to_string(port) + ")");
    close();
    return st;
  }
  return Status();
}

Status MapClient::sendRaw(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errnoStatus(ErrorCode::kIoFatal, "send");
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return Status();
}

void MapClient::abortMidFrame(std::string_view id,
                              std::uint64_t promised_bytes,
                              std::string_view sent) {
  (void)sendRaw(formatRequestHeader({.kind = RequestKind::kMap,
                                     .id = std::string(id),
                                     .bytes = promised_bytes}));
  (void)sendRaw(sent);
  close();
}

Status MapClient::readFrame(std::string& out) {
  for (;;) {
    const FrameReader::Next got = reader_.next(out);
    if (got == FrameReader::Next::kFrame) return Status();
    if (got == FrameReader::Next::kTooLarge) return headerLineTooLong();
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status(ErrorCode::kIoFatal,
                    reader_.midFrame() ? "server closed mid-frame"
                                       : "server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return errnoStatus(ErrorCode::kIoFatal, "recv");
    }
    reader_.append({buf, static_cast<std::size_t>(n)});
  }
}

Status MapClient::readReply(ResponseHeader& reply, std::string& body) {
  std::string line;
  Status st = readFrame(line);
  if (!st.ok()) return st;
  st = parseResponseHeader(line, reply);
  if (!st.ok()) return st;
  body.clear();
  if (!reply.ok || reply.bytes == 0) return Status();
  reader_.expectPayload(reply.bytes);
  return readFrame(body);
}

Status MapClient::map(std::string_view id, std::string_view fastq,
                      std::uint64_t deadline_ms, ResponseHeader& reply,
                      std::string& body) {
  Status st = sendRaw(formatRequestHeader({.kind = RequestKind::kMap,
                                           .id = std::string(id),
                                           .bytes = fastq.size(),
                                           .deadline_ms = deadline_ms}));
  if (!st.ok()) return st;
  st = sendRaw(fastq);
  if (!st.ok()) {
    // A server that rejects the header (too-large) replies and closes
    // without reading the payload, so the send can fail after the reply
    // is already queued here: prefer that reply to the send error.
    return readReply(reply, body).ok() ? Status() : st;
  }
  return readReply(reply, body);
}

Status MapClient::stats(std::string& json) {
  RequestHeader h;
  h.kind = RequestKind::kStats;
  Status st = sendRaw(formatRequestHeader(h));
  if (!st.ok()) return st;
  ResponseHeader reply;
  st = readReply(reply, json);
  if (!st.ok()) return st;
  if (!reply.ok) {
    return Status(reply.code, "STATS refused: " + reply.msg);
  }
  return Status();
}

Status MapClient::ping() {
  RequestHeader h;
  h.kind = RequestKind::kPing;
  Status st = sendRaw(formatRequestHeader(h));
  if (!st.ok()) return st;
  ResponseHeader reply;
  std::string body;
  st = readReply(reply, body);
  if (!st.ok()) return st;
  if (!reply.ok) return Status(reply.code, "PING refused: " + reply.msg);
  return Status();
}

}  // namespace gx::server
