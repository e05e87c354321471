#pragma once
// MapClient — a small blocking client for the genasmx_mapd protocol,
// shared by tests/test_server.cpp and tools/genasmx_loadgen. One client
// owns one connection; requests are issued sequentially (the protocol
// allows pipelining, but every current caller wants request/reply). The
// raw-send helpers exist so fault tests can speak the protocol *badly*
// on purpose: torn frames, garbage headers, half-closed sockets.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "genasmx/common/error.hpp"
#include "genasmx/server/protocol.hpp"

namespace gx::server {

class MapClient {
 public:
  MapClient() = default;
  ~MapClient() { close(); }
  // A move takes the buffered reply bytes along with the connection.
  MapClient(MapClient&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        reader_(std::exchange(other.reader_, {})) {}
  MapClient& operator=(MapClient&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
      reader_ = std::exchange(other.reader_, {});
    }
    return *this;
  }
  MapClient(const MapClient&) = delete;
  MapClient& operator=(const MapClient&) = delete;

  /// Connect to a Unix-domain / TCP(127.0.0.1) listener. kIoTransient on
  /// failure (the server may simply not be up yet; callers retry);
  /// kMalformedInput for a port outside 0..65535.
  [[nodiscard]] common::Status connectUnix(const std::string& path);
  [[nodiscard]] common::Status connectTcp(int port);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// One MAP round-trip: send the request, read the reply (header +
  /// body). On a wire-level failure the returned status is non-ok and
  /// `reply` is unspecified; a server-side ERR reply is a *successful*
  /// round-trip (ok status, reply.ok == false). `body` receives the PAF
  /// payload of an OK reply.
  [[nodiscard]] common::Status map(std::string_view id, std::string_view fastq,
                                   std::uint64_t deadline_ms,
                                   ResponseHeader& reply, std::string& body);

  /// STATS round-trip; `json` receives the server's counters.
  [[nodiscard]] common::Status stats(std::string& json);

  /// PING round-trip.
  [[nodiscard]] common::Status ping();

  // ---- raw helpers for fault tests / the load generator ----

  /// Send exactly these bytes (no framing added). kIoFatal on failure.
  [[nodiscard]] common::Status sendRaw(std::string_view bytes);

  /// Send a MAP header promising `promised_bytes`, then only `sent`
  /// payload bytes, then close: a deliberate torn frame.
  void abortMidFrame(std::string_view id, std::uint64_t promised_bytes,
                     std::string_view sent);

  /// Read one reply (header line + byte-counted body) off the wire.
  [[nodiscard]] common::Status readReply(ResponseHeader& reply,
                                         std::string& body);

 private:
  /// Receive until reader_ yields its next frame into `out`.
  [[nodiscard]] common::Status readFrame(std::string& out);

  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace gx::server
