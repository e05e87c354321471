#pragma once
// The genasmx_mapd wire protocol: a line-oriented header followed by a
// byte-counted body, in both directions. Byte counting (never sentinel
// lines) is what makes framing robust against hostile payloads — FASTQ
// quality lines can contain any byte, so no in-band terminator is safe.
//
// Requests (client -> server):
//
//   MAP id=<token> bytes=<N> [deadline_ms=<D>]\n   followed by N payload
//       bytes of FASTA/FASTQ. deadline_ms bounds the request's total
//       server-side latency; 0 or absent = no deadline.
//   STATS\n                                        aggregate counters as
//       a JSON body in an OK reply (id "stats").
//   PING\n                                         liveness probe; OK
//       reply (id "ping") with an empty body.
//
// Responses (server -> client):
//
//   OK id=<token> reads=<N> records=<R> bytes=<B> skipped=<S> failed=<F>
//      usec=<U>\n                                  followed by B body
//       bytes (PAF records with cg:Z: CIGARs for MAP, JSON for STATS).
//       skipped counts malformed input records dropped by the server's
//       degradation policy; failed counts reads degraded after per-read
//       mapping failures (both also visible in STATS aggregates).
//   ERR id=<token> code=<kebab-error-code> retry=<0|1> reason=<word>
//      msg=<free text to end of line>\n            no body. code is the
//       PR-8 error taxonomy (common::errorCodeName); retry=1 marks
//       transient conditions (queue-full shedding, deadline expiry)
//       where the client should back off and resend, retry=0 permanent
//       ones (malformed header/payload, oversized request).
//
// Reasons: queue-full, deadline, too-large, bad-header, torn-frame,
// internal. A request id is an opaque token (no whitespace); the server
// echoes it verbatim so clients can pipeline requests per connection.
//
// Header lines are capped in both directions: a line, '\n' included, is
// at most kMaxHeaderLine bytes. A request line that reaches the cap
// without its '\n' gets the same ERR bad-header reply as any other bad
// header, however its bytes were split across reads, and the connection
// ends. formatErrHeader cuts msg so the ERR line fits the cap (ids and
// reasons the server writes are always short enough).
//
// FrameReader splits a byte stream into these frames for both ends:
// MapServer feeds it request bytes, MapClient reply bytes.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "genasmx/common/error.hpp"

namespace gx::server {

/// Longest header line, '\n' included, either side may send.
inline constexpr std::size_t kMaxHeaderLine = 4096;

/// The kMalformedInput status for a header line over kMaxHeaderLine.
[[nodiscard]] common::Status headerLineTooLong();

/// Splits a received byte stream into header lines and byte-counted
/// payloads. It owns no socket: callers append what they receive and ask
/// for the next frame until it stops needing bytes. A payload is built
/// up in place and moved out whole, so it is never held twice.
class FrameReader {
 public:
  enum class Next : std::uint8_t {
    kFrame,     ///< `out` holds the next line (no '\n') or the payload
    kNeedMore,  ///< append more bytes and ask again
    kTooLarge,  ///< the pending line reached kMaxHeaderLine without '\n'
  };

  /// Buffer received bytes. Consumed bytes are dropped here, once per
  /// append, not once per frame: a recv full of small pipelined frames
  /// costs linear, not quadratic, memmove.
  void append(std::string_view bytes) {
    buf_.erase(0, head_);
    head_ = 0;
    buf_.append(bytes);
  }

  /// The next frame is an `n`-byte payload (its header announced it).
  void expectPayload(std::uint64_t n) { want_ = n; }

  /// The next header line, or the expected payload.
  [[nodiscard]] Next next(std::string& out);

  /// True iff part of a frame is held or a payload is still due: EOF
  /// here tears a frame.
  [[nodiscard]] bool midFrame() const noexcept {
    return want_.has_value() || head_ < buf_.size();
  }

 private:
  std::string buf_;                    ///< received; [head_, end) unread
  std::size_t head_ = 0;               ///< bytes of buf_ handed out
  std::string payload_;                ///< the expected payload so far
  std::optional<std::uint64_t> want_;  ///< its size, while one is due
  std::size_t scanned_ = 0;            ///< unread prefix with no '\n'
};

enum class RequestKind : std::uint8_t { kMap, kStats, kPing };

struct RequestHeader {
  RequestKind kind = RequestKind::kMap;
  std::string id;
  std::uint64_t bytes = 0;        ///< payload size (MAP only)
  std::uint64_t deadline_ms = 0;  ///< 0 = no deadline
};

/// Parse one request header line (without the trailing '\n'). Returns a
/// kMalformedInput status naming the defect on any deviation — the
/// server answers those with an ERR bad-header reply and drops the
/// connection, since a client that cannot frame a header cannot be
/// resynchronized in a byte-counted protocol.
[[nodiscard]] common::Status parseRequestHeader(std::string_view line,
                                                RequestHeader& out);

/// Serialize a request header (the client side of the grammar above).
[[nodiscard]] std::string formatRequestHeader(const RequestHeader& h);

struct ResponseHeader {
  bool ok = false;
  std::string id;
  // OK fields.
  std::uint64_t reads = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  ///< body size following the header line
  std::uint64_t skipped = 0;
  std::uint64_t failed = 0;
  std::uint64_t usec = 0;  ///< server-side latency, enqueue to reply
  // ERR fields.
  common::ErrorCode code = common::ErrorCode::kOk;
  bool retry = false;
  std::string reason;
  std::string msg;
};

[[nodiscard]] common::Status parseResponseHeader(std::string_view line,
                                                 ResponseHeader& out);

[[nodiscard]] std::string formatOkHeader(const ResponseHeader& h);
[[nodiscard]] std::string formatErrHeader(std::string_view id,
                                          common::ErrorCode code, bool retry,
                                          std::string_view reason,
                                          std::string_view msg);

/// True iff `id` is a well-formed request id: 1..128 bytes, printable,
/// no whitespace (it must survive a space-delimited header line).
[[nodiscard]] bool validRequestId(std::string_view id) noexcept;

}  // namespace gx::server
