// libFuzzer harness for the genasmx_mapd wire protocol: the header
// parsers and the FrameReader both ends frame the byte stream with.
//
// Headers: the input bytes are one header line, as the server and the
// client hand it over once the trailing '\n' is stripped. Both
// parseRequestHeader and parseResponseHeader must
//   * reject malformed input with a Status, never an exception;
//   * return a header that survives formatRequestHeader /
//     formatOkHeader / formatErrHeader followed by a second parse
//     unchanged. The documented exceptions: formatErrHeader maps CR and
//     LF in msg to spaces and cuts msg so the line fits kMaxHeaderLine,
//     so the expected msg is mapped and cut too.
//
// Framing: the same bytes as a client's request stream, read the way
// the server reads it (a line; the payload a MAP line announces, if it
// is small; stop at a too-large line or a header the grammar rejects).
// Fed whole, one byte at a time, and in chunk sizes taken from the
// input, the reader must yield the same (line, payload) events and end
// in the same state, and the events must spell out a prefix of the
// stream.
//
// Any disagreement prints the input and aborts. Build with
// -DGENASMX_FUZZ=ON; without libFuzzer the standalone driver replays the
// committed corpus (fuzz/corpus/protocol/).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/common/error.hpp"
#include "genasmx/server/protocol.hpp"

namespace {

using gx::server::FrameReader;
using gx::server::kMaxHeaderLine;
using gx::server::RequestHeader;
using gx::server::ResponseHeader;

/// Prints the check that failed, the input and what the code made of it
/// (each cut to 512 bytes), then aborts.
[[noreturn]] void fail(std::string_view what, std::string_view input,
                       std::string_view output) {
  const auto shown = [](std::string_view s) {
    return static_cast<int>(std::min<std::size_t>(s.size(), 512));
  };
  std::fprintf(stderr,
               "fuzz_protocol: %.*s\n  input:  %zu bytes '%.*s'\n"
               "  output: %zu bytes '%.*s'\n",
               static_cast<int>(what.size()), what.data(), input.size(),
               shown(input), input.data(), output.size(), shown(output),
               output.data());
  std::abort();
}

/// A formatted header without its line terminator, as the reader sees it.
std::string_view stripNewline(std::string_view s) {
  if (!s.empty() && s.back() == '\n') s.remove_suffix(1);
  return s;
}

bool same(const RequestHeader& a, const RequestHeader& b) {
  return a.kind == b.kind && a.id == b.id && a.bytes == b.bytes &&
         a.deadline_ms == b.deadline_ms;
}

bool same(const ResponseHeader& a, const ResponseHeader& b) {
  return a.ok == b.ok && a.id == b.id && a.reads == b.reads &&
         a.records == b.records && a.bytes == b.bytes &&
         a.skipped == b.skipped && a.failed == b.failed && a.usec == b.usec &&
         a.code == b.code && a.retry == b.retry && a.reason == b.reason &&
         a.msg == b.msg;
}

void checkRequest(std::string_view line) {
  RequestHeader h;
  if (!gx::server::parseRequestHeader(line, h).ok()) return;
  const std::string formatted = gx::server::formatRequestHeader(h);
  RequestHeader again;
  if (!gx::server::parseRequestHeader(stripNewline(formatted), again).ok()) {
    fail("formatted request header rejected", line, formatted);
  }
  if (!same(h, again)) fail("request header changed", line, formatted);
}

void checkResponse(std::string_view line) {
  ResponseHeader h;
  if (!gx::server::parseResponseHeader(line, h).ok()) return;
  const std::string formatted =
      h.ok ? gx::server::formatOkHeader(h)
           : gx::server::formatErrHeader(h.id, h.code, h.retry, h.reason,
                                         h.msg);
  ResponseHeader again;
  if (!gx::server::parseResponseHeader(stripNewline(formatted), again).ok()) {
    fail("formatted response header rejected", line, formatted);
  }
  for (char& c : h.msg) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  if (!h.ok) {
    // The line without msg; whatever room it leaves is msg's.
    const std::size_t bare =
        gx::server::formatErrHeader(h.id, h.code, h.retry, h.reason, "")
            .size();
    h.msg.resize(std::min(h.msg.size(),
                          kMaxHeaderLine - std::min(kMaxHeaderLine, bare)));
    if (bare <= kMaxHeaderLine && formatted.size() > kMaxHeaderLine) {
      fail("ERR line over the header cap", line, formatted);
    }
  }
  if (!same(h, again)) fail("response header changed", line, formatted);
}

/// Largest MAP payload the framing driver reads; a bigger one stops it,
/// as the server stops at max_request_bytes.
constexpr std::uint64_t kMaxPayload = 256;

enum class Stop { kNeedMore, kTooLarge, kBadHeader, kBigPayload };

struct Framing {
  std::vector<std::string> events;  ///< "L" + line or "P" + payload
  std::size_t consumed = 0;         ///< stream bytes the events cover
  Stop stop = Stop::kNeedMore;
  bool payload_due = false;  ///< a MAP line's payload is still unread
  bool mid_frame = false;    ///< after the whole stream was appended

  bool operator==(const Framing&) const = default;
};

/// Read `stream` as the server does, appending it in pieces of
/// chunk(0), chunk(1), ... bytes whenever the reader needs more.
template <typename Chunk>
Framing frame(std::string_view stream, Chunk chunk) {
  FrameReader reader;
  Framing f;
  std::size_t fed = 0;
  const auto feed = [&](std::size_t n) {
    n = std::min(n, stream.size() - fed);
    reader.append(stream.substr(fed, n));
    fed += n;
  };
  bool payload = false;
  std::string out;
  for (std::size_t piece = 0;;) {
    const FrameReader::Next got = reader.next(out);
    if (got == FrameReader::Next::kTooLarge) {
      f.stop = Stop::kTooLarge;
      break;
    }
    if (got == FrameReader::Next::kNeedMore) {
      if (fed == stream.size()) break;
      feed(chunk(piece++));
      continue;
    }
    f.events.push_back((payload ? "P" : "L") + out);
    f.consumed += out.size() + (payload ? 0 : 1);
    if (payload) {
      payload = false;
      continue;
    }
    RequestHeader h;
    if (!gx::server::parseRequestHeader(out, h).ok()) {
      f.stop = Stop::kBadHeader;
      break;
    }
    if (h.kind != gx::server::RequestKind::kMap) continue;
    if (h.bytes > kMaxPayload) {
      f.stop = Stop::kBigPayload;
      break;
    }
    reader.expectPayload(h.bytes);
    payload = true;
  }
  f.payload_due = payload;
  feed(stream.size());  // the rest, so mid_frame does not depend on chunks
  f.mid_frame = reader.midFrame();
  return f;
}

void checkFraming(std::string_view stream) {
  const Framing whole =
      frame(stream, [](std::size_t) { return ~std::size_t{0}; });
  const Framing bytes =
      frame(stream, [](std::size_t) { return std::size_t{1}; });
  const Framing mixed = frame(stream, [&](std::size_t i) {
    return 1 + static_cast<std::size_t>(
                   static_cast<unsigned char>(stream[i % stream.size()]));
  });
  if (!(whole == bytes)) fail("byte-at-a-time framing differs", stream, "");
  if (!(whole == mixed)) fail("chunked framing differs", stream, "");

  // The events spell out the stream's prefix: lines with their '\n'.
  std::string spelled;
  for (const std::string& e : whole.events) {
    const std::string_view body = std::string_view(e).substr(1);
    if (e[0] == 'L' && (body.size() >= kMaxHeaderLine ||
                        body.find('\n') != std::string_view::npos)) {
      fail("line over the cap or with a newline", stream, e);
    }
    spelled += body;
    if (e[0] == 'L') spelled += '\n';
  }
  if (spelled.size() != whole.consumed ||
      stream.substr(0, spelled.size()) != spelled) {
    fail("frames do not spell the stream", stream, spelled);
  }
  const std::string_view rest = stream.substr(whole.consumed);
  if (whole.stop == Stop::kTooLarge &&
      (rest.size() < kMaxHeaderLine ||
       rest.substr(0, kMaxHeaderLine).find('\n') != std::string_view::npos)) {
    fail("too-large below the cap", stream, rest);
  }
  if (whole.stop == Stop::kNeedMore &&
      whole.mid_frame != (!rest.empty() || whole.payload_due)) {
    fail("midFrame disagrees with the unread bytes", stream, rest);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  // An exception escaping either parser aborts the run: rejections
  // must come back as a Status.
  checkRequest(line);
  checkResponse(line);
  checkFraming(line);
  return 0;
}
