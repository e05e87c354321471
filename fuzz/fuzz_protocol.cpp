// libFuzzer harness for the genasmx_mapd wire-protocol header parsers.
// The input bytes are one header line, as the server and the client
// hand it over once the trailing '\n' is stripped. Both
// parseRequestHeader and parseResponseHeader must
//   * reject malformed input with a Status, never an exception;
//   * return a header that survives formatRequestHeader /
//     formatOkHeader / formatErrHeader followed by a second parse
//     unchanged. The one documented exception: formatErrHeader maps
//     CR and LF in msg to spaces, so the expected msg is mapped too.
// Any disagreement prints the line and aborts. Build with
// -DGENASMX_FUZZ=ON; without libFuzzer the standalone driver replays the
// committed corpus (fuzz/corpus/protocol/).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "genasmx/common/error.hpp"
#include "genasmx/server/protocol.hpp"

namespace {

using gx::server::RequestHeader;
using gx::server::ResponseHeader;

[[noreturn]] void fail(std::string_view what, std::string_view line,
                       std::string_view formatted) {
  std::fprintf(stderr,
               "fuzz_protocol: %.*s\n  input:     '%.*s'\n"
               "  formatted: '%.*s'\n",
               static_cast<int>(what.size()), what.data(),
               static_cast<int>(line.size()), line.data(),
               static_cast<int>(formatted.size()), formatted.data());
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
  if (!same(h, again)) fail("response header changed", line, formatted);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  // An exception escaping either parser aborts the run: rejections
  // must come back as a Status.
  checkRequest(line);
  checkResponse(line);
  return 0;
}
