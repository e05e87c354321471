#include "genasmx/server/protocol.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace gx::server {
namespace {

using common::ErrorCode;
using common::Status;

Status malformed(const std::string& why) {
  return Status(ErrorCode::kMalformedInput, "protocol: " + why);
}

/// Split a header line on single spaces. Empty tokens (double spaces,
/// trailing space) are rejected by the callers' token checks.
std::vector<std::string_view> splitTokens(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    std::size_t sp = line.find(' ', pos);
    if (sp == std::string_view::npos) sp = line.size();
    out.push_back(line.substr(pos, sp - pos));
    pos = sp + 1;
  }
  return out;
}

bool parseU64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (~std::uint64_t{0} - static_cast<std::uint64_t>(c - '0')) / 10) {
      return false;
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

/// "key=value" -> (key, value); false if there is no '='.
bool splitKv(std::string_view tok, std::string_view& key,
             std::string_view& value) {
  const std::size_t eq = tok.find('=');
  if (eq == std::string_view::npos) return false;
  key = tok.substr(0, eq);
  value = tok.substr(eq + 1);
  return true;
}

ErrorCode codeFromName(std::string_view name) {
  for (std::size_t i = 0; i < common::kErrorCodeCount; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    if (common::errorCodeName(code) == name) return code;
  }
  return ErrorCode::kInternal;  // unknown code still parses as an error
}

}  // namespace

Status headerLineTooLong() {
  return malformed("header line longer than " +
                   std::to_string(kMaxHeaderLine - 1) + " bytes");
}

FrameReader::Next FrameReader::next(std::string& out) {
  const std::string_view unread = std::string_view(buf_).substr(head_);
  if (want_) {
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(*want_ - payload_.size(), unread.size()));
    payload_.append(unread.substr(0, take));
    head_ += take;
    if (payload_.size() < *want_) return Next::kNeedMore;
    out = std::exchange(payload_, {});
    want_.reset();
    return Next::kFrame;
  }
  const std::size_t limit = std::min(unread.size(), kMaxHeaderLine);
  const std::size_t nl = unread.substr(0, limit).find('\n', scanned_);
  if (nl == std::string_view::npos) {
    scanned_ = limit;
    return limit == kMaxHeaderLine ? Next::kTooLarge : Next::kNeedMore;
  }
  out.assign(unread.substr(0, nl));
  head_ += nl + 1;
  scanned_ = 0;
  return Next::kFrame;
}

bool validRequestId(std::string_view id) noexcept {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    if (c <= ' ' || c > '~') return false;  // printable, no whitespace
  }
  return true;
}

Status parseRequestHeader(std::string_view line, RequestHeader& out) {
  out = RequestHeader{};
  const auto toks = splitTokens(line);
  if (toks.empty() || toks[0].empty()) return malformed("empty request line");
  if (toks[0] == "STATS") {
    if (toks.size() != 1) return malformed("STATS takes no arguments");
    out.kind = RequestKind::kStats;
    out.id = "stats";
    return {};
  }
  if (toks[0] == "PING") {
    if (toks.size() != 1) return malformed("PING takes no arguments");
    out.kind = RequestKind::kPing;
    out.id = "ping";
    return {};
  }
  if (toks[0] != "MAP") {
    return malformed("unknown verb '" + std::string(toks[0]) + "'");
  }
  out.kind = RequestKind::kMap;
  bool have_id = false;
  bool have_bytes = false;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!splitKv(toks[i], key, value)) {
      return malformed("bad token '" + std::string(toks[i]) +
                       "' (want key=value)");
    }
    if (key == "id") {
      if (!validRequestId(value)) return malformed("bad request id");
      out.id = std::string(value);
      have_id = true;
    } else if (key == "bytes") {
      if (!parseU64(value, out.bytes)) return malformed("bad bytes value");
      have_bytes = true;
    } else if (key == "deadline_ms") {
      if (!parseU64(value, out.deadline_ms)) {
        return malformed("bad deadline_ms value");
      }
    } else {
      return malformed("unknown key '" + std::string(key) + "'");
    }
  }
  if (!have_id) return malformed("MAP requires id=");
  if (!have_bytes) return malformed("MAP requires bytes=");
  return {};
}

std::string formatRequestHeader(const RequestHeader& h) {
  switch (h.kind) {
    case RequestKind::kStats:
      return "STATS\n";
    case RequestKind::kPing:
      return "PING\n";
    case RequestKind::kMap:
      break;
  }
  std::string line = "MAP id=" + h.id + " bytes=" + std::to_string(h.bytes);
  if (h.deadline_ms != 0) {
    line += " deadline_ms=" + std::to_string(h.deadline_ms);
  }
  line += '\n';
  return line;
}

Status parseResponseHeader(std::string_view line, ResponseHeader& out) {
  out = ResponseHeader{};
  const auto toks = splitTokens(line);
  if (toks.empty() || toks[0].empty()) return malformed("empty response line");
  const bool ok = toks[0] == "OK";
  if (!ok && toks[0] != "ERR") {
    return malformed("unknown response verb '" + std::string(toks[0]) + "'");
  }
  out.ok = ok;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!splitKv(toks[i], key, value)) {
      return malformed("bad token '" + std::string(toks[i]) + "'");
    }
    if (!ok && key == "msg") {
      // msg= swallows the rest of the line, spaces included. OK replies
      // have no msg field (formatOkHeader never writes one).
      const std::size_t at = line.find(" msg=");
      out.msg = std::string(line.substr(at + 5));
      break;
    }
    if (key == "id") {
      out.id = std::string(value);
    } else if (ok && key == "reads") {
      if (!parseU64(value, out.reads)) return malformed("bad reads value");
    } else if (ok && key == "records") {
      if (!parseU64(value, out.records)) return malformed("bad records value");
    } else if (ok && key == "bytes") {
      if (!parseU64(value, out.bytes)) return malformed("bad bytes value");
    } else if (ok && key == "skipped") {
      if (!parseU64(value, out.skipped)) return malformed("bad skipped value");
    } else if (ok && key == "failed") {
      if (!parseU64(value, out.failed)) return malformed("bad failed value");
    } else if (ok && key == "usec") {
      if (!parseU64(value, out.usec)) return malformed("bad usec value");
    } else if (!ok && key == "code") {
      out.code = codeFromName(value);
    } else if (!ok && key == "retry") {
      out.retry = value == "1";
    } else if (!ok && key == "reason") {
      out.reason = std::string(value);
    } else {
      return malformed("unknown key '" + std::string(key) + "'");
    }
  }
  return {};
}

std::string formatOkHeader(const ResponseHeader& h) {
  std::string line = "OK id=" + h.id;
  line += " reads=" + std::to_string(h.reads);
  line += " records=" + std::to_string(h.records);
  line += " bytes=" + std::to_string(h.bytes);
  line += " skipped=" + std::to_string(h.skipped);
  line += " failed=" + std::to_string(h.failed);
  line += " usec=" + std::to_string(h.usec);
  line += '\n';
  return line;
}

std::string formatErrHeader(std::string_view id, common::ErrorCode code,
                            bool retry, std::string_view reason,
                            std::string_view msg) {
  std::string line = "ERR id=";
  line += id;
  line += " code=";
  line += common::errorCodeName(code);
  line += retry ? " retry=1" : " retry=0";
  line += " reason=";
  line += reason;
  line += " msg=";
  // The message must not break the framing: CR/LF become spaces, and it
  // is cut so the line, '\n' included, fits kMaxHeaderLine.
  msg = msg.substr(
      0, kMaxHeaderLine - std::min(kMaxHeaderLine, line.size() + 1));
  for (const char c : msg) line += (c == '\n' || c == '\r') ? ' ' : c;
  line += '\n';
  return line;
}

}  // namespace gx::server
