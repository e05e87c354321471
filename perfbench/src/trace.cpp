#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <map>

namespace pb {

namespace {
constexpr std::size_t kOff = static_cast<std::size_t>(-1);
}

std::size_t Tracer::begin(std::string name, std::uint64_t group) {
  if (!enabled_) return kOff;
  Span s;
  s.name = std::move(name);
  s.start_ns = nowNs();
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.group = group;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t idx, std::string args) {
  if (idx == kOff) return;
  spans_[idx].end_ns = nowNs();
  spans_[idx].args = std::move(args);
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

void Tracer::async(std::string name, std::uint64_t group,
                   Clock::time_point start, Clock::time_point end,
                   std::string args) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  s.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  s.group = group;
  s.async = true;
  s.args = std::move(args);
  spans_.push_back(std::move(s));
}

std::vector<std::pair<std::string, double>> Tracer::selfTimeMs() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::int64_t self_ns = s.end_ns - s.start_ns - child_ns[i];
    self[s.name] += static_cast<double>(self_ns) / 1e6;
  }
  return {self.begin(), self.end()};
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const double ts = static_cast<double>(s.start_ns) / 1e3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    std::string args = "\"group\": " + std::to_string(s.group) +
                       ", \"parent\": " + std::to_string(s.parent) +
                       ", \"span\": " + std::to_string(i);
    if (!s.args.empty()) args += ", " + s.args;
    if (!first) out << ",\n";
    first = false;
    if (s.async) {
      // Async begin/end pair on its own track, keyed by the group id.
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"request\", \"ph\": \"b\", "
                    "\"id\": %llu, \"pid\": 1, \"tid\": 2, \"ts\": %.3f, ",
                    s.name.c_str(), static_cast<unsigned long long>(s.group),
                    ts);
      out << buf << "\"args\": {" << args << "}},\n";
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"request\", \"ph\": \"e\", "
                    "\"id\": %llu, \"pid\": 1, \"tid\": 2, \"ts\": %.3f}",
                    s.name.c_str(), static_cast<unsigned long long>(s.group),
                    ts + dur);
      out << buf;
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, ",
                    s.name.c_str(), ts, dur);
      out << buf << "\"args\": {" << args << "}}";
    }
  }
  out << "\n], \"otherData\": {\"self_time_ms\": {";
  first = true;
  for (const auto& [name, ms] : selfTimeMs()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.3f", first ? "" : ", ",
                  name.c_str(), ms);
    out << buf;
    first = false;
  }
  out << "}}}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace pb
