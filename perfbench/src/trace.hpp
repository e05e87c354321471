#pragma once
// In-memory span recorder for the traced run. Spans carry a name, start,
// end, parent span and a group id (the batch or request they belong to);
// nothing is written until writeChromeTrace() at the end, which emits
// Chrome trace-event JSON (opens in Perfetto / chrome://tracing) plus a
// per-name self-time summary: self time = span duration minus the time
// covered by its direct child spans.
//
// Nested spans come from one thread (the runner's main thread). Request
// spans of the open-loop phase overlap each other, so they are recorded
// as async spans instead.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint64_t group = 0;   ///< batch / request id
    bool async = false;
    std::string args;  ///< extra JSON members, without braces
  };

  Tracer() : origin_(Clock::now()) {}

  /// Open a nested span; returns its index for end().
  std::size_t begin(std::string name, std::uint64_t group = 0);
  /// Close span `idx` (must be the innermost open one), attaching `args`.
  void end(std::size_t idx, std::string args = {});
  /// Record a finished, possibly overlapping span (async track).
  void async(std::string name, std::uint64_t group, Clock::time_point start,
             Clock::time_point end, std::string args = {});

  /// Whether spans are recorded (off = the untraced comparison).
  void setEnabled(bool on) noexcept { enabled_ = on; }

  /// Total self time per span name, in ms, over every closed span.
  [[nodiscard]] std::vector<std::pair<std::string, double>> selfTimeMs() const;

  /// Write the trace-event JSON; returns false on an I/O failure.
  [[nodiscard]] bool writeChromeTrace(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  bool enabled_ = true;
};

/// RAII wrapper over Tracer::begin/end.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::uint64_t group = 0)
      : t_(t), idx_(t.begin(std::move(name), group)) {}
  ~ScopedSpan() { t_.end(idx_, std::move(args_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// JSON members attached when the span closes.
  void setArgs(std::string args) { args_ = std::move(args); }

 private:
  Tracer& t_;
  std::size_t idx_;
  std::string args_;
};

}  // namespace pb
