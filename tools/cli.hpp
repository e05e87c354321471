#pragma once
// Shared command-line parsing for the genasmx_* tools, so every tool
// speaks the same dialect: --key=VALUE and --key VALUE are both
// accepted, numeric values parse strictly (no signs, no trailing junk —
// typos die at the usage line, not deep inside the pipeline), unknown
// options are errors, and positionals fill declared slots in order.
//
// Usage: declare options against the tool's variables, then parse.
//
//   gx::cli::Parser cli;
//   cli.option("--ref", opt.ref_path);
//   cli.option("--threads", opt.threads);
//   cli.flag("--primary-only", opt.primary_only);
//   cli.positional(opt.reference_path);   // compat slot
//   if (!cli.parse(argc, argv)) { ...print usage...; return 2; }
//
// MappingFlags (bottom of this file) is the one declaration of the
// mapping flags genasmx_map and genasmx_mapd share, and of the
// PipelineConfig they build from them.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "genasmx/io/fastx.hpp"
#include "genasmx/io/fault.hpp"
#include "genasmx/pipeline/pipeline.hpp"

namespace gx::cli {

/// Ignore SIGPIPE process-wide. Every tool main() calls this first:
/// with the default disposition, `genasmx_map ... | head` kills the
/// mapper by signal the moment head exits, with no diagnostic and an
/// exit status tests cannot reason about. Ignored, the write fails with
/// EPIPE, the stream goes bad, and the existing sink-state checks turn
/// it into a one-line io-fatal error and a clean non-zero exit.
inline void ignoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

/// Strict non-negative integer parse: rejects signs, trailing junk, and
/// out-of-range values.
inline bool parseCount(const char* s, std::size_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = static_cast<std::size_t>(v);
  return true;
}

inline bool parseCount(const char* s, int& out) {
  std::size_t v = 0;
  if (!parseCount(s, v) || v > 1'000'000) return false;
  out = static_cast<int>(v);
  return true;
}

/// Strict double parse (whole string must be consumed).
inline bool parseReal(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

class Parser {
 public:
  void flag(const char* key, bool& out) {
    opts_.push_back({key, Kind::Flag, &out});
  }
  void option(const char* key, std::string& out) {
    opts_.push_back({key, Kind::String, &out});
  }
  void option(const char* key, std::size_t& out) {
    opts_.push_back({key, Kind::Count, &out});
  }
  void option(const char* key, int& out) {
    opts_.push_back({key, Kind::Int, &out});
  }
  void option(const char* key, double& out) {
    opts_.push_back({key, Kind::Real, &out});
  }
  /// Declare a positional slot; slots fill with non-option arguments in
  /// declaration order. Undeclared extras are errors, unfilled slots
  /// stay untouched (callers enforce their own required-argument rules).
  void positional(std::string& out) { pos_.push_back(&out); }

  /// Parse argv. On error, prints a one-line diagnostic to stderr and
  /// returns false (the caller prints its usage string).
  [[nodiscard]] bool parse(int argc, char** argv) {
    std::size_t next_pos = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
        const Opt* opt = nullptr;
        const char* value = nullptr;
        for (const Opt& o : opts_) {
          const std::size_t n = std::strlen(o.key);
          if (arg.compare(0, n, o.key) != 0) continue;
          if (arg.size() == n) {
            opt = &o;
            break;
          }
          if (arg[n] == '=') {
            opt = &o;
            value = arg.c_str() + n + 1;
            break;
          }
        }
        if (opt == nullptr) {
          std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
          return false;
        }
        if (opt->kind == Kind::Flag) {
          if (value != nullptr) {
            std::fprintf(stderr, "option %s takes no value\n", opt->key);
            return false;
          }
          *static_cast<bool*>(opt->target) = true;
          continue;
        }
        if (value == nullptr) {
          if (i + 1 >= argc || argv[i + 1][0] == '-') {
            std::fprintf(stderr, "option %s requires a value\n", opt->key);
            return false;
          }
          value = argv[++i];
        }
        if (!store(*opt, value)) {
          std::fprintf(stderr, "option %s: invalid value '%s'\n", opt->key,
                       value);
          return false;
        }
        continue;
      }
      if (!arg.empty() && arg[0] == '-' && arg != "-") {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        return false;
      }
      if (next_pos >= pos_.size()) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        return false;
      }
      *pos_[next_pos++] = arg;
    }
    return true;
  }

 private:
  enum class Kind { Flag, String, Count, Int, Real };
  struct Opt {
    const char* key;
    Kind kind;
    void* target;
  };

  static bool store(const Opt& opt, const char* value) {
    switch (opt.kind) {
      case Kind::String:
        *static_cast<std::string*>(opt.target) = value;
        return true;
      case Kind::Count:
        return parseCount(value, *static_cast<std::size_t*>(opt.target));
      case Kind::Int:
        return parseCount(value, *static_cast<int*>(opt.target));
      case Kind::Real:
        return parseReal(value, *static_cast<double*>(opt.target));
      case Kind::Flag:
        return false;  // handled before store()
    }
    return false;
  }

  std::vector<Opt> opts_;
  std::vector<std::string*> pos_;
};

/// The mapping flags genasmx_map and genasmx_mapd share: --backend,
/// --threads, --window, --overlap, --max-candidates, --primary-only,
/// --on-bad-record and --fault. Both tools build their PipelineConfig
/// here, which is what keeps the server's PAF byte-identical to the
/// batch tool's. Only the --on-bad-record default differs per tool.
struct MappingFlags {
  std::string backend = "windowed-improved";
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  int window = 64;
  int overlap = 24;
  std::size_t max_candidates = 4;
  bool primary_only = false;
  std::string on_bad_record;  ///< abort | skip | warn
  std::string fault;          ///< fault spec ("" = GENASMX_FAULT env)

  explicit MappingFlags(std::string on_bad_record_default)
      : on_bad_record(std::move(on_bad_record_default)) {}

  void declare(Parser& cli) {
    cli.option("--backend", backend);
    cli.option("--threads", threads);
    cli.option("--window", window);
    cli.option("--overlap", overlap);
    cli.option("--max-candidates", max_candidates);
    cli.flag("--primary-only", primary_only);
    cli.option("--on-bad-record", on_bad_record);
    cli.option("--fault", fault);
  }

  /// After parse(): false, with a one-line diagnostic, on a bad
  /// --on-bad-record value.
  [[nodiscard]] bool valid() const {
    if (on_bad_record == "abort" || on_bad_record == "skip" ||
        on_bad_record == "warn") {
      return true;
    }
    std::fprintf(stderr,
                 "--on-bad-record must be abort, skip, or warn (got '%s')\n",
                 on_bad_record.c_str());
    return false;
  }

  [[nodiscard]] pipeline::PipelineConfig pipelineConfig() const {
    pipeline::PipelineConfig cfg;
    cfg.engine.backend = backend;
    cfg.engine.threads = threads;
    cfg.engine.aligner.window.window = window;
    cfg.engine.aligner.window.overlap = overlap;
    cfg.engine.aligner.ksw.band = 751;  // minimap2's long-read band regime
    cfg.max_candidates = max_candidates;
    cfg.emit_secondary = !primary_only;
    cfg.on_bad_record = on_bad_record == "skip"   ? io::OnBadRecord::kSkip
                        : on_bad_record == "warn" ? io::OnBadRecord::kWarn
                                                  : io::OnBadRecord::kAbort;
    return cfg;
  }

  /// The fault plan to install: --fault wins over GENASMX_FAULT, and an
  /// empty spec is an empty plan. False, with a one-line error, on a bad
  /// spec (a usage error).
  [[nodiscard]] bool faultPlan(io::FaultPlan& plan) const {
    std::string spec = fault;
    if (spec.empty()) {
      if (const char* env = std::getenv("GENASMX_FAULT")) spec = env;
    }
    if (spec.empty()) return true;
    try {
      plan = io::FaultPlan::parse(spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return false;
    }
    return true;
  }
};

}  // namespace gx::cli
