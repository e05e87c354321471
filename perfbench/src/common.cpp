#include "common.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pb {
namespace {

gx::readsim::ErrorModel pacbioClr() { return gx::readsim::ErrorModel{}; }

// Illumina profile spelled out: ~0.3% errors, substitution-dominated.
gx::readsim::ErrorModel illumina() {
  gx::readsim::ErrorModel e;
  e.error_rate = 0.003;
  e.sub_frac = 0.90;
  e.ins_frac = 0.05;
  e.del_frac = 0.05;
  e.rate_jitter = 0.10;
  return e;
}

const std::vector<InputSpec>& inputs() {
  static const std::vector<InputSpec> specs = {
      // 10 kb PacBio-CLR reads over a repeat-rich multi-contig reference.
      {"long", 4, 6'000'000, 0.25, 400, 10'000, pacbioClr()},
      // 150 bp Illumina reads over a larger, 8-contig reference.
      {"short", 8, 16'000'000, 0.05, 60'000, 150, illumina()},
      // 1 kb read prefixes for the server, over the long reference.
      {"stream", 4, 6'000'000, 0.25, 3'000, 1'000, pacbioClr()},
  };
  return specs;
}

}  // namespace

const InputSpec& inputFor(std::string_view workload) {
  std::string_view set;
  if (workload == "long_all_chains" || workload == "long_sketch") {
    set = "long";
  } else if (workload == "short_primary") {
    set = "short";
  } else if (workload == "mapd_stream") {
    set = "stream";
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(workload) +
                                "'");
  }
  for (const InputSpec& s : inputs()) {
    if (s.name == set) return s;
  }
  throw std::logic_error("missing input set");
}

Flow flowFor(std::string_view workload) {
  (void)inputFor(workload);  // validates the name
  Flow f;
  f.primary_only = workload != "long_all_chains";
  f.sketch = workload == "long_sketch";
  return f;
}

gx::pipeline::PipelineConfig pipelineConfig(const Flow& flow,
                                            std::size_t threads) {
  gx::pipeline::PipelineConfig cfg;
  cfg.engine.backend = "windowed-improved";
  cfg.engine.threads = threads;
  cfg.engine.aligner.window.window = 64;
  cfg.engine.aligner.window.overlap = 24;
  cfg.engine.aligner.ksw.band = 751;
  cfg.max_candidates = 4;
  cfg.batch_reads = 256;
  cfg.emit_secondary = !flow.primary_only;
  cfg.prefilter.mode = flow.sketch ? gx::pipeline::PrefilterMode::kSketch
                                   : gx::pipeline::PrefilterMode::kOff;
  return cfg;
}

bool parseTruth(std::string_view name, Truth& out) {
  std::string_view parts[4];
  for (int i = 0; i < 3; ++i) {
    const std::size_t bang = name.find('!');
    if (bang == std::string_view::npos) return false;
    parts[i] = name.substr(0, bang);
    name.remove_prefix(bang + 1);
  }
  parts[3] = name;
  if (parts[3] != "+" && parts[3] != "-") return false;
  std::size_t pos = 0;
  const auto [p, ec] =
      std::from_chars(parts[2].data(), parts[2].data() + parts[2].size(), pos);
  if (ec != std::errc() || p != parts[2].data() + parts[2].size()) {
    return false;
  }
  out.contig = std::string(parts[1]);
  out.pos = pos;
  out.reverse = parts[3] == "-";
  return true;
}

std::vector<std::string_view> splitTabs(std::string_view line) {
  std::vector<std::string_view> f;
  for (;;) {
    const std::size_t tab = line.find('\t');
    f.push_back(line.substr(0, tab));
    if (tab == std::string_view::npos) return f;
    line.remove_prefix(tab + 1);
  }
}

std::uint64_t toU64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || p != s.data() + s.size()) {
    throw std::invalid_argument("not a number: '" + std::string(s) + "'");
  }
  return v;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace pb
