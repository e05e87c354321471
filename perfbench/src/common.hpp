#pragma once
// Shared pieces of the benchmark helpers: the workload input shapes, the
// pipeline configuration genasmx_map builds from its flags, truth parsing
// for simulated read names, and a minimal PAF line splitter.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/readsim/read_simulator.hpp"

namespace pb {

/// Input shape of one input set. Several workloads share one set (the
/// two long-read workloads map the same files through different flows).
struct InputSpec {
  std::string name;
  std::size_t contigs = 1;
  std::size_t genome_bp = 0;      ///< summed over contigs
  double repeat_fraction = 0.05;  ///< readsim::GenomeConfig::repeat_fraction
  std::size_t reads = 0;
  std::size_t read_len = 0;
  gx::readsim::ErrorModel errors{};
};

/// The input set behind a workload name; throws std::invalid_argument
/// for an unknown workload.
[[nodiscard]] const InputSpec& inputFor(std::string_view workload);

/// Mapping flags of a workload, as genasmx_map/genasmx_mapd take them.
struct Flow {
  bool primary_only = false;
  bool sketch = false;
};
[[nodiscard]] Flow flowFor(std::string_view workload);

/// The PipelineConfig genasmx_map builds at its defaults plus `flow`
/// (tools/genasmx_map.cpp), so an in-process run is byte-comparable.
[[nodiscard]] gx::pipeline::PipelineConfig pipelineConfig(const Flow& flow,
                                                          std::size_t threads);

/// Truth encoded by readsim in read names: read_<i>!<contig>!<pos>!<+|->.
struct Truth {
  std::string contig;
  std::size_t pos = 0;
  bool reverse = false;
};
[[nodiscard]] bool parseTruth(std::string_view read_name, Truth& out);

/// Tab-separated fields of one PAF line (views into the line).
[[nodiscard]] std::vector<std::string_view> splitTabs(std::string_view line);

/// Parse a non-negative decimal; throws std::invalid_argument otherwise.
[[nodiscard]] std::uint64_t toU64(std::string_view s);

/// Read a whole file; throws std::runtime_error if it cannot be read.
[[nodiscard]] std::string readFile(const std::string& path);

}  // namespace pb
