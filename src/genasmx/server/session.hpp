#pragma once
// MapSession — the reusable per-thread mapping unit behind genasmx_mapd.
// Where the batch tools construct one run-to-completion MappingPipeline
// per process, a session wraps a pipeline built over a SHARED immutable
// index and a SHARED AlignmentEngine (see the pipeline's shared-engine
// constructor): each server mapping thread owns one session (its own
// scratch, stats, and sketch pools), while the spare-aligner pool and
// mmap'd index are process-wide. mapGroup() is the cross-request
// coalescing point: several small requests are mapped as ONE pipeline
// batch — per-read output is independent of batch boundaries, so every
// request's PAF is byte-identical to a solo genasmx_map run — and the
// flat record vector is split back per request afterwards.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "genasmx/common/error.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/pipeline/pipeline.hpp"

namespace gx::server {

/// One request's outcome within a mapGroup() call. status.ok() selects
/// the OK reply (paf/reads/records/skipped/failed filled in); otherwise
/// the ERR reply carries status's code and message.
struct RequestResult {
  common::Status status;
  std::string paf;  ///< serialized PAF records, byte-identical to batch mode
  std::uint64_t reads = 0;
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;  ///< malformed records dropped by policy
  std::uint64_t failed = 0;   ///< reads degraded after per-read failures
};

class MapSession {
 public:
  /// `index`'s owner and `shared_engine` must outlive the session.
  MapSession(mapper::IndexView index, engine::AlignmentEngine& shared_engine,
             pipeline::PipelineConfig cfg);

  /// Map a group of request payloads (FASTA/FASTQ bytes) as one coalesced
  /// pipeline batch under one cooperative cancellation. results is
  /// resized to payloads.size(); every request gets exactly one result.
  /// Per-request isolation: a payload that fails to parse (under the
  /// abort policy) poisons only its own result; a cancellation fires for
  /// the whole group (callers pass the group's LATEST deadline, so when
  /// it fires every member's deadline has passed).
  void mapGroup(const std::vector<std::string_view>& payloads,
                const pipeline::Cancellation& cancel,
                std::vector<RequestResult>& results);

  [[nodiscard]] const pipeline::StageTimes& stageTimes() const noexcept {
    return pipeline_.stageTimes();
  }
  [[nodiscard]] const pipeline::PipelineStats& stats() const noexcept {
    return pipeline_.stats();
  }
  [[nodiscard]] const pipeline::RunReport& report() const noexcept {
    return pipeline_.report();
  }

 private:
  io::OnBadRecord on_bad_record_;
  pipeline::MappingPipeline pipeline_;
};

}  // namespace gx::server
