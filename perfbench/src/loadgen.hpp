#pragma once
// Single-threaded load generator for genasmx_mapd: one event loop over
// up to N pipelined MapClient connections, replies matched by request
// id. A closed-loop phase keeps one request in flight per connection; an
// open-loop phase sends on a seeded Poisson schedule regardless of
// replies and times each request from its *scheduled* send time, so a
// stall is charged to every request queued behind it.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "genasmx/io/fastx.hpp"
#include "genasmx/server/protocol.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

/// One MAP request: 1..8 consecutive reads serialized as FASTQ.
struct MapRequest {
  std::string payload;
  std::size_t first_read = 0;  ///< index of its first read in the pool
  std::size_t reads = 0;
};

/// Split `pool` into consecutive requests of 1..max_reads reads, sizes
/// drawn from `seed`.
[[nodiscard]] std::vector<MapRequest> buildRequests(
    const std::vector<gx::io::FastxRecord>& pool, std::uint64_t seed,
    std::size_t max_reads = 8);

struct LoadConfig {
  std::string unix_path;
  std::size_t connections = 1;
  /// Closed loop (skipped at 0): run at least this long, and until every
  /// request was sent once.
  double closed_seconds = 0;
  /// Open loop: Poisson arrivals at open_rate requests/s for this long.
  double open_seconds = 0;
  double open_rate = 0;
  std::uint64_t seed = 1;
  /// When set, each phase records this process's CPU time (the server's).
  int server_pid = 0;
};

/// One finished request, handed to the reply callback.
struct Completion {
  std::size_t request = 0;  ///< index into the request vector
  bool open_loop = false;
  std::uint64_t tag = 0;  ///< unique per send (the wire id's number)
  Clock::time_point scheduled;  ///< open loop: due time; closed: sent
  Clock::time_point replied;
  const gx::server::ResponseHeader* header = nullptr;
  const std::string* body = nullptr;
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  ///< ERR replies (shed or terminal)
  std::uint64_t reads_ok = 0;
  double seconds = 0;  ///< phase start to its last reply
  double server_cpu_s = 0;  ///< server user+sys CPU over the phase
  std::vector<double> latency_ms;  ///< OK and ERR replies alike
  std::vector<double> lag_ms;      ///< open loop: send time - due time
};

struct LoadResult {
  PhaseResult closed;
  PhaseResult open;
};

/// Drive the server through the closed then the open phase. Throws
/// std::runtime_error on a wire failure or when replies stop arriving.
[[nodiscard]] LoadResult runLoad(
    const LoadConfig& cfg, const std::vector<MapRequest>& requests,
    const std::function<void(const Completion&)>& on_reply);

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace pb
