// pb_loadgen — drive a running genasmx_mapd with the mapd_stream
// workload and check every reply against the batch mapper's output.
//
//   pb_loadgen --unix SOCK --reads reads.fq --expect batch.paf
//              --connections N --closed-seconds C --open-seconds O
//              --rate REQ_PER_S --slo-ms L --seed S --replies-out FILE
//              [--server-pid PID]
//
// The closed phase runs N connections with one request in flight each,
// for at least C (> 0) seconds and until every request was sent once; the
// open phase sends Poisson arrivals at a fixed absolute rate for O
// seconds over the same connections. Every OK reply must equal, read by
// read, the lines `genasmx_map --index` wrote for those reads
// (--expect); the first reply of each request is written to
// --replies-out in pool order. With --server-pid, each phase also reports
// the server process's CPU seconds over it. Prints one JSON object; exits
// 1 on any mismatch or wire failure.

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cli.hpp"
#include "common.hpp"
#include "genasmx/io/fastx.hpp"
#include "loadgen.hpp"

namespace {

/// PAF text grouped by read name (lines keep their trailing newline).
std::unordered_map<std::string, std::string> linesByRead(
    const std::string& paf) {
  std::unordered_map<std::string, std::string> out;
  std::size_t at = 0;
  while (at < paf.size()) {
    std::size_t nl = paf.find('\n', at);
    if (nl == std::string::npos) nl = paf.size() - 1;
    const std::string_view line(paf.data() + at, nl + 1 - at);
    out[std::string(line.substr(0, line.find('\t')))] += line;
    at = nl + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pb::LoadConfig cfg;
  std::string reads_path, expect_path, replies_path;
  std::size_t seed = 1;
  double slo_ms = 0;
  gx::cli::Parser parser;
  parser.option("--unix", cfg.unix_path);
  parser.option("--reads", reads_path);
  parser.option("--expect", expect_path);
  parser.option("--connections", cfg.connections);
  parser.option("--closed-seconds", cfg.closed_seconds);
  parser.option("--open-seconds", cfg.open_seconds);
  parser.option("--rate", cfg.open_rate);
  parser.option("--slo-ms", slo_ms);
  parser.option("--seed", seed);
  parser.option("--replies-out", replies_path);
  parser.option("--server-pid", cfg.server_pid);
  if (!parser.parse(argc, argv) || cfg.unix_path.empty() ||
      reads_path.empty() || expect_path.empty() || replies_path.empty() ||
      cfg.closed_seconds <= 0) {
    std::fprintf(stderr,
                 "usage: pb_loadgen --unix SOCK --reads reads.fq --expect "
                 "batch.paf --connections N --closed-seconds C "
                 "--open-seconds O --rate R --slo-ms L --seed S "
                 "--replies-out FILE [--server-pid PID]\n");
    return 2;
  }
  cfg.seed = seed;
  try {
    const auto pool = gx::io::readFastxFile(reads_path);
    const auto requests = pb::buildRequests(pool, seed);
    const auto expected = linesByRead(pb::readFile(expect_path));

    std::vector<std::string> first_reply(requests.size());
    std::vector<bool> answered(requests.size(), false);
    std::uint64_t mismatches = 0, within_slo = 0;
    const auto on_reply = [&](const pb::Completion& c) {
      const pb::MapRequest& req = requests[c.request];
      if (c.open_loop && c.header->ok &&
          std::chrono::duration<double, std::milli>(c.replied - c.scheduled)
                  .count() <= slo_ms) {
        ++within_slo;
      }
      if (!c.header->ok) return;
      const auto got = linesByRead(*c.body);
      bool same = c.header->reads == req.reads;
      std::size_t got_reads = 0;
      for (std::size_t i = 0; i < req.reads; ++i) {
        const std::string& name = pool[req.first_read + i].name;
        const auto e = expected.find(name);
        const auto g = got.find(name);
        const std::string none;
        got_reads += g != got.end();
        same = same && (e == expected.end() ? none : e->second) ==
                           (g == got.end() ? none : g->second);
      }
      if (!same || got_reads != got.size()) {
        if (mismatches++ < 3) {
          std::fprintf(stderr, "pb_loadgen: reply for %s differs from batch\n",
                       pool[req.first_read].name.c_str());
        }
      }
      if (!answered[c.request]) {
        answered[c.request] = true;
        first_reply[c.request] = *c.body;
      }
    };
    const pb::LoadResult r = pb::runLoad(cfg, requests, on_reply);

    std::size_t covered = 0;
    std::ofstream out(replies_path, std::ios::binary);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      covered += answered[i];
      out << first_reply[i];
    }
    out.close();
    if (!out) throw std::runtime_error("cannot write --replies-out");

    const auto& cl = r.closed;
    const auto& op = r.open;
    std::printf(
        "{\"requests\": %zu, \"covered\": %zu, \"mismatches\": %llu, "
        "\"closed\": {\"sent\": %llu, \"ok\": %llu, \"failed\": %llu, "
        "\"reads\": %llu, \"seconds\": %.6f, \"server_cpu_s\": %.6f}, "
        "\"open\": {\"sent\": %llu, \"ok\": %llu, \"failed\": %llu, "
        "\"within_slo\": %llu, \"latency_p50_ms\": %.6f, "
        "\"latency_p99_ms\": %.6f, \"lag_p99_ms\": %.6f, \"seconds\": %.6f, "
        "\"server_cpu_s\": %.6f}}\n",
        requests.size(), covered, static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(cl.sent),
        static_cast<unsigned long long>(cl.ok),
        static_cast<unsigned long long>(cl.failed),
        static_cast<unsigned long long>(cl.reads_ok), cl.seconds,
        cl.server_cpu_s,
        static_cast<unsigned long long>(op.sent),
        static_cast<unsigned long long>(op.ok),
        static_cast<unsigned long long>(op.failed),
        static_cast<unsigned long long>(within_slo),
        pb::percentile(op.latency_ms, 0.50),
        pb::percentile(op.latency_ms, 0.99),
        pb::percentile(op.lag_ms, 0.99), op.seconds, op.server_cpu_s);
    if (mismatches != 0 || covered != requests.size()) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_loadgen: %s\n", e.what());
    return 1;
  }
  return 0;
}
