#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "genasmx/server/client.hpp"
#include "genasmx/util/prng.hpp"

namespace pb {
namespace {

using gx::server::MapClient;
using gx::server::ResponseHeader;

/// Give up on a server that leaves requests unanswered this long.
constexpr auto kStallTimeout = std::chrono::seconds(60);

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One pipelined connection: the client owns the socket and the send
/// side; replies are framed here from a non-blocking read buffer, since
/// several replies can arrive in one recv.
struct Conn {
  MapClient client;
  std::string inbuf;
  std::size_t outstanding = 0;
};

struct InFlight {
  std::size_t request = 0;
  bool open_loop = false;
  Clock::time_point scheduled;
};

class Loop {
 public:
  Loop(const LoadConfig& cfg, const std::vector<MapRequest>& requests,
       const std::function<void(const Completion&)>& on_reply)
      : cfg_(cfg), requests_(requests), on_reply_(on_reply) {
    if (requests_.empty()) throw std::invalid_argument("no requests");
    conns_.resize(std::max<std::size_t>(1, cfg.connections));
    for (Conn& c : conns_) {
      const auto st = c.client.connectUnix(cfg.unix_path);
      if (!st.ok()) throw std::runtime_error(st.message());
    }
  }

  void send(std::size_t conn, bool open_loop, Clock::time_point scheduled,
            PhaseResult& phase) {
    const std::size_t req = next_request_++ % requests_.size();
    const std::uint64_t tag = next_tag_++;
    gx::server::RequestHeader h;
    h.id = "r";
    h.id += std::to_string(tag);
    h.bytes = requests_[req].payload.size();
    Conn& c = conns_[conn];
    auto st = c.client.sendRaw(gx::server::formatRequestHeader(h));
    if (st.ok()) st = c.client.sendRaw(requests_[req].payload);
    if (!st.ok()) throw std::runtime_error("send: " + st.message());
    const Clock::time_point now = Clock::now();
    inflight_.emplace(tag, InFlight{req, open_loop, scheduled});
    last_progress_ = now;
    ++c.outstanding;
    ++phase.sent;
    if (open_loop) phase.lag_ms.push_back(msBetween(scheduled, now));
  }

  /// Wait until `until` for replies and dispatch every complete one.
  /// Returns the connections that received a reply. Throws when
  /// requests have waited kStallTimeout without any reply.
  std::vector<std::size_t> poll(Clock::time_point until, PhaseResult& phase) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = pollfd{conns_[i].client.fd(), POLLIN, 0};
    }
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    std::vector<std::size_t> replied;
    for (std::size_t i = 0; n > 0 && i < conns_.size(); ++i) {
      if (fds[i].revents == 0) continue;
      char buf[1 << 16];
      const ssize_t got = ::recv(fds[i].fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got == 0) throw std::runtime_error("server closed a connection");
      if (got < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      conns_[i].inbuf.append(buf, static_cast<std::size_t>(got));
      while (dispatchOne(conns_[i], phase)) replied.push_back(i);
    }
    if (!inflight_.empty() && Clock::now() - last_progress_ > kStallTimeout) {
      throw std::runtime_error("replies stopped arriving");
    }
    return replied;
  }

  [[nodiscard]] std::size_t outstanding() const { return inflight_.size(); }
  [[nodiscard]] std::size_t sentRequests() const { return next_request_; }
  [[nodiscard]] std::vector<Conn>& conns() { return conns_; }
  [[nodiscard]] Clock::time_point lastReply() const { return last_reply_; }

 private:
  bool dispatchOne(Conn& c, PhaseResult& phase) {
    const std::size_t nl = c.inbuf.find('\n');
    if (nl == std::string::npos) return false;
    ResponseHeader h;
    const auto st = gx::server::parseResponseHeader(
        std::string_view(c.inbuf).substr(0, nl), h);
    if (!st.ok()) throw std::runtime_error("bad reply: " + st.message());
    const std::size_t body_len = h.ok ? static_cast<std::size_t>(h.bytes) : 0;
    if (c.inbuf.size() < nl + 1 + body_len) return false;
    body_.assign(c.inbuf, nl + 1, body_len);
    c.inbuf.erase(0, nl + 1 + body_len);
    const auto it = h.id.size() > 1 && h.id[0] == 'r'
                        ? inflight_.find(std::stoull(h.id.substr(1)))
                        : inflight_.end();
    if (it == inflight_.end()) {
      throw std::runtime_error("reply for unknown id '" + h.id + "'");
    }
    Completion done;
    done.request = it->second.request;
    done.open_loop = it->second.open_loop;
    done.tag = it->first;
    done.scheduled = it->second.scheduled;
    done.replied = Clock::now();
    done.header = &h;
    done.body = &body_;
    last_reply_ = done.replied;
    last_progress_ = done.replied;
    phase.latency_ms.push_back(msBetween(done.scheduled, done.replied));
    if (h.ok) {
      ++phase.ok;
      phase.reads_ok += h.reads;
    } else {
      ++phase.failed;
    }
    inflight_.erase(it);
    --c.outstanding;
    on_reply_(done);
    return true;
  }

  const LoadConfig& cfg_;
  const std::vector<MapRequest>& requests_;
  const std::function<void(const Completion&)>& on_reply_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  std::size_t next_request_ = 0;
  std::uint64_t next_tag_ = 0;
  std::string body_;
  Clock::time_point last_reply_;
  Clock::time_point last_progress_;
};

constexpr auto kPollStep = std::chrono::milliseconds(100);

/// User+sys CPU seconds of process `pid` so far, all its threads, from
/// /proc/<pid>/stat (fields 14 and 15). Time the host stole from the
/// process's CPUs is not in it.
double cpuSeconds(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (!f || paren == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) +
                             "/stat");
  }
  std::istringstream rest(stat.substr(paren + 1));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Run `phase_fn`, charging the server's CPU time over it to `phase`.
template <typename Fn>
void measured(const LoadConfig& cfg, PhaseResult& phase, Fn phase_fn) {
  const double cpu0 = cfg.server_pid ? cpuSeconds(cfg.server_pid) : 0;
  phase_fn();
  if (cfg.server_pid) phase.server_cpu_s = cpuSeconds(cfg.server_pid) - cpu0;
}

void closedPhase(Loop& loop, const LoadConfig& cfg, std::size_t requests,
                 PhaseResult& phase) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point until = start + seconds(cfg.closed_seconds);
  auto keep_going = [&] {
    return Clock::now() < until || loop.sentRequests() < requests;
  };
  for (std::size_t i = 0; i < loop.conns().size(); ++i) {
    loop.send(i, false, Clock::now(), phase);
  }
  while (loop.outstanding() > 0) {
    for (const std::size_t conn : loop.poll(Clock::now() + kPollStep, phase)) {
      if (keep_going()) loop.send(conn, false, Clock::now(), phase);
    }
  }
  phase.seconds =
      std::chrono::duration<double>(loop.lastReply() - start).count();
}

void openPhase(Loop& loop, const LoadConfig& cfg, PhaseResult& phase) {
  // Poisson arrivals: exponential gaps from a seeded generator, fixed
  // before the phase starts so the schedule never depends on replies.
  gx::util::Xoshiro256 rng(cfg.seed ^ 0x0be11009ULL);
  std::vector<double> due_s;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform01()) / cfg.open_rate;
    if (t >= cfg.open_seconds) break;
    due_s.push_back(t);
  }
  const Clock::time_point start = Clock::now();
  std::size_t next_conn = 0;
  for (const double d : due_s) {
    const Clock::time_point due = start + seconds(d);
    while (Clock::now() < due) (void)loop.poll(due, phase);
    // Least-loaded connection, round-robin among ties.
    auto& conns = loop.conns();
    std::size_t best = next_conn;
    for (std::size_t k = 0; k < conns.size(); ++k) {
      const std::size_t i = (next_conn + k) % conns.size();
      if (conns[i].outstanding < conns[best].outstanding) best = i;
    }
    next_conn = (best + 1) % conns.size();
    loop.send(best, true, due, phase);
  }
  while (loop.outstanding() > 0) {
    (void)loop.poll(Clock::now() + kPollStep, phase);
  }
  phase.seconds =
      std::chrono::duration<double>(loop.lastReply() - start).count();
}

}  // namespace

std::vector<MapRequest> buildRequests(
    const std::vector<gx::io::FastxRecord>& pool, std::uint64_t seed,
    std::size_t max_reads) {
  gx::util::Xoshiro256 rng(seed);
  std::vector<MapRequest> out;
  for (std::size_t i = 0; i < pool.size();) {
    MapRequest r;
    r.first_read = i;
    r.reads =
        std::min<std::size_t>(1 + rng.below(max_reads), pool.size() - i);
    for (std::size_t k = 0; k < r.reads; ++k) {
      const auto& rec = pool[i + k];
      r.payload += "@" + rec.name + "\n" + rec.seq + "\n+\n" +
                   (rec.qual.empty() ? std::string(rec.seq.size(), 'I')
                                     : rec.qual) +
                   "\n";
    }
    i += r.reads;
    out.push_back(std::move(r));
  }
  return out;
}

LoadResult runLoad(const LoadConfig& cfg,
                   const std::vector<MapRequest>& requests,
                   const std::function<void(const Completion&)>& on_reply) {
  Loop loop(cfg, requests, on_reply);
  LoadResult result;
  if (cfg.closed_seconds > 0) {
    measured(cfg, result.closed, [&] {
      closedPhase(loop, cfg, requests.size(), result.closed);
    });
  }
  if (cfg.open_seconds > 0 && cfg.open_rate > 0) {
    measured(cfg, result.open, [&] { openPhase(loop, cfg, result.open); });
  }
  return result;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

}  // namespace pb
