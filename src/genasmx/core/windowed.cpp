#include "genasmx/core/windowed.hpp"

namespace gx::core {
namespace {

/// Run fn(solver, counter) on a fresh Solver of the width cfg.window
/// needs, counting into *stats when it is non-null.
template <template <int> class Solver, class Fn, class... SolverArgs>
decltype(auto) withWindowSolver(const WindowConfig& cfg, util::MemStats* stats,
                                Fn&& fn, const SolverArgs&... solver_args) {
  return util::withCounter(stats, [&](auto counter) {
    return bitvector::withWidth(
        bitvector::wordsNeeded(cfg.window), [&](auto nw) {
          Solver<nw()> solver(solver_args...);
          return fn(solver, counter);
        });
  });
}

using March = WindowedBatchScratch::March;

/// What the batched march reads back from one solved lane.
struct LaneStep {
  bool ok;
  std::uint64_t text_consumed;
  std::uint64_t pattern_consumed;
};

/// Lane policy of the distance march: lanes run the counting window
/// solve, and committed edits add up against each request's cap.
struct DistanceLanes {
  const BatchedDistanceRequest* requests;
  int* results;
  std::vector<simd::WindowOutcome>& outs;

  void start(std::size_t r, March& m) const {
    if (requests[r].cap >= 0) {
      m.budget = static_cast<std::uint64_t>(requests[r].cap);
    }
  }
  void solve(simd::SimdBatchSolver& solver,
             const std::vector<simd::WindowProblem>& probs,
             WindowedBatchScratch& scratch) const {
    scratch.ensure(outs, probs.size());
    solver.solveWindowBatch(genasm::Anchor::StartOnly, probs.data(),
                            probs.size(), outs.data());
  }
  [[nodiscard]] LaneStep step(std::size_t j) const {
    return {outs[j].ok, outs[j].text_consumed, outs[j].pattern_consumed};
  }
  bool commit(std::size_t, std::size_t j, March& m) const {
    m.acc += outs[j].edits;
    return m.acc <= m.budget;
  }
  bool gap(std::size_t, common::EditOp, std::uint64_t len, March& m) const {
    m.acc += len;
    return m.acc <= m.budget;
  }
  void finish(std::size_t r, bool ok, const March& m) const {
    results[r] = ok ? static_cast<int>(m.acc) : -1;
  }
};

/// Lane policy of the alignment march: lanes run the full window solve,
/// and each committed window cigar is appended to its request's result.
struct AlignLanes {
  common::AlignmentResult* results;
  std::vector<genasm::WindowResult>& wrs;

  void start(std::size_t r, March&) const {
    // In-place reset, preserving cigar capacity, exactly as
    // alignWindowed()'s fresh AlignmentResult starts out.
    common::AlignmentResult& out = results[r];
    out.ok = false;
    out.edit_distance = -1;
    out.score = 0;
    out.cigar.clear();
  }
  void solve(simd::SimdBatchSolver& solver,
             const std::vector<simd::WindowProblem>& probs,
             WindowedBatchScratch& scratch) const {
    scratch.ensure(wrs, probs.size());
    solver.alignBatch(genasm::Anchor::StartOnly, probs.data(), probs.size(),
                      wrs.data());
  }
  [[nodiscard]] LaneStep step(std::size_t j) const {
    return {wrs[j].ok, wrs[j].cigar.targetLength(),
            wrs[j].cigar.queryLength()};
  }
  bool commit(std::size_t r, std::size_t j, March&) const {
    results[r].cigar.append(wrs[j].cigar);
    return true;
  }
  bool gap(std::size_t r, common::EditOp op, std::uint64_t len,
           March&) const {
    results[r].cigar.push(op, static_cast<std::uint32_t>(len));
    return true;
  }
  void finish(std::size_t r, bool ok, const March&) const {
    // A failed request keeps ok == false and its partial cigar.
    if (!ok) return;
    common::AlignmentResult& out = results[r];
    out.ok = true;
    out.edit_distance = static_cast<int>(out.cigar.editDistance());
    out.score = -out.edit_distance;
  }
};

/// Build the current window problem for one live request: the cursor-to-
/// window mapping, final-window text slack included. Pre: rem_t > 0 &&
/// rem_q > 0.
simd::WindowProblem currentWindow(const WindowConfig& cfg,
                                  std::string_view target,
                                  std::string_view query, March& m) {
  const std::size_t W = static_cast<std::size_t>(cfg.window);
  const std::size_t slack =
      static_cast<std::size_t>(cfg.textWindow() - cfg.window);
  const std::size_t rem_t = target.size() - m.ti;
  const std::size_t rem_q = query.size() - m.qi;
  m.is_final = rem_q <= W;
  const std::size_t q_len = m.is_final ? rem_q : W;
  simd::WindowProblem p;
  p.max_edits = cfg.max_edits;
  p.text = target.substr(m.ti, std::min(rem_t, q_len + slack));
  p.pattern = query.substr(m.qi, q_len);
  p.tb_op_limit = m.is_final ? -1 : cfg.window - cfg.overlap;
  return p;
}

/// The batched window march behind alignWindowedBatch() and
/// distanceWindowedBatch(). Each sweep advances every live request by
/// exactly one window: the current windows of all live requests are
/// packed into lanes and solved together, then each lane applies the
/// march update, with `lanes` deciding what a committed window or a
/// trailing indel does to the request's result.
template <class Request, class Lanes>
void marchWindowedBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                        const Request* requests, std::size_t count,
                        const Lanes& lanes, WindowedBatchScratch& scratch) {
  cfg.validate();

  // Arena capacities (including the per-sweep probs/lane_req push_backs,
  // bounded by count) are sized up front so steady-state marches grow
  // nothing.
  scratch.ensure(scratch.st, count);
  scratch.ensure(scratch.probs, count);
  scratch.ensure(scratch.lane_req, count);
  auto& st = scratch.st;
  auto& probs = scratch.probs;
  auto& lane_req = scratch.lane_req;

  std::size_t live = count;
  for (std::size_t r = 0; r < count; ++r) {
    st[r] = March{};
    lanes.start(r, st[r]);
  }
  const auto finish = [&](std::size_t r, bool ok) {
    st[r].done = true;
    --live;
    lanes.finish(r, ok, st[r]);
  };

  while (live > 0) {
    probs.clear();
    lane_req.clear();
    for (std::size_t r = 0; r < count; ++r) {
      if (st[r].done) continue;
      const std::string_view target = requests[r].target;
      const std::string_view query = requests[r].query;
      const std::size_t rem_t = target.size() - st[r].ti;
      const std::size_t rem_q = query.size() - st[r].qi;
      if (rem_q == 0) {
        finish(r, lanes.gap(r, common::EditOp::Deletion, rem_t, st[r]));
        continue;
      }
      if (rem_t == 0) {
        finish(r, lanes.gap(r, common::EditOp::Insertion, rem_q, st[r]));
        continue;
      }
      probs.push_back(currentWindow(cfg, target, query, st[r]));
      lane_req.push_back(r);
    }
    if (probs.empty()) break;
    lanes.solve(solver, probs, scratch);
    for (std::size_t j = 0; j < lane_req.size(); ++j) {
      const std::size_t r = lane_req[j];
      March& m = st[r];
      const LaneStep s = lanes.step(j);
      if (!s.ok) {
        finish(r, false);
        continue;
      }
      if (m.is_final) {
        const std::size_t rem_t = requests[r].target.size() - m.ti;
        finish(r, lanes.commit(r, j, m) &&
                      lanes.gap(r, common::EditOp::Deletion,
                                rem_t - s.text_consumed, m));
        continue;
      }
      if (s.text_consumed == 0 && s.pattern_consumed == 0) {
        finish(r, false);  // defensive: no progress
        continue;
      }
      if (!lanes.commit(r, j, m)) {
        finish(r, false);
        continue;
      }
      m.ti += s.text_consumed;
      m.qi += s.pattern_consumed;
    }
  }
}

}  // namespace

void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results,
                           WindowedBatchScratch& scratch) {
  marchWindowedBatch(solver, cfg, requests, count,
                     DistanceLanes{requests, results, scratch.outs}, scratch);
}

void distanceWindowedBatch(simd::SimdBatchSolver& solver,
                           const WindowConfig& cfg,
                           const BatchedDistanceRequest* requests,
                           std::size_t count, int* results) {
  WindowedBatchScratch scratch;
  distanceWindowedBatch(solver, cfg, requests, count, results, scratch);
}

void alignWindowedBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                        const BatchedAlignRequest* requests, std::size_t count,
                        common::AlignmentResult* results,
                        WindowedBatchScratch& scratch) {
  marchWindowedBatch(solver, cfg, requests, count,
                     AlignLanes{results, scratch.wrs}, scratch);
}

void alignWindowedBatch(simd::SimdBatchSolver& solver, const WindowConfig& cfg,
                        const BatchedAlignRequest* requests, std::size_t count,
                        common::AlignmentResult* results) {
  WindowedBatchScratch scratch;
  alignWindowedBatch(solver, cfg, requests, count, results, scratch);
}

common::AlignmentResult alignWindowedBaseline(std::string_view target,
                                              std::string_view query,
                                              const WindowConfig& cfg,
                                              util::MemStats* stats) {
  return withWindowSolver<genasm::BaselineWindowSolver>(
      cfg, stats, [&](auto& solver, auto counter) {
        return alignWindowed(solver, target, query, cfg, counter);
      });
}

common::AlignmentResult alignWindowedImproved(std::string_view target,
                                              std::string_view query,
                                              const WindowConfig& cfg,
                                              const ImprovedOptions& opts,
                                              util::MemStats* stats) {
  return withWindowSolver<ImprovedWindowSolver>(
      cfg, stats,
      [&](auto& solver, auto counter) {
        return alignWindowed(solver, target, query, cfg, counter);
      },
      opts);
}

int distanceWindowedBaseline(std::string_view target, std::string_view query,
                             const WindowConfig& cfg, int cap,
                             util::MemStats* stats) {
  return withWindowSolver<genasm::BaselineWindowSolver>(
      cfg, stats, [&](auto& solver, auto counter) {
        WindowBuffers bufs;
        return distanceWindowed(solver, target, query, cfg, cap, bufs,
                                counter);
      });
}

int distanceWindowedImproved(std::string_view target, std::string_view query,
                             const WindowConfig& cfg,
                             const ImprovedOptions& opts, int cap,
                             util::MemStats* stats) {
  return withWindowSolver<ImprovedWindowSolver>(
      cfg, stats,
      [&](auto& solver, auto counter) {
        WindowBuffers bufs;
        return distanceWindowed(solver, target, query, cfg, cap, bufs,
                                counter);
      },
      opts);
}

}  // namespace gx::core
