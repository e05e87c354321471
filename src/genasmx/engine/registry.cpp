#include "genasmx/engine/registry.hpp"

#include <memory>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/refdp/affine_dp.hpp"
#include "genasmx/refdp/edit_dp.hpp"
#include "genasmx/simd/batch_solver.hpp"

namespace gx::engine {
namespace {

using common::AlignmentResult;

// Query lengths the single-window global GenASM solvers can hold; longer
// queries silently switch to the windowed driver with the same config.
constexpr std::size_t kGlobalGenasmMax = bitvector::BitVec<8>::kBits;

/// Per-aligner arenas for the batched GenASM routing: the global-vs-
/// march task split, result staging, and the march's own scratch. Owned
/// by each GenASM aligner instance, so steady-state batches through the
/// engine's spare-pooled workers grow nothing.
struct GenasmBatchScratch {
  std::vector<simd::WindowProblem> globals;
  std::vector<std::size_t> global_idx;
  std::vector<core::BatchedDistanceRequest> d_marches;
  std::vector<core::BatchedAlignRequest> a_marches;
  std::vector<std::size_t> march_idx;
  std::vector<int> ints;                        ///< distance staging
  std::vector<genasm::WindowResult> wrs;        ///< global align staging
  std::vector<common::AlignmentResult> aligns;  ///< march align staging
  core::WindowedBatchScratch march;

  /// Grow-only resize.
  template <class T>
  static void ensure(std::vector<T>& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
  }
};

// The per-result-kind steps of genasmBatch, overloaded on the task type.

/// The global window problem for one task. A distance task's result cap
/// is folded into the level cap, as distanceGlobalWith does: hopeless
/// problems stop at cap+1 levels.
simd::WindowProblem globalProblem(const DistanceTask& t, int max_edits) {
  int k = max_edits >= 0
              ? max_edits
              : genasm::autoEditCap(static_cast<int>(t.target.size()),
                                    static_cast<int>(t.query.size()),
                                    genasm::Anchor::BothEnds);
  if (t.cap >= 0 && t.cap < k) k = t.cap;
  return {t.target, t.query, k, -1};
}

simd::WindowProblem globalProblem(const AlignmentTask& t, int max_edits) {
  return {t.target, t.query, max_edits, -1};
}

/// Solve sc.globals on the lane solver into results[sc.global_idx[j]]:
/// solveDistanceBatch == scalar solveDistance per lane, alignBatch ==
/// alignGlobalWith per lane, cigar included.
void solveGlobals(simd::SimdBatchSolver& solver, GenasmBatchScratch& sc,
                  int* results) {
  sc.ensure(sc.ints, sc.globals.size());
  solver.solveDistanceBatch(genasm::Anchor::BothEnds, sc.globals.data(),
                            sc.globals.size(), sc.ints.data());
  for (std::size_t j = 0; j < sc.global_idx.size(); ++j) {
    results[sc.global_idx[j]] = sc.ints[j];
  }
}

void solveGlobals(simd::SimdBatchSolver& solver, GenasmBatchScratch& sc,
                  AlignmentResult* results) {
  sc.ensure(sc.wrs, sc.globals.size());
  solver.alignBatch(genasm::Anchor::BothEnds, sc.globals.data(),
                    sc.globals.size(), sc.wrs.data());
  for (std::size_t j = 0; j < sc.global_idx.size(); ++j) {
    const genasm::WindowResult& wr = sc.wrs[j];
    AlignmentResult& out = results[sc.global_idx[j]];
    out.ok = wr.ok;
    out.edit_distance = wr.ok ? wr.distance : -1;
    out.score = wr.ok ? -wr.distance : 0;
    out.cigar.clear();
    if (wr.ok) out.cigar = wr.cigar;
  }
}

/// March tasks[sc.march_idx[j]] through the batched window march into
/// results[sc.march_idx[j]].
void marchTasks(simd::SimdBatchSolver& solver, const core::WindowConfig& wcfg,
                const DistanceTask* tasks, GenasmBatchScratch& sc,
                int* results) {
  sc.ensure(sc.d_marches, sc.march_idx.size());
  sc.ensure(sc.ints, sc.march_idx.size());
  sc.d_marches.clear();
  for (const std::size_t i : sc.march_idx) {
    sc.d_marches.push_back({tasks[i].target, tasks[i].query, tasks[i].cap});
  }
  core::distanceWindowedBatch(solver, wcfg, sc.d_marches.data(),
                              sc.d_marches.size(), sc.ints.data(), sc.march);
  for (std::size_t j = 0; j < sc.march_idx.size(); ++j) {
    results[sc.march_idx[j]] = sc.ints[j];
  }
}

void marchTasks(simd::SimdBatchSolver& solver, const core::WindowConfig& wcfg,
                const AlignmentTask* tasks, GenasmBatchScratch& sc,
                AlignmentResult* results) {
  sc.ensure(sc.a_marches, sc.march_idx.size());
  sc.ensure(sc.aligns, sc.march_idx.size());
  sc.a_marches.clear();
  for (const std::size_t i : sc.march_idx) {
    sc.a_marches.push_back({tasks[i].target, tasks[i].query});
  }
  core::alignWindowedBatch(solver, wcfg, sc.a_marches.data(),
                           sc.a_marches.size(), sc.aligns.data(), sc.march);
  for (std::size_t j = 0; j < sc.march_idx.size(); ++j) {
    results[sc.march_idx[j]] = sc.aligns[j];
  }
}

/// Shared batched routing for the GenASM backends. Tasks whose non-empty
/// query fits a single global window go through the lane solver's global
/// kernels; the rest — every task, for the windowed-* backends — march
/// through the core batched window march, which packs the current windows
/// of all live tasks into lanes. The march also takes empty queries: its
/// trailing-deletion result equals the global solvers' degenerate case.
/// results[i] equals the backend's scalar align()/distance() of tasks[i].
template <class Task, class Result>
void genasmBatch(simd::SimdBatchSolver& solver, const AlignerConfig& cfg,
                 bool windowed_only, const Task* tasks, std::size_t count,
                 Result* results, GenasmBatchScratch& sc) {
  // Capacity for the split is bounded by count; clear() preserves it, so
  // the push_backs below never reallocate once the arena is warm.
  sc.ensure(sc.globals, count);
  sc.ensure(sc.global_idx, count);
  sc.ensure(sc.march_idx, count);
  sc.globals.clear();
  sc.global_idx.clear();
  sc.march_idx.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view q = tasks[i].query;
    if (windowed_only || q.empty() || q.size() > kGlobalGenasmMax) {
      sc.march_idx.push_back(i);
      continue;
    }
    sc.globals.push_back(globalProblem(tasks[i], cfg.max_edits));
    sc.global_idx.push_back(i);
  }
  if (!sc.globals.empty()) solveGlobals(solver, sc, results);
  if (!sc.march_idx.empty()) {
    marchTasks(solver, cfg.window, tasks, sc, results);
  }
}

/// The GenASM backends. `Solver` is the baseline or improved window
/// solver; kGlobalUpTo512 selects the global backends, which solve a
/// query of up to 512 bp as one global window and march longer ones,
/// while the windowed-* backends always march.
template <template <int> class Solver, bool kGlobalUpTo512>
class GenasmAligner final : public Aligner {
 public:
  // Window geometry is validated up front: the march would otherwise
  // surface the validate() throw from a worker thread.
  GenasmAligner(const AlignerConfig& cfg, std::string_view name)
      : cfg_(cfg), name_(name) {
    cfg_.window.validate();
  }
  AlignmentResult align(std::string_view t, std::string_view q) override {
    if (isGlobal(q)) {
      return withSolver(q.size(), [&](auto& solver) {
        return genasm::alignGlobalWith(solver, bufs_.t_rev, bufs_.q_rev, t,
                                       q, cfg_.max_edits);
      });
    }
    return withSolver(cfg_.window.window, [&](auto& solver) {
      return core::alignWindowed(solver, t, q, cfg_.window, bufs_);
    });
  }
  int distance(std::string_view t, std::string_view q, int cap) override {
    if (isGlobal(q)) {
      return withSolver(q.size(), [&](auto& solver) {
        return genasm::distanceGlobalWith(solver, bufs_.t_rev, bufs_.q_rev,
                                          t, q, cfg_.max_edits, cap);
      });
    }
    return withSolver(cfg_.window.window, [&](auto& solver) {
      return core::distanceWindowed(solver, t, q, cfg_.window, cap, bufs_);
    });
  }
  void distanceBatch(const DistanceTask* tasks, std::size_t count,
                     int* results) override {
    genasmBatch(simd_, cfg_, !kGlobalUpTo512, tasks, count, results, batch_);
  }
  void alignBatch(const AlignmentTask* tasks, std::size_t count,
                  AlignmentResult* results) override {
    genasmBatch(simd_, cfg_, !kGlobalUpTo512, tasks, count, results, batch_);
  }
  std::string_view name() const noexcept override { return name_; }

 private:
  static bool isGlobal(std::string_view q) noexcept {
    return kGlobalUpTo512 && q.size() <= kGlobalGenasmMax;
  }

  /// Run fn on this aligner's solver for `pattern_len` characters. Each
  /// width's solver is built on first use and kept, so its scratch arenas
  /// persist across calls — the per-worker reuse AlignmentEngine's spare
  /// pool relies on.
  template <class Fn>
  decltype(auto) withSolver(std::size_t pattern_len, Fn&& fn) {
    const int nw = bitvector::wordsNeeded(static_cast<int>(pattern_len));
    return bitvector::withWidth(nw, [&](auto w) {
      auto& slot = std::get<w() - 1>(solvers_);
      if (!slot) {
        if constexpr (std::is_constructible_v<Solver<w()>,
                                              core::ImprovedOptions>) {
          slot = std::make_unique<Solver<w()>>(cfg_.improved);
        } else {
          slot = std::make_unique<Solver<w()>>();
        }
      }
      return fn(*slot);
    });
  }

  template <int... NW>
  using Slots = std::tuple<std::unique_ptr<Solver<NW>>...>;

  AlignerConfig cfg_;
  std::string_view name_;
  Slots<1, 2, 3, 4, 5, 6, 7, 8> solvers_;
  core::WindowBuffers bufs_;
  simd::SimdBatchSolver simd_;
  GenasmBatchScratch batch_;
};

/// Registry factory for one GenASM backend; `name` must outlive every
/// aligner it creates (the registry passes string literals).
template <template <int> class Solver, bool kGlobalUpTo512>
AlignerRegistry::Factory genasmFactory(std::string_view name) {
  return [name](const AlignerConfig& cfg) -> AlignerPtr {
    return std::make_unique<GenasmAligner<Solver, kGlobalUpTo512>>(cfg, name);
  };
}

class MyersBackend final : public Aligner {
 public:
  explicit MyersBackend(const AlignerConfig& cfg) : aligner_(cfg.myers) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return aligner_.align(t, q);
  }
  int distance(std::string_view t, std::string_view q, int cap) override {
    const int d = aligner_.distance(t, q);  // bit-parallel, no traceback
    if (d < 0) return -1;
    return (cap >= 0 && d > cap) ? -1 : d;
  }
  std::string_view name() const noexcept override { return "myers"; }

 private:
  myers::MyersAligner aligner_;
};

class KswBackend final : public Aligner {
 public:
  explicit KswBackend(const AlignerConfig& cfg) : aligner_(cfg.ksw) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return aligner_.align(t, q);
  }
  std::string_view name() const noexcept override { return "ksw"; }

 private:
  ksw::KswAligner aligner_;
};

class EditDpBackend final : public Aligner {
 public:
  explicit EditDpBackend(const AlignerConfig&) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return refdp::align(t, q);
  }
  int distance(std::string_view t, std::string_view q, int cap) override {
    // O(min(n,m)) space, no traceback; a cap selects the Ukkonen band.
    if (cap >= 0) return refdp::editDistanceBanded(t, q, cap);
    return refdp::editDistance(t, q);
  }
  std::string_view name() const noexcept override { return "edit-dp"; }
};

class AffineDpBackend final : public Aligner {
 public:
  explicit AffineDpBackend(const AlignerConfig& cfg)
      : params_(cfg.ksw.params) {}
  AlignmentResult align(std::string_view t, std::string_view q) override {
    return refdp::alignAffine(t, q, params_);
  }
  std::string_view name() const noexcept override { return "affine-dp"; }

 private:
  refdp::AffineParams params_;
};

}  // namespace

AlignerRegistry::AlignerRegistry() {
  add("baseline", "global unimproved GenASM (MICRO'20; windowed beyond 512 bp)",
      genasmFactory<genasm::BaselineWindowSolver, true>("baseline"));
  add("improved", "global improved GenASM (windowed beyond 512 bp)",
      genasmFactory<core::ImprovedWindowSolver, true>("improved"));
  add("windowed-baseline", "windowed unimproved GenASM (long reads)",
      genasmFactory<genasm::BaselineWindowSolver, false>("windowed-baseline"));
  add("windowed-improved",
      "windowed improved GenASM — the paper's system (default)",
      genasmFactory<core::ImprovedWindowSolver, false>("windowed-improved"));
  add("myers", "Myers bit-parallel + band doubling (Edlib-class)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<MyersBackend>(cfg);
      });
  add("ksw", "banded affine-gap DP (KSW2-class, minimap2's base aligner)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<KswBackend>(cfg);
      });
  add("edit-dp", "O(n*m) unit-cost reference DP (oracle)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<EditDpBackend>(cfg);
      });
  add("affine-dp", "O(n*m) Gotoh affine reference DP (oracle)",
      [](const AlignerConfig& cfg) -> AlignerPtr {
        return std::make_unique<AffineDpBackend>(cfg);
      });
}

AlignerRegistry& AlignerRegistry::instance() {
  static AlignerRegistry registry;
  return registry;
}

void AlignerRegistry::add(std::string name, std::string description,
                          Factory factory) {
  entries_[std::move(name)] =
      Entry{std::move(description), std::move(factory)};
}

bool AlignerRegistry::contains(std::string_view name) const noexcept {
  return entries_.find(name) != entries_.end();
}

AlignerPtr AlignerRegistry::create(std::string_view name,
                                   const AlignerConfig& cfg) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string msg = "unknown aligner backend '";
    msg += name;
    msg += "'; registered:";
    for (const auto& [key, entry] : entries_) {
      (void)entry;
      msg += ' ';
      msg += key;
    }
    throw std::invalid_argument(msg);
  }
  return it->second.factory(cfg);
}

std::vector<std::string> AlignerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    (void)entry;
    out.push_back(key);
  }
  return out;
}

std::string AlignerRegistry::description(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::string{} : it->second.description;
}

AlignerPtr makeAligner(std::string_view name, const AlignerConfig& cfg) {
  return AlignerRegistry::instance().create(name, cfg);
}

}  // namespace gx::engine
