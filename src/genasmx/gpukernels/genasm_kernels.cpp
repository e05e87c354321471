#include "genasmx/gpukernels/genasm_kernels.hpp"

#include <stdexcept>

namespace gx::gpukernels {
namespace {

/// The kernel both entry points share: functional windowed alignment
/// through `solver` (a one-word window solver) + instrumented memory
/// attribution + work declaration.
template <class Solver>
GpuBatchOutput runBatch(Solver& solver, gpusim::Device& device,
                        const std::vector<mapper::AlignmentPair>& pairs,
                        const core::WindowConfig& wcfg, int block_threads,
                        const KernelCostModel& cost) {
  wcfg.validate();
  if (bitvector::wordsNeeded(wcfg.window) > 1) {
    throw std::invalid_argument(
        "gpukernels: GPU kernels are tuned for windows <= 64 (one machine "
        "word per bitvector), as in the paper");
  }
  GpuBatchOutput out;
  out.results.resize(pairs.size());

  auto block_program = [&](gpusim::BlockContext& ctx) {
    const auto& pair = pairs[static_cast<std::size_t>(ctx.blockId())];
    util::MemStats local;
    common::AlignmentResult res =
        core::alignWindowed(solver, pair.target, pair.query, wcfg,
                            util::CountingMemCounter(local));

    // Sequences stream in from DRAM, 2-bit packed.
    ctx.globalLoad((pair.target.size() + pair.query.size() + 3) / 4);

    // DP working set: request shared memory; spill to DRAM if refused.
    const std::size_t want = local.bytes_peak;
    const bool in_shared = ctx.sharedAlloc(want);
    const std::uint64_t dp_bytes = (local.dp_loads + local.dp_stores) * 8;
    if (in_shared) {
      ctx.sharedLoad(local.dp_loads * 8);
      ctx.sharedStore(local.dp_stores * 8);
    } else {
      ctx.globalLoad(local.dp_loads * 8);
      ctx.globalStore(local.dp_stores * 8);
      ++out.spilled_blocks;
    }
    (void)dp_bytes;

    // Result CIGAR written back (run-length units, 4B each).
    const std::uint64_t tb_ops = res.ok ? res.cigar.opCount() : 0;
    ctx.globalStore(res.ok ? res.cigar.size() * 4 + 16 : 16);

    ctx.work(cost.ops_per_entry * static_cast<double>(local.dp_entries) +
                 cost.ops_per_tb_op * static_cast<double>(tb_ops),
             cost.cycles_per_wavefront_step *
                     static_cast<double>(local.wavefront_steps) +
                 cost.cycles_per_tb_op * static_cast<double>(tb_ops) +
                 cost.window_overhead_cycles *
                     static_cast<double>(local.problems));
    if (in_shared) ctx.sharedFree(want);

    out.mem += local;
    out.results[static_cast<std::size_t>(ctx.blockId())] = std::move(res);
  };

  out.launch = device.launch(static_cast<int>(pairs.size()), block_threads,
                             block_program);
  out.time = gpusim::modelTime(device.spec(), out.launch);
  out.alignments_per_second =
      out.time.total_s > 0
          ? static_cast<double>(pairs.size()) / out.time.total_s
          : 0.0;
  return out;
}

}  // namespace

GpuBatchOutput alignBatchImproved(gpusim::Device& device,
                                  const std::vector<mapper::AlignmentPair>& pairs,
                                  const core::WindowConfig& wcfg,
                                  const core::ImprovedOptions& opts,
                                  int block_threads,
                                  const KernelCostModel& cost) {
  core::ImprovedWindowSolver<1> solver(opts);
  return runBatch(solver, device, pairs, wcfg, block_threads, cost);
}

GpuBatchOutput alignBatchBaseline(gpusim::Device& device,
                                  const std::vector<mapper::AlignmentPair>& pairs,
                                  const core::WindowConfig& wcfg,
                                  int block_threads,
                                  const KernelCostModel& cost) {
  genasm::BaselineWindowSolver<1> solver;
  return runBatch(solver, device, pairs, wcfg, block_threads, cost);
}

}  // namespace gx::gpukernels
