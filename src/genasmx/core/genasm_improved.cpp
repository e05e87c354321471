#include "genasmx/core/genasm_improved.hpp"

#include <string>

#include "genasmx/common/sequence.hpp"

namespace gx::core {

common::AlignmentResult alignGlobalImproved(std::string_view target,
                                            std::string_view query,
                                            int max_edits,
                                            const ImprovedOptions& opts,
                                            util::MemStats* stats) {
  // Queries wider than 512 bp select the 8-word solver, which rejects
  // them (ok == false); alignGlobalWith handles the empty query.
  return util::withCounter(stats, [&](auto counter) {
    return bitvector::withWidth(
        bitvector::wordsNeeded(static_cast<int>(query.size())),
        [&](auto nw) {
          ImprovedWindowSolver<nw()> solver(opts);
          std::string t_rev, q_rev;
          return genasm::alignGlobalWith(solver, t_rev, q_rev, target, query,
                                         max_edits, counter);
        });
  });
}

}  // namespace gx::core
