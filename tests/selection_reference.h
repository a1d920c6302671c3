// Reference representative selection (DESIGN.md §14): the full tile sweep
// core::streamed_select_block ran before it searched over lower bounds.
// Every VP-block tile of the target block is generated and every cell goes
// through a per-column k-smallest (rtt, row) heap, so nothing is skipped;
// the bounded search must return exactly these rows. Test-only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "scenario/tile_source.h"

namespace geoloc::testing {

inline std::vector<std::vector<std::size_t>> reference_select_block(
    scenario::RttTileSource& reps, std::size_t target_block, int k,
    std::span<const sim::HostId> col_self = {}) {
  const std::size_t col_begin = target_block * reps.shape().target_block;
  const std::size_t col_end =
      std::min(reps.cols(), col_begin + reps.shape().target_block);
  const std::size_t n_cols = col_end - col_begin;
  const auto kk = static_cast<std::size_t>(std::max(k, 0));
  const auto& vps = reps.campaign().vps;

  // Per column, a max-heap of the k smallest (rtt, row) pairs. The pair
  // ordering is the one the dense partial_sort uses, and the set of k
  // smallest pairs is independent of scan order.
  std::vector<std::vector<std::pair<float, std::size_t>>> best(n_cols);
  for (std::size_t vb = 0; vb < reps.vp_blocks(); ++vb) {
    const auto& t = reps.tile(vb, target_block);
    for (std::size_t rr = 0; rr < t.rows(); ++rr) {
      const std::size_t r = t.vp_begin + rr;
      const float* row = t.rtt.data() + rr * t.cols();
      for (std::size_t cc = 0; cc < n_cols; ++cc) {
        const float rtt = row[cc];
        if (scenario::RttMatrix::is_missing(rtt)) continue;
        if (!col_self.empty() && vps[r] == col_self[col_begin + cc]) continue;
        auto& heap = best[cc];
        const std::pair<float, std::size_t> cand{rtt, r};
        if (heap.size() < kk) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end());
        } else if (kk != 0 && cand < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
  }

  std::vector<std::vector<std::size_t>> out(n_cols);
  for (std::size_t cc = 0; cc < n_cols; ++cc) {
    std::sort(best[cc].begin(), best[cc].end());
    out[cc].reserve(best[cc].size());
    for (const auto& [rtt, r] : best[cc]) out[cc].push_back(r);
  }
  return out;
}

}  // namespace geoloc::testing
