// Serial reference for population runs, used only by the tests: one die at
// a time, in chip order, with no shards, threads, checkpoint or telemetry.
// PopulationGridEngine must reproduce it bit for bit at every grid point.
// Also the per-kernel oracles the production kernels are differenced
// against: the binary-search rung histogram and the per-prefix fold.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "exp/population_engine.hpp"
#include "fault/ber_model.hpp"
#include "fault/cell_fault_field.hpp"
#include "util/rng.hpp"

namespace pcs::test {

/// Rung oracle for count_fail_rungs: block b lands in bucket
/// upper_bound(grid, double(vf[b])), found by binary search.
inline void reference_count_fail_rungs(std::span<const float> vf,
                                       std::span<const Volt> grid,
                                       std::span<u64> rung_counts) {
  for (const float v : vf) {
    const auto rungs_below = std::upper_bound(grid.begin(), grid.end(),
                                              static_cast<Volt>(v)) -
                             grid.begin();
    ++rung_counts[static_cast<std::size_t>(rungs_below)];
  }
}

/// Fold oracle for chip_fail_voltage: a fresh pass over one prefix, max over
/// sets of the min over ways, in set order.
inline float reference_chip_fail_voltage(std::span<const float> vf,
                                         u32 assoc) {
  float worst_set = 0.0f;
  for (u64 s = 0; s < vf.size() / assoc; ++s) {
    float best_way = 2.0f;
    for (u32 w = 0; w < assoc; ++w) {
      best_way = std::min(best_way, vf[s * assoc + w]);
    }
    worst_set = std::max(worst_set, best_way);
  }
  return worst_set;
}

inline PopulationResult serial_population(const BerModel& ber,
                                          const PopulationSpec& spec) {
  const std::vector<Volt> grid = spec.grid();
  PopulationResult r = make_empty_population_result(grid);
  for (u64 c = 0; c < spec.num_chips; ++c) {
    Rng rng(derive_seed(spec.seed, 0, c));
    const CellFaultField field = CellFaultField::sample_fast(
        ber, spec.org.num_blocks(), spec.org.bits_per_block(), rng);
    accumulate_chip(r,
                    bin_chip(field, spec.org, grid, spec.spcs_min_capacity));
  }
  return r;
}

}  // namespace pcs::test
