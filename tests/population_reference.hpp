// Serial reference for population runs, used only by the tests: one die at
// a time, in chip order, with no shards, threads, checkpoint or telemetry.
// PopulationGridEngine must reproduce it bit for bit at every grid point.
#pragma once

#include <vector>

#include "exp/population_engine.hpp"
#include "fault/ber_model.hpp"
#include "fault/cell_fault_field.hpp"
#include "util/rng.hpp"

namespace pcs::test {

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
