// INV002 true positive: PopulationSpec grew a field (drift_mv) that the
// canonical fingerprint string never mentions, so a stale checkpoint
// written before the field existed still resumes under the new spec.
#include <string>

struct PopulationSpec {
  int num_chips = 0;
  unsigned long long seed = 0;
  double grid_step = 0.0;
  double drift_mv = 0.0;  // new axis, missing from the canonical string
};

std::string grid_canonical(const PopulationSpec& spec) {
  return "population|v9|chips=" + std::to_string(spec.num_chips) +
         "|seed=" + std::to_string(spec.seed) +
         "|step=" + std::to_string(spec.grid_step);
}
