// INV002 clean case: every PopulationSpec field appears in the canonical
// fingerprint string, so checkpoint sidecars validate the full spec.
#include <string>

struct PopulationSpec {
  int num_chips = 0;
  unsigned long long seed = 0;
  double grid_step = 0.0;
  double drift_mv = 0.0;
};

std::string grid_canonical(const PopulationSpec& spec) {
  return "population|v9|chips=" + std::to_string(spec.num_chips) +
         "|seed=" + std::to_string(spec.seed) +
         "|step=" + std::to_string(spec.grid_step) +
         "|drift=" + std::to_string(spec.drift_mv);
}
