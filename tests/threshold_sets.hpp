// The voltage thresholds the shipped surfaces classify fault blocks
// against, as FailThresholdTable inputs: each cache level's VDD ladder of
// configs A and B (PcsSystem::manufacture_level), and the population grids
// of perfbench's fleet_grid and the CI grid smokes (the default 0.45..1.00 V
// ladder at 64-byte blocks, merged across their sigmas as
// PopulationGridEngine merges them). Shared by the guard-band scan, the
// closed-form oracle and the vecmath-mode cross-check.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/system.hpp"
#include "exp/population_engine.hpp"
#include "fault/fail_threshold.hpp"
#include "tech/technology.hpp"

namespace pcs::test {

/// One voltage threshold: blocks reach it iff double(vf) >= volt for
/// vf = float(mu + sigma * z); z is its fail_z_threshold.
struct VoltThreshold {
  double mu;
  double sigma;
  double volt;
  double z;
};

/// The thresholds of one table, ascending in z.
struct ThresholdSet {
  std::string name;
  double bits_per_block;
  std::vector<VoltThreshold> thresholds;

  std::vector<double> z_list() const {
    std::vector<double> z;
    for (const VoltThreshold& t : thresholds) z.push_back(t.z);
    return z;
  }
};

inline ThresholdSet make_threshold_set(std::string name, double bits,
                                       double mu,
                                       const std::vector<double>& sigmas,
                                       const std::vector<double>& volts) {
  ThresholdSet set{std::move(name), bits, {}};
  for (const double sigma : sigmas) {
    for (const double v : volts) {
      set.thresholds.push_back({mu, sigma, v, fail_z_threshold(mu, sigma, v)});
    }
  }
  std::stable_sort(set.thresholds.begin(), set.thresholds.end(),
                   [](const VoltThreshold& a, const VoltThreshold& b) {
                     return a.z < b.z;
                   });
  return set;
}

inline std::vector<ThresholdSet> shipped_threshold_sets() {
  std::vector<ThresholdSet> sets;
  for (const SystemConfig& cfg :
       {SystemConfig::config_a(), SystemConfig::config_b()}) {
    const CacheLevelConfig* levels[] = {&cfg.l1i, &cfg.l1d, &cfg.l2};
    const char* names[] = {"L1I", "L1D", "L2"};
    for (int i = 0; i < 3; ++i) {
      const CacheLevelConfig& lc = *levels[i];
      const ManufacturedLevel die = PcsSystem::manufacture_level(cfg, lc, 1);
      std::vector<double> volts;
      for (const Volt v : die.ladder.levels) {
        volts.push_back(static_cast<double>(static_cast<float>(v)));
      }
      sets.push_back(make_threshold_set(
          cfg.name + " " + names[i], lc.org.bits_per_block(),
          cfg.tech.ber_mu, {cfg.tech.ber_sigma}, volts));
    }
  }
  const Technology tech = Technology::soi45();
  const std::vector<Volt> grid = PopulationSpec{}.grid();
  sets.push_back(make_threshold_set("reference grid", 512.0, tech.ber_mu,
                                    {0.1426, 0.1585, 0.1823}, grid));
  sets.push_back(make_threshold_set("default-sigma grid", 512.0, tech.ber_mu,
                                    {tech.ber_sigma}, grid));
  return sets;
}

}  // namespace pcs::test
