// System configurations A and B (paper Tables 1 and 2).
//
// The OCR of Table 2 garbled several derived VDD values and DPCS constants;
// every voltage here is *recomputed* by the selection procedure of
// core/vdd_levels (99% yield, 99% capacity), which lands on the paper's
// legible values (VDD2 ~ 0.7 V) and trends -- see EXPERIMENTS.md.
#pragma once

#include <string>

#include "cache/hierarchy.hpp"
#include "cachemodel/cache_org.hpp"
#include "core/dynamic_policy.hpp"
#include "tech/technology.hpp"
#include "util/types.hpp"

namespace pcs {

/// Per-cache-level configuration.
struct CacheLevelConfig {
  CacheOrg org;
  u32 hit_latency = 2;
  u64 dpcs_interval = 20'000;       ///< accesses per DPCS interval
  double miss_penalty_estimate = 30.0;  ///< cycles, for the AAT estimate
  /// Intervals per SuperInterval for this cache. Larger caches use longer
  /// SuperIntervals so the periodic park-to-SPCS (which invalidates and
  /// later refills every gated block) amortizes over more useful work.
  u32 super_interval = 10;

  bool operator==(const CacheLevelConfig&) const = default;
};

/// Whole-system configuration.
struct SystemConfig {
  std::string name = "A";
  double clock_ghz = 2.0;
  CacheLevelConfig l1i;
  CacheLevelConfig l1d;
  CacheLevelConfig l2;
  u32 mem_latency = 120;  ///< cycles, DDR3-class round trip

  u32 num_vdd_levels = 3;
  double yield_target = 0.99;
  double capacity_target = 0.99;
  /// Expected-capacity floor at VDD1 (see VddSelectionParams).
  double vdd1_capacity_floor = 0.90;
  // The paper's LT/HT = 0.05/0.10 thresholds, usable directly because the
  // DPCS descend gate predicts capacity damage from the utility monitor
  // instead of probing blindly (see core/dynamic_policy.hpp). Intervals are
  // scaled down from the paper's 100k/10k because our runs are ~1000x
  // shorter than the 2B-instruction gem5 runs; bench/ablation_policy sweeps
  // them back up.
  double low_threshold = 0.05;
  double high_threshold = 0.10;
  Cycle settle_penalty = 40;  ///< extra cycles to slew/settle the data rail

  Technology tech = Technology::soi45();
  const char* replacement = "lru";

  /// Table 2 Config A: 2 GHz, 64 KB 4-way L1s (2 cycles), 2 MB 8-way L2
  /// (4 cycles) -- matched to FFT-Cache for the analytical comparison.
  static SystemConfig config_a();

  /// Table 2 Config B: 3 GHz, 4x-size caches, doubled associativity.
  static SystemConfig config_b();

  /// The plumbing view consumed by Hierarchy.
  HierarchyConfig hierarchy_config() const;

  /// Field-wise equality (the sweep engine shares a manufactured die
  /// between lanes of equal config). `replacement` compares by pointer, so
  /// two equal names at different addresses compare unequal -- a
  /// conservative mismatch that only costs a second manufacture.
  bool operator==(const SystemConfig&) const = default;
};

}  // namespace pcs
