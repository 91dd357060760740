// Sample-once population grid engine.
//
// POPULATION.md's grid runs evaluate one manufactured fleet against a full
// (size_kb x assoc x sigma) design grid; a single-design population run
// (chip_binning, the `population` job kind) is the 1x1x1 case. Running
// each grid point separately would re-manufacture the SAME dies G times:
// chip c's draws depend only on (seed, c), and none of them depends on the
// grid axes. This engine draws each die ONCE per shard pass and derives
// every grid point from the shared draws:
//
//   * sigma axis: every (sigma, rung) pair is one threshold on the block's
//     order-statistic deviate z (fail_z_threshold), so one
//     FailThresholdTable over all of them classifies each block's uniform
//     draw once; the block's rung at any sigma -- count_fail_rungs' bucket
//     of its sample_fast voltage -- is a lookup on that class. The z chain
//     runs only for draws in the table's guard band.
//   * size axis: Rng::uniform_block draws are exactly consecutive uniform()
//     calls, so a smaller cache's draws are a bit-exact PREFIX of a larger
//     cache's for the same seed. The die is drawn at the LARGEST size;
//     smaller sizes reuse the prefix, and one class histogram grows over
//     each added block range (sizes visited in ascending block order).
//   * assoc axis: associativity affects only the min/max fold of
//     chip_fail_voltage, never the draws or the histogram. The rung of the
//     folded voltage is the same fold over the block rungs, and the rung
//     is monotone in the class, so one class fold per assoc
//     (max_min_fold_prefixes over the largest size's sets, snapshotted at
//     each smaller size's last set) serves every sigma and size.
//
// Every per-point PopulationResult is therefore BIT-IDENTICAL to a serial
// per-die loop over that point's spec with the same seed (sample_fast +
// bin_chip + accumulate_chip; asserted per point by
// tests/test_population_grid.cpp and tests/test_fault_equivalence.cpp, and
// by the CI grid determinism smoke against chip_binning), at any thread
// count and any shard size -- the shard/merge determinism contract of
// population_engine.hpp, including shard-range checkpoint/resume
// (CheckpointOptions; one histogram set per grid point in the sidecar).
#pragma once

#include <iosfwd>
#include <vector>

#include "exp/population_engine.hpp"
#include "fault/ber_model.hpp"
#include "telemetry/trace_sink.hpp"

namespace pcs {

/// A (size_kb x assoc x sigma) grid over one manufactured fleet. The base
/// spec contributes everything except the swept axes: chip count, seed, VDD
/// ladder, SPCS target, shard size, block geometry. Axis values are used in
/// spec order; duplicates are rejected by validate().
struct PopulationGridSpec {
  PopulationSpec base;

  std::vector<u64> sizes_kb{64};  ///< cache sizes, KB
  std::vector<u32> assocs{4};     ///< associativities (ways)
  /// Process-variation sigmas of the fail-voltage distribution. Empty means
  /// "the engine's BerModel sigma" (one point on the sigma axis).
  std::vector<Volt> sigmas;

  /// Throws std::invalid_argument unless every axis is non-empty and
  /// duplicate-free, sigmas are positive, and every (size, assoc) yields a
  /// valid CacheOrg (see org_for).
  void validate() const;

  /// Points on the sigma axis: `sigmas`, or {fallback_sigma} when empty.
  std::vector<Volt> sigma_axis(Volt fallback_sigma) const;

  /// The base org resized to one grid cell. Throws std::invalid_argument
  /// when the size's byte count overflows u64.
  CacheOrg org_for(u64 size_kb, u32 assoc) const;

  /// The single-design PopulationSpec of one grid point (what its report
  /// header and the serial test reference take).
  PopulationSpec point_spec(u64 size_kb, u32 assoc) const;

  u64 num_points() const noexcept {
    const u64 s = sigmas.empty() ? 1 : sigmas.size();
    return sizes_kb.size() * assocs.size() * s;
  }
};

/// One grid cell: its coordinates plus the full fleet distributions.
struct PopulationGridPointResult {
  u64 size_kb = 0;
  u32 assoc = 0;
  Volt sigma = 0.0;
  PopulationResult result;
};

/// All grid cells, size-major in spec order:
/// point (si, ai, gi) lives at index (si * assocs + ai) * sigmas + gi.
struct PopulationGridResult {
  std::vector<PopulationGridPointResult> points;
};

/// Runs population grids across the deterministic ThreadPool.
class PopulationGridEngine {
 public:
  /// `ber` supplies mu and the fallback sigma; must outlive the engine.
  /// `num_threads` 0 = pcs_thread_count().
  explicit PopulationGridEngine(const BerModel& ber, u32 num_threads = 0);

  u32 num_threads() const noexcept { return num_threads_; }
  const BerModel& ber() const noexcept { return *ber_; }

  /// Evaluates every grid point over the shared fleet. When `trace` is
  /// non-null, one deterministic `population_grid_point` record is emitted
  /// per point, in point order, after the run (see TELEMETRY.md). `ckpt`
  /// enables shard-range checkpoint/resume (see CheckpointOptions); the
  /// sidecar holds one histogram set per point.
  PopulationGridResult run(const PopulationGridSpec& spec,
                           TraceSink* trace = nullptr,
                           const CheckpointOptions* ckpt = nullptr) const;

 private:
  const BerModel* ber_;
  u32 num_threads_;
};

/// Renders the operator-facing grid summary table (one row per point:
/// coordinates, yield at the top ladder level, floor/SPCS medians, unusable
/// count) to `out`. Bytes depend only on (spec, result) -- shared by
/// examples/population_grid and the pcs_sim service mode.
void render_population_grid_report(const PopulationGridSpec& spec,
                                   const PopulationGridResult& result,
                                   std::ostream& out);

}  // namespace pcs
