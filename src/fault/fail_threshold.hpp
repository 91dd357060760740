// Fail-voltage thresholds as cuts on the uniform draw.
//
// CellFaultField::sample_fast turns block b's uniform draw u = k * 2^-53
// (Rng::uniform) into a fail voltage
//   vf = float(mu + sigma * z(u)),  z(u) = inv_q(-expm1(log(u) / n))
// through the log/expm1/inv_q chain (vecmath::sample_z_block). Every
// consumer of vf only asks where it falls against a sorted set of voltage
// thresholds: FaultMap's code is the number of ladder levels at or below
// vf, and the population grid's rung is the number of grid rungs at or
// below it. The chain rises with u, so each threshold is one CUT K on the
// lattice of draws -- the block reaches the threshold iff k >= K -- and a
// block's class is the number of cuts at or below its draw. This file finds
// the cuts once per table (lock-step bisection, batched through the same
// vecmath chain) and then classifies each draw by a table lookup.
//
// Guard band. The computed chain is not exactly monotone: rounding in
// log/expm1/erfc makes z(k) wobble by ulps, so a handful of lattice points
// next to a cut land on the other side of it (scanning the 170 distinct
// cuts of the shipped ladders and grids finds such crossings up to 3 points
// from the bisection's cut). Draws within kBand lattice points of any cut
// therefore run the real chain; the lookup answers only draws far from
// every cut, where the chain's ulp-level error cannot reach across the
// threshold. DESIGN.md section 11 gives the argument;
// FaultThresholdEquivalence.GuardBandCoversEveryShippedCut
// (tests/test_fault_equivalence.cpp) scans every cut of the shipped ladders
// and grids and fails if the band is removed.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/types.hpp"
#include "util/vecmath.hpp"

namespace pcs {

/// The smallest double z with double(float(mu + sigma * z)) >= threshold,
/// the affine tail evaluated exactly as vecmath::vf_from_z_block does it.
/// That tail is monotone in z, so for every z:
///   double(float(mu + sigma * z)) >= threshold  <=>  z >= the result.
/// Requires sigma > 0 and a finite threshold.
double fail_z_threshold(double mu, double sigma, double threshold);

/// Evaluator of the z chain over a block of uniform draws; the signature of
/// vecmath::sample_z_block, which every production table uses.
using ZChainFn = void (*)(const double* u, std::size_t count,
                          double bits_per_block, double* z_out);

/// Classifies uniform draws against ascending z thresholds without running
/// the chain, except inside the guard band.
class FailThresholdTable {
 public:
  /// Draws are k * 2^-53 for k in [0, kLatticeEnd).
  static constexpr u64 kLatticeEnd = u64{1} << 53;
  /// Half-width of the guard band around each cut, in lattice points.
  static constexpr u64 kBand = u64{1} << 16;

  /// `z_thresholds` ascending (duplicates allowed, fewer than 2^31).
  /// `chain` evaluates z for the cut search and the band fallback; it must
  /// be bit-identical to vecmath::sample_z_block for the table to classify
  /// as sample_fast does (tests pass the scalar reference chain here).
  FailThresholdTable(double bits_per_block, std::vector<double> z_thresholds,
                     ZChainFn chain = &vecmath::sample_z_block);

  /// Voltage form: threshold i is reached iff double(vf) >= thresholds[i],
  /// for vf = float(mu + sigma * z) -- the rule of FaultMap's build (with
  /// thresholds = double(float(level))) and of count_fail_rungs.
  static FailThresholdTable for_voltages(
      double mu, double sigma, double bits_per_block,
      std::span<const double> thresholds,
      ZChainFn chain = &vecmath::sample_z_block);

  /// Cut of threshold i: the first lattice index k whose chain value
  /// reaches z threshold i (kLatticeEnd if none does), as found by the
  /// bisection. Listed in threshold order.
  std::span<const u64> cuts() const noexcept { return cut_; }

  /// Number of thresholds at or below the draw's z: bit-identical to
  /// classify_by_chain for every lattice draw u (what Rng::uniform
  /// returns). O(1) outside the cells that a cut's guard band overlaps.
  u32 classify(double u) const noexcept {
    const u32 cls = lookup(u);
    return (cls & kMixed) != 0 ? classify_by_chain(u) : cls;
  }

  /// classify() over a block of draws; the guard-band draws go through the
  /// chain together, kBandBatch per call.
  template <class Code>
  void classify_block(const double* u, std::size_t count,
                      Code* out) const noexcept {
    std::size_t band[kBandBatch] = {};
    u32 band_cls[kBandBatch] = {};
    std::size_t in_band = 0;
    const auto flush = [&] {
      classify_by_chain_gather(u, band, in_band, band_cls);
      for (std::size_t b = 0; b < in_band; ++b) {
        out[band[b]] = static_cast<Code>(band_cls[b]);
      }
      in_band = 0;
    };
    for (std::size_t i = 0; i < count; ++i) {
      const u32 cls = lookup(u[i]);
      if ((cls & kMixed) != 0) {
        band[in_band++] = i;
        if (in_band == kBandBatch) flush();
        continue;
      }
      out[i] = static_cast<Code>(cls);
    }
    if (in_band != 0) flush();
  }

  /// The definition classify() reproduces: runs the chain on `u` and
  /// counts the thresholds at or below its z. The band fallback.
  u32 classify_by_chain(double u) const noexcept;

 private:
  static constexpr u32 kCellBits = 12;
  static constexpr u32 kCellShift = 53 - kCellBits;
  static constexpr u32 kMixed = u32{1} << 31;
  /// Half-width of the cut search's starting bracket around the
  /// closed-form guess, in lattice points.
  static constexpr u64 kGuessSlack = u64{1} << 12;
  static constexpr std::size_t kBandBatch = 64;

  /// The class of lattice draw u from the cuts alone, or kMixed when u is
  /// inside a guard band.
  u32 lookup(double u) const noexcept {
    const auto k = static_cast<u64>(u * 0x1p53);
    const u32 cls = cell_[k >> kCellShift];
    return (cls & kMixed) != 0 ? count_cuts(k, cls & ~kMixed) : cls;
  }
  /// Number of cuts at or below k, counted up from `start` (the count at
  /// the first point of k's cell); kMixed when k is inside a guard band.
  u32 count_cuts(u64 k, u32 start) const noexcept;
  /// classify_by_chain of u[at[i]] into cls[i], one chain call for all.
  void classify_by_chain_gather(const double* u, const std::size_t* at,
                                std::size_t count, u32* cls) const noexcept;

  double bits_per_block_;
  ZChainFn chain_;
  std::vector<double> z_;
  std::vector<u64> cut_;         // threshold order
  std::vector<u64> sorted_cut_;  // ascending
  // Per cell of 2^kCellShift lattice points: the number of cuts at or
  // below its first point, with kMixed set when any cut's guard band
  // overlaps the cell (which covers every cell holding a cut).
  std::vector<u32> cell_;
};

}  // namespace pcs
