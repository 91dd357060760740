// Differential tests pinning the batched/word-parallel fault pipeline
// bit-identical to the retained scalar references.
//
// The fast paths (Rng block draws + vecmath sampling chain, histogram
// fault-map build with the O(1) viability summary, word-parallel March SS)
// must agree with their *_reference counterparts to the last bit: same
// output bytes, same draw counts, same RNG state afterwards. Randomized
// over sizes, associativities, and every VDD level count Table 2 uses, so a
// divergence anywhere in the chain shows up as a concrete mismatch here
// before it can silently shift a figure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "exp/population_grid.hpp"
#include "fault/ber_model.hpp"
#include "fault/bist.hpp"
#include "fault/cell_fault_field.hpp"
#include "fault/fail_threshold.hpp"
#include "fault/fault_map.hpp"
#include "population_reference.hpp"
#include "tech/technology.hpp"
#include "threshold_sets.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"
#include "util/vecmath_detail.hpp"

namespace pcs {
namespace {

bool same_float_bits(float a, float b) {
  u32 ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void expect_fields_identical(const CellFaultField& fast,
                             const CellFaultField& ref) {
  ASSERT_EQ(fast.num_blocks(), ref.num_blocks());
  for (u64 b = 0; b < fast.num_blocks(); ++b) {
    const auto vf = static_cast<float>(fast.block_fail_voltage(b));
    const auto vr = static_cast<float>(ref.block_fail_voltage(b));
    ASSERT_TRUE(same_float_bits(vf, vr))
        << "block " << b << ": " << vf << " vs " << vr;
  }
}

void expect_rng_state_identical(Rng& a, Rng& b) {
  // Indirect state probe: identical internal state iff the next draws agree.
  for (int i = 0; i < 8; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngBlocks, UniformBlockMatchesScalarSequence) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u}) {
    Rng a(42), b(42);
    std::vector<double> block(n), scalar(n);
    a.uniform_block(std::span<double>(block));
    for (double& v : scalar) v = b.uniform();
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(block[i], scalar[i]);
    expect_rng_state_identical(a, b);
  }
}

TEST(RngBlocks, GaussianBlockMatchesScalarSequence) {
  // Odd/even lengths and back-to-back calls exercise the cached Box-Muller
  // deviate carrying across block boundaries.
  for (std::size_t n : {0u, 1u, 2u, 3u, 64u, 255u, 1001u}) {
    Rng a(99), b(99);
    std::vector<double> block(n), scalar(n);
    for (int round = 0; round < 3; ++round) {
      a.gaussian_block(std::span<double>(block));
      for (double& v : scalar) v = b.gaussian();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(block[i], scalar[i]) << "n=" << n << " round=" << round;
      }
    }
    expect_rng_state_identical(a, b);
  }
}

TEST(RngBlocks, GaussianBlockScaledMatchesScalarSequence) {
  Rng a(7), b(7);
  std::vector<double> block(333), scalar(333);
  a.gaussian_block(std::span<double>(block), 0.62, 0.04);
  for (double& v : scalar) v = b.gaussian(0.62, 0.04);
  for (std::size_t i = 0; i < block.size(); ++i) {
    ASSERT_EQ(block[i], scalar[i]);
  }
  expect_rng_state_identical(a, b);
}

TEST(FaultEquivalence, SampleFastMatchesReference) {
  const BerModel ber(Technology::soi45());
  for (u64 blocks : {1ull, 63ull, 4096ull, 4097ull, 20000ull}) {
    for (u32 bits : {64u, 512u}) {
      Rng ra(blocks * 31 + bits), rb(blocks * 31 + bits);
      const auto fast = CellFaultField::sample_fast(ber, blocks, bits, ra);
      const auto ref =
          CellFaultField::sample_fast_reference(ber, blocks, bits, rb);
      expect_fields_identical(fast, ref);
      expect_rng_state_identical(ra, rb);
    }
  }
}

TEST(FaultEquivalence, SampleExactMatchesReference) {
  const BerModel ber(Technology::soi45());
  for (u64 blocks : {1ull, 17ull, 256ull}) {
    for (u32 bits : {1u, 7u, 64u, 513u}) {
      Rng ra(blocks * 131 + bits), rb(blocks * 131 + bits);
      const auto exact = CellFaultField::sample_exact(ber, blocks, bits, ra);
      const auto ref =
          CellFaultField::sample_exact_reference(ber, blocks, bits, rb);
      expect_fields_identical(exact, ref);
      expect_rng_state_identical(ra, rb);
    }
  }
}

TEST(FaultEquivalence, FaultyCountSweepIndexMatchesScan) {
  const BerModel ber(Technology::soi45());
  Rng rng(5);
  auto plain = CellFaultField::sample_fast(ber, 8192, 512, rng);
  auto indexed = plain;
  indexed.enable_sweep_index();
  indexed.enable_sweep_index();  // idempotent
  for (int i = 0; i <= 400; ++i) {
    const Volt v = 0.40 + 0.001 * i;
    ASSERT_EQ(indexed.faulty_count(v), plain.faulty_count(v)) << "vdd=" << v;
    ASSERT_EQ(indexed.effective_capacity(v), plain.effective_capacity(v));
  }
}

// Table 2 evaluates N in {1, 2, 3, 4, 8}; sweep those level counts with the
// associativities the cache organizations use.
TEST(FaultEquivalence, ViableMatchesReferenceAcrossOrgs) {
  const BerModel ber(Technology::soi45());
  const std::vector<Volt> full = {0.54, 0.58, 0.62, 0.66,
                                  0.71, 0.80, 0.90, 1.00};
  for (u32 num_levels : {1u, 2u, 3u, 4u, 8u}) {
    const std::vector<Volt> levels(full.begin(), full.begin() + num_levels);
    for (u32 assoc : {1u, 16u, 32u}) {
      Rng rng(num_levels * 100 + assoc);
      const auto field = CellFaultField::sample_fast(ber, 8192, 512, rng);
      const FaultMap hinted(levels, field, assoc);
      const FaultMap unhinted(levels, field);
      ASSERT_EQ(hinted.assoc_hint(), assoc);
      for (u32 l = 1; l <= num_levels; ++l) {
        ASSERT_EQ(hinted.viable(assoc, l), hinted.viable_reference(assoc, l))
            << "N=" << num_levels << " assoc=" << assoc << " level=" << l;
        // A query with a different assoc must fall back, not misuse the hint.
        const u32 other = assoc == 1 ? 16 : assoc / 2;
        ASSERT_EQ(hinted.viable(other, l), unhinted.viable(other, l));
        ASSERT_EQ(hinted.faulty_count(l), unhinted.faulty_count(l));
        ASSERT_EQ(hinted.code(0), unhinted.code(0));
      }
      ASSERT_EQ(hinted.lowest_level_with_capacity(assoc, 0.99),
                unhinted.lowest_level_with_capacity(assoc, 0.99));
    }
  }
}

// Adversarial maps (hand-built codes) where viability flips exactly at the
// max-of-set-minima boundary.
TEST(FaultEquivalence, ViableHandBuiltBoundaries) {
  const std::vector<Volt> levels = {0.5, 0.6, 0.7, 0.8};
  // vf just below/at each level: codes become 0..4 in a controlled pattern.
  const std::vector<float> vf = {0.45f, 0.55f, 0.65f, 0.75f,   // set 0
                                 0.85f, 0.85f, 0.85f, 0.85f,   // set 1: dead
                                 0.45f, 0.45f, 0.45f, 0.45f};  // set 2
  for (u32 assoc : {1u, 2u, 4u}) {
    const FaultMap hinted(levels, std::span<const float>(vf), assoc);
    for (u32 l = 1; l <= 4; ++l) {
      ASSERT_EQ(hinted.viable(assoc, l), hinted.viable_reference(assoc, l))
          << "assoc=" << assoc << " level=" << l;
    }
  }
}

TEST(FaultEquivalence, MarchSsMatchesReference) {
  const BerModel ber(Technology::soi45());
  // Sizes straddle word boundaries (partial last word, exactly one word,
  // multi-word); voltages span none-faulty to heavily-faulty regimes.
  for (u64 cells : {1ull, 63ull, 64ull, 65ull, 1000ull, 16384ull}) {
    Rng rng(cells * 7);
    SramArraySim sram(ber, cells, rng);
    for (Volt v : {0.40, 0.55, 0.60, 0.66, 0.75, 1.00}) {
      sram.set_vdd(v);
      const BistResult fast = march_ss(sram);
      sram.set_vdd(v);  // re-arm: both passes start from identical state
      const BistResult ref = march_ss_reference(sram);
      ASSERT_EQ(fast.reads, ref.reads) << "cells=" << cells << " v=" << v;
      ASSERT_EQ(fast.writes, ref.writes);
      ASSERT_EQ(fast.faulty_cells, ref.faulty_cells)
          << "cells=" << cells << " v=" << v;
    }
  }
}

TEST(FaultEquivalence, SramCtorDrawSequenceMatchesScalar) {
  const BerModel ber(Technology::soi45());
  for (u64 cells : {1ull, 4095ull, 4096ull, 5000ull}) {
    Rng ra(cells), rb(cells);
    SramArraySim sram(ber, cells, ra);
    for (u64 i = 0; i < cells; ++i) {
      const auto expect =
          static_cast<float>(rb.gaussian(ber.mu(), ber.sigma()));
      ASSERT_TRUE(same_float_bits(static_cast<float>(sram.fail_voltage(i)),
                                  expect))
          << "cell " << i;
    }
    expect_rng_state_identical(ra, rb);
  }
}

TEST(FaultEquivalence, WordInterfaceMatchesCellInterface) {
  const BerModel ber(Technology::soi45());
  Rng rng(12);
  SramArraySim sram(ber, 777, rng);
  sram.set_vdd(0.6);
  for (u64 w = 0; w < sram.num_words(); ++w) sram.write_word(w, true);
  for (u64 w = 0; w < sram.num_words(); ++w) {
    const u64 word = sram.read_word(w);
    for (u64 b = 0; b < 64 && w * 64 + b < sram.num_cells(); ++b) {
      ASSERT_EQ(((word >> b) & 1) != 0, sram.read(w * 64 + b));
    }
  }
  // Per-cell writes land in the packed words.
  sram.write(5, false);
  if (!sram.truly_faulty(5)) {
    ASSERT_EQ((sram.read_word(0) >> 5) & 1, 0u);
  }
}

// The vecmath kernels themselves: block results equal scalar std:: calls in
// both the accelerated and fallback modes (this must hold whether or not
// fast_math_active(), so CI machines with a different libm stay green).
TEST(FaultEquivalence, VecmathBlocksMatchScalar) {
  Rng rng(31);
  std::vector<double> xs(513);
  for (double& x : xs) x = (rng.uniform() - 0.5) * 12.0;
  std::vector<double> out(xs.size());

  vecmath::exp_block(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(out[i], std::exp(xs[i])) << "exp(" << xs[i] << ")";
  }
  vecmath::expm1_block(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(out[i], std::expm1(xs[i]));
  }
  for (double& x : xs) x = rng.uniform() * 30.0 + 1e-9;
  vecmath::log_block(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(out[i], std::log(xs[i]));
  }
  vecmath::erfc_block(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(out[i], std::erfc(xs[i]));
  }
}

// The population grid engine's sample-once split: the (mu, sigma)-free z
// chain composed with the per-sigma affine pass must reproduce the fused
// sample_vf_block bit for bit -- for every count (chunk-boundary coverage),
// every bits-per-block, and sigmas well away from the calibration value.
TEST(FaultEquivalence, ZSplitComposesToSampleVfBlock) {
  Rng rng(77);
  for (const std::size_t count : {1ul, 63ul, 64ul, 65ul, 513ul, 4096ul}) {
    for (const double bits : {64.0, 512.0, 4096.0}) {
      std::vector<double> us(count), z(count);
      for (double& u : us) u = rng.uniform();
      us[0] = 0.0;  // the clamped draw must round-trip too
      vecmath::sample_z_block(us.data(), count, bits, z.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(z[i], vecmath_detail::sample_z_one(us[i], bits));
        // For real uniform draws (>= 2^-53) at the engine's block widths,
        // the order-statistic deviate is strictly positive -- this is what
        // makes every fail voltage pointwise non-decreasing in sigma (the
        // grid engine's exact sigma-monotonicity property).
        if (bits >= 512.0 && us[i] > 0.0) {
          ASSERT_GT(z[i], 0.0);
        }
      }
      for (const double mu : {0.0489, 0.1}) {
        for (const double sigma : {0.1426, 0.1585, 0.1823}) {
          std::vector<float> fused(count), split(count);
          vecmath::sample_vf_block(us.data(), count, bits, mu, sigma,
                                   fused.data());
          vecmath::vf_from_z_block(z.data(), count, mu, sigma, split.data());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_TRUE(same_float_bits(split[i], fused[i]))
                << "i=" << i << " count=" << count << " bits=" << bits
                << " mu=" << mu << " sigma=" << sigma;
          }
        }
      }
    }
  }
}

// ---- Fault classes straight from the draws (FailThresholdTable) ----------

// The scalar std:: chain of CellFaultField::sample_fast_reference as a
// ZChainFn: what vecmath::sample_z_block computes in its fallback mode.
void reference_z_chain(const double* u, std::size_t count, double bits,
                       double* z_out) {
  for (std::size_t i = 0; i < count; ++i) {
    double v = u[i];
    if (v <= 0.0) v = 1e-300;
    const double p = -std::expm1(std::log(v) / bits);
    z_out[i] = inv_q_function(p);
  }
}

// Scans every lattice point within kBand + 4096 of every cut of the shipped
// ladders and grids (once per distinct (bits, cut) pair): the table must
// classify each one as the chain does. The chain itself crosses the
// threshold non-monotonically a few points around some cuts, so a table
// without its guard band fails here; the widest such crossing must stay
// far inside the band.
TEST(FaultThresholdEquivalence, GuardBandCoversEveryShippedCut) {
  constexpr u64 kBand = FailThresholdTable::kBand;
  constexpr u64 kWindow = kBand + 4096;
  constexpr u64 kEnd = FailThresholdTable::kLatticeEnd;
  u64 widest_crossing = 0;
  std::set<std::pair<double, u64>> scanned;
  std::vector<double> u(4096), z(4096);
  std::vector<u32> got(4096);
  for (const test::ThresholdSet& set : test::shipped_threshold_sets()) {
    const std::vector<double> zs = set.z_list();
    const FailThresholdTable table(set.bits_per_block, zs);
    for (const u64 cut : table.cuts()) {
      if (!scanned.insert({set.bits_per_block, cut}).second) continue;
      std::vector<std::size_t> at_cut;  // the thresholds with this cut
      for (std::size_t t = 0; t < zs.size(); ++t) {
        if (table.cuts()[t] == cut) at_cut.push_back(t);
      }
      const u64 lo = cut > kWindow ? cut - kWindow : 0;
      const u64 hi = std::min(cut + kWindow, kEnd);
      for (u64 k0 = lo; k0 < hi; k0 += u.size()) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<u64>(u.size(), hi - k0));
        for (std::size_t i = 0; i < n; ++i) {
          u[i] = static_cast<double>(k0 + i) * 0x1p-53;
        }
        vecmath::sample_z_block(u.data(), n, set.bits_per_block, z.data());
        table.classify_block(u.data(), n, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          const u64 k = k0 + i;
          const auto want = static_cast<u32>(
              std::upper_bound(zs.begin(), zs.end(), z[i]) - zs.begin());
          ASSERT_EQ(got[i], want)
              << set.name << ": lattice point " << k << ", cut " << cut;
          for (const std::size_t t : at_cut) {
            if ((z[i] >= zs[t]) != (k >= cut)) {
              widest_crossing =
                  std::max(widest_crossing, k >= cut ? k - cut : cut - k);
            }
          }
        }
      }
    }
  }
  RecordProperty("windows", static_cast<int>(scanned.size()));
  RecordProperty("widest_crossing", static_cast<int>(widest_crossing));
  EXPECT_LT(widest_crossing, kBand / 256)
      << "the chain crosses a threshold " << widest_crossing
      << " lattice points from its cut";
}

// The vecmath fallback is the scalar std:: chain. A table searched through
// that chain must find the same cuts, and classify every draw the same, as
// the production table -- so a host without the AVX2 kernels manufactures
// the same fault maps and grid points.
TEST(FaultThresholdEquivalence, CutsIdenticalUnderTheScalarReferenceChain) {
  Rng rng(2718);
  std::vector<double> u(100'000);
  std::vector<u32> fast(u.size()), scalar(u.size());
  for (const test::ThresholdSet& set : test::shipped_threshold_sets()) {
    const FailThresholdTable table(set.bits_per_block, set.z_list());
    const FailThresholdTable reference(set.bits_per_block, set.z_list(),
                                       &reference_z_chain);
    ASSERT_TRUE(std::equal(table.cuts().begin(), table.cuts().end(),
                           reference.cuts().begin(), reference.cuts().end()))
        << set.name;
    rng.uniform_block(std::span<double>(u));
    u[0] = 0.0;
    table.classify_block(u.data(), u.size(), fast.data());
    reference.classify_block(u.data(), u.size(), scalar.data());
    ASSERT_EQ(fast, scalar) << set.name;
    for (std::size_t i = 0; i < 1000; ++i) {
      ASSERT_EQ(reference.classify_by_chain(u[i]), scalar[i]) << set.name;
    }
  }
}

// FaultMap::sample against FaultMap(levels, sample_fast(...)) on random
// dies: random block counts, widths, associativities and BER models, and
// random ladders -- non-uniform, 1 level, levels on exact float values.
TEST(FaultThresholdEquivalence, SampledFaultMapsMatchSampleFast) {
  Rng pick(31337);
  u64 dies = 0;
  for (int trial = 0; trial < 10'000; ++trial) {
    const u32 assoc = 1u << pick.uniform_int(5);
    const u64 sets = 1 + pick.uniform_int(256);
    const u64 blocks = sets * assoc + pick.uniform_int(assoc);
    const u32 bits = trial % 7 == 0 ? 64 : trial % 11 == 0 ? 4096 : 512;
    const BerModel ber(pick.uniform(0.0, 0.1), pick.uniform(0.05, 0.25));
    const u32 num_levels = 1 + static_cast<u32>(pick.uniform_int(8));
    std::vector<Volt> levels;
    Volt v = pick.uniform(0.2, 0.7);
    for (u32 l = 0; l < num_levels; ++l) {
      // Every third ladder sits on float-representable voltages, so some
      // fail voltages land exactly on a level.
      levels.push_back(trial % 3 == 0 ? static_cast<float>(v) : v);
      v += pick.uniform(0.001, 0.15);
    }
    const u64 seed = pick.next_u64();
    Rng ra(seed), rb(seed);
    const FaultMap sampled =
        FaultMap::sample(levels, ber, blocks, bits, ra, assoc);
    const FaultMap reference(
        levels, CellFaultField::sample_fast(ber, blocks, bits, rb), assoc);
    ASSERT_EQ(sampled.num_blocks(), reference.num_blocks());
    for (u64 b = 0; b < blocks; ++b) {
      ASSERT_EQ(sampled.code(b), reference.code(b))
          << "trial " << trial << " block " << b;
    }
    for (u32 l = 1; l <= num_levels; ++l) {
      ASSERT_EQ(sampled.faulty_count(l), reference.faulty_count(l));
      ASSERT_EQ(sampled.viable(assoc, l), reference.viable(assoc, l));
    }
    expect_rng_state_identical(ra, rb);
    ++dies;
  }
  EXPECT_GE(dies, 10'000u);
}

// PopulationGridEngine (block classes from the draws) against the serial
// sample_fast + bin_chip reference at every point of random grids:
// random ladders including single-rung and lo == hi ones, random sigma
// axes, sizes, associativities and SPCS targets.
TEST(FaultThresholdEquivalence, GridMatchesSerialPopulationOnRandomSpecs) {
  Rng pick(4242);
  u64 dies = 0;
  for (int trial = 0; trial < 24; ++trial) {
    PopulationGridSpec spec;
    spec.base.num_chips = 400 + pick.uniform_int(200);
    spec.base.seed = pick.next_u64();
    spec.base.chips_per_shard = 1 + pick.uniform_int(300);
    spec.base.grid_lo = pick.uniform(0.2, 0.8);
    spec.base.grid_step = pick.uniform(0.003, 0.08);
    const int shape = trial % 4;  // lo == hi, one rung, short, long
    spec.base.grid_hi =
        shape == 0   ? spec.base.grid_lo
        : shape == 1 ? spec.base.grid_lo + spec.base.grid_step * 0.25
                     : spec.base.grid_lo + pick.uniform(0.05, 0.6);
    spec.base.spcs_min_capacity = pick.uniform(0.8, 1.0);
    spec.sizes_kb = {u64{1} << pick.uniform_int(4), 8};
    if (spec.sizes_kb[0] == 8) spec.sizes_kb.pop_back();
    spec.assocs = {1u << pick.uniform_int(3), 16};
    if (spec.assocs[0] == 16) spec.assocs.pop_back();
    spec.sigmas.clear();
    const u64 num_sigmas = 1 + pick.uniform_int(3);
    for (u64 g = 0; g < num_sigmas; ++g) {
      spec.sigmas.push_back(0.05 + 0.07 * static_cast<double>(g) +
                            pick.uniform(0.0, 0.05));
    }
    const BerModel ber(pick.uniform(0.0, 0.1), 0.1585);
    const PopulationGridResult got =
        PopulationGridEngine(ber, 1 + trial % 3).run(spec);
    std::size_t p = 0;
    for (const u64 size_kb : spec.sizes_kb) {
      for (const u32 assoc : spec.assocs) {
        for (const Volt sigma : spec.sigmas) {
          const PopulationResult want = test::serial_population(
              BerModel(ber.mu(), sigma), spec.point_spec(size_kb, assoc));
          ASSERT_EQ(got.points.at(p).result, want)
              << "trial " << trial << " point " << p;
          ++p;
        }
      }
    }
    dies += spec.base.num_chips;
  }
  EXPECT_GE(dies, 10'000u);
}

}  // namespace
}  // namespace pcs
