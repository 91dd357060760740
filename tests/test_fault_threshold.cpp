// FailThresholdTable: the z threshold of a voltage, the cut search, the
// lookup against the chain, and the closed-form oracle -- the cuts of every
// shipped ladder and grid are the BER model's per-block failure CDF
// Phi((v - mu) / sigma)^n read off the lattice of uniform draws, and the
// fault fraction of sampled blocks matches them within Clopper-Pearson
// bounds. (The +-kBand scan around every cut and the randomized die and
// grid differentials are in test_fault_equivalence.)
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "fault/ber_model.hpp"
#include "fault/fail_threshold.hpp"
#include "fault/fault_map.hpp"
#include "threshold_sets.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"

namespace pcs {
namespace {

double affine_tail(double mu, double sigma, double z) {
  float vf = 0.0f;
  vecmath::vf_from_z_block(&z, 1, mu, sigma, &vf);
  return static_cast<double>(vf);
}

TEST(FailZThreshold, IsTheFirstDoubleWhoseTailReachesTheThreshold) {
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const double mu = rng.uniform(-0.2, 0.3);
    const double sigma = rng.uniform(0.01, 0.4);
    // Every other threshold is a float, which the tail can hit exactly.
    double thr = rng.uniform(-0.5, 2.5);
    if (i % 2 == 0) thr = static_cast<float>(thr);
    const double z = fail_z_threshold(mu, sigma, thr);
    ASSERT_GE(affine_tail(mu, sigma, z), thr);
    const double below =
        std::nextafter(z, -std::numeric_limits<double>::infinity());
    ASSERT_LT(affine_tail(mu, sigma, below), thr);
  }
  EXPECT_THROW(fail_z_threshold(0.0, 0.0, 0.5), std::invalid_argument);
}

TEST(FailThresholdTable, RejectsUnsortedThresholds) {
  EXPECT_THROW(FailThresholdTable(512.0, {1.0, 0.5}), std::invalid_argument);
}

TEST(FailThresholdTable, EmptyTableClassifiesEveryDrawAsZero) {
  const FailThresholdTable table(512.0, {});
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(table.classify(rng.uniform()), 0u);
  EXPECT_EQ(table.classify(0.0), 0u);
}

// Thresholds outside the chain's range cut at 0 (every draw reaches them)
// or at kLatticeEnd (none does); draws at the lattice ends still classify
// as the chain does.
TEST(FailThresholdTable, CutsAtTheLatticeEnds) {
  const FailThresholdTable table(512.0, {-50.0, 0.0, 50.0});
  ASSERT_EQ(table.cuts()[0], 0u);
  ASSERT_EQ(table.cuts()[2], FailThresholdTable::kLatticeEnd);
  const double last = 1.0 - 0x1p-53;
  for (const double u : {0.0, 0x1p-53, 0.5, last}) {
    EXPECT_EQ(table.classify(u), table.classify_by_chain(u)) << u;
  }
  EXPECT_EQ(table.classify(0.5), 2u);
}

TEST(FailThresholdTable, ClassifyMatchesTheChainOnRandomDraws) {
  Rng rng(17);
  std::vector<double> u(50'000);
  std::vector<u8> block(u.size());
  for (const test::ThresholdSet& set : test::shipped_threshold_sets()) {
    const FailThresholdTable table(set.bits_per_block, set.z_list());
    rng.uniform_block(std::span<double>(u));
    table.classify_block(u.data(), u.size(), block.data());
    for (std::size_t i = 0; i < u.size(); ++i) {
      const u32 want = table.classify_by_chain(u[i]);
      ASSERT_EQ(table.classify(u[i]), want) << set.name;
      ASSERT_EQ(block[i], static_cast<u8>(want)) << set.name;
    }
  }
}

// A cut K means: draws below K*2^-53 stay under the threshold, draws at or
// above reach it. The BER model's closed form for the probability that a
// block of n cells stays under v is Phi((v - mu) / sigma)^n, so at the
// threshold's own z (v = mu + sigma * z) it must fall between (K-1)*2^-53
// and K*2^-53 -- up to the accuracy of the two computations: 2 lattice
// points, plus 1e-13 relative to the smaller tail (the worst case seen on
// the shipped sets is 13 points, 6e-15 relative).
TEST(FailThresholdOracle, CutsBracketTheClosedFormCdf) {
  constexpr double kUlp = 0x1p-53;
  int checked = 0;
  for (const test::ThresholdSet& set : test::shipped_threshold_sets()) {
    const FailThresholdTable table(set.bits_per_block, set.z_list());
    for (std::size_t t = 0; t < set.thresholds.size(); ++t) {
      const test::VoltThreshold& thr = set.thresholds[t];
      const BerModel ber(thr.mu, thr.sigma);
      const double v = thr.mu + thr.sigma * thr.z;
      const double ber_v = ber.ber(v);
      const double works = pow_one_minus(ber_v, set.bits_per_block);
      const double fails = ber.block_fail_prob(v, static_cast<u32>(
                                                      set.bits_per_block));
      const double k = static_cast<double>(table.cuts()[t]);
      const double slack = 2.0 * kUlp + 1e-13 * std::min(works, fails);
      if (works <= 0.5) {
        EXPECT_GE(works, (k - 1.0) * kUlp - slack) << set.name << " #" << t;
        EXPECT_LE(works, k * kUlp + slack) << set.name << " #" << t;
      } else {
        const double rest = 0x1p53 - k;  // lattice points reaching it
        EXPECT_GE(fails, rest * kUlp - slack) << set.name << " #" << t;
        EXPECT_LE(fails, (rest + 1.0) * kUlp + slack) << set.name << " #" << t;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 200);
}

// Regularized incomplete beta I_x(a, b) (continued fraction, modified
// Lentz), for the binomial tails of the Clopper-Pearson check.
double incomplete_beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  d = std::fabs(d) < kTiny ? kTiny : d;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m < 200'000; ++m) {
    const double dm = static_cast<double>(m);
    const double even =
        dm * (b - dm) * x / ((a + 2.0 * dm - 1.0) * (a + 2.0 * dm));
    d = 1.0 + even * d;
    d = std::fabs(d) < kTiny ? kTiny : d;
    c = 1.0 + even / c;
    c = std::fabs(c) < kTiny ? kTiny : c;
    d = 1.0 / d;
    h *= d * c;
    const double odd = -(a + dm) * (a + b + dm) * x /
                       ((a + 2.0 * dm) * (a + 2.0 * dm + 1.0));
    d = 1.0 + odd * d;
    d = std::fabs(d) < kTiny ? kTiny : d;
    c = 1.0 + odd / c;
    c = std::fabs(c) < kTiny ? kTiny : c;
    d = 1.0 / d;
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1.0) < 1e-15) break;
  }
  return h;
}

double regularized_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = std::lgamma(a + b) - std::lgamma(a) -
                           std::lgamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * incomplete_beta_cf(a, b, x) / a;
  }
  return 1.0 - front * incomplete_beta_cf(b, a, 1.0 - x) / b;
}

/// True iff the two-sided Clopper-Pearson interval at `confidence` for
/// `hits` of `n` trials contains p: neither binomial tail at p is below
/// (1 - confidence) / 2.
bool clopper_pearson_contains(u64 hits, u64 n, double p, double confidence) {
  const double half_alpha = (1.0 - confidence) / 2.0;
  const double x = static_cast<double>(hits);
  const double nn = static_cast<double>(n);
  const double at_least =
      hits == 0 ? 1.0 : regularized_beta(x, nn - x + 1.0, p);
  const double at_most =
      hits == n ? 1.0 : regularized_beta(nn - x, x + 1.0, 1.0 - p);
  return at_least >= half_alpha && at_most >= half_alpha;
}

TEST(FailThresholdOracle, ClopperPearsonCheckHasTheRightSize) {
  EXPECT_TRUE(clopper_pearson_contains(500, 1000, 0.5, 0.999));
  EXPECT_TRUE(clopper_pearson_contains(0, 1000, 0.0, 0.999));
  EXPECT_FALSE(clopper_pearson_contains(1, 1000, 0.0, 0.999));
  EXPECT_TRUE(clopper_pearson_contains(1000, 1000, 1.0, 0.999));
  // Binomial(10^6, 0.3): sd 458; 3.29 sd is the 99.9 % two-sided edge.
  EXPECT_TRUE(clopper_pearson_contains(300'000 + 1400, 1'000'000, 0.3, 0.999));
  EXPECT_FALSE(clopper_pearson_contains(300'000 + 1600, 1'000'000, 0.3, 0.999));
  EXPECT_FALSE(clopper_pearson_contains(300'000 - 1600, 1'000'000, 0.3, 0.999));
}

// 10^6 sampled blocks per shipped table: the fraction reaching each
// threshold (faulty at that voltage) must sit inside the 99.9 %
// Clopper-Pearson interval around 1 - K * 2^-53.
TEST(FailThresholdOracle, SampledFaultFractionsMatchTheCuts) {
  constexpr u64 kBlocks = 1'000'000;
  std::vector<double> u(kBlocks);
  std::vector<u32> cls(kBlocks);
  Rng rng(20140601);
  int checked = 0;
  for (const test::ThresholdSet& set : test::shipped_threshold_sets()) {
    const FailThresholdTable table(set.bits_per_block, set.z_list());
    rng.uniform_block(std::span<double>(u));
    table.classify_block(u.data(), kBlocks, cls.data());
    std::vector<u64> reached(set.thresholds.size() + 1, 0);
    for (const u32 c : cls) ++reached[c];
    // reached[t] -> blocks whose class exceeds t (they reach threshold t).
    u64 above = 0;
    for (std::size_t t = set.thresholds.size() + 1; t-- > 0;) {
      const u64 at = reached[t];
      reached[t] = above;
      above += at;
    }
    for (std::size_t t = 0; t < set.thresholds.size(); ++t) {
      const double p =
          1.0 - static_cast<double>(table.cuts()[t]) * 0x1p-53;
      EXPECT_TRUE(clopper_pearson_contains(reached[t], kBlocks, p, 0.999))
          << set.name << " #" << t << ": " << reached[t] << " of " << kBlocks
          << " blocks reach it, cut predicts p = " << p;
      ++checked;
    }
  }
  EXPECT_GT(checked, 200);
}

TEST(FaultMapCodes, CodeConstructorMatchesTheVoltageBuild) {
  const std::vector<Volt> levels = {0.5, 0.6, 0.7, 0.8};
  const std::vector<float> vf = {0.45f, 0.55f, 0.65f, 0.75f, 0.85f, 0.5f,
                                 0.6f,  0.7f,  0.8f,  0.2f,  0.9f,  0.61f};
  const FaultMap from_vf(levels, std::span<const float>(vf), 4);
  std::vector<u8> codes;
  for (u64 b = 0; b < from_vf.num_blocks(); ++b) {
    codes.push_back(from_vf.code(b));
  }
  const FaultMap from_codes(levels, codes, 4);
  for (u32 l = 1; l <= 4; ++l) {
    EXPECT_EQ(from_codes.faulty_count(l), from_vf.faulty_count(l));
    EXPECT_EQ(from_codes.viable(4, l), from_vf.viable(4, l));
  }
  EXPECT_THROW(FaultMap(levels, std::vector<u8>{5}), std::invalid_argument);
  EXPECT_THROW(FaultMap({0.7, 0.6}, std::vector<u8>{0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcs
