#include "fault/fail_threshold.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/mathx.hpp"

namespace pcs {

namespace {

// Doubles mapped to u64 in numeric order (-inf lowest, +inf highest, no
// NaN in between), so bisection over the keys walks every double once.
u64 order_key(double x) noexcept {
  u64 bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return (bits >> 63) != 0 ? ~bits : bits | (u64{1} << 63);
}

double from_order_key(u64 key) noexcept {
  const u64 bits = (key >> 63) != 0 ? key & ~(u64{1} << 63) : ~key;
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

}  // namespace

double fail_z_threshold(double mu, double sigma, double threshold) {
  if (!(sigma > 0.0)) {
    throw std::invalid_argument("fail_z_threshold: sigma must be positive");
  }
  const auto reaches = [&](double z) {
    float vf = 0.0f;
    vecmath::vf_from_z_block(&z, 1, mu, sigma, &vf);
    return static_cast<double>(vf) >= threshold;
  };
  // Invariant: reaches(lo) is false and reaches(hi) is true. At -inf the
  // tail is -inf, at +inf it is +inf, so both hold for a finite threshold.
  u64 lo = order_key(-std::numeric_limits<double>::infinity());
  u64 hi = order_key(std::numeric_limits<double>::infinity());
  while (hi - lo > 1) {
    const u64 mid = lo + (hi - lo) / 2;
    if (reaches(from_order_key(mid))) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return from_order_key(hi);
}

FailThresholdTable::FailThresholdTable(double bits_per_block,
                                       std::vector<double> z_thresholds,
                                       ZChainFn chain)
    : bits_per_block_(bits_per_block),
      chain_(chain),
      z_(std::move(z_thresholds)) {
  if (z_.size() >= kMixed) {
    throw std::invalid_argument("FailThresholdTable: too many thresholds");
  }
  if (!std::is_sorted(z_.begin(), z_.end())) {
    throw std::invalid_argument("FailThresholdTable: thresholds must ascend");
  }
  const std::size_t m = z_.size();

  // Lock-step bisection: every threshold narrows its own [cut, cut+len)
  // range of candidate cuts (a cut of cut+len means none reaches it), and
  // each round evaluates all the midpoints in one chain call. The range
  // starts as a bracket around the closed-form guess K ~ Phi(z)^n * 2^53
  // (within a few lattice points of the cut on every shipped ladder; see
  // the CutsBracketTheClosedFormCdf test), kept only where the chain
  // confirms it: the low end must stay under the threshold and the high end
  // reach it. 14 rounds then settle a confirmed bracket; an unconfirmed end
  // falls back to the lattice end, as a full search.
  std::vector<u64> lo(m);
  std::vector<u64> hi(m);
  std::vector<double> u(2 * m);
  std::vector<double> z(2 * m);
  for (std::size_t i = 0; i < m; ++i) {
    const double guess = std::clamp(
        pow_one_minus(q_function(z_[i]), bits_per_block_) * 0x1p53, 0.0,
        0x1p53);
    const auto at = static_cast<u64>(guess);
    lo[i] = at - std::min(at, kGuessSlack);
    hi[i] = std::min(at + kGuessSlack, kLatticeEnd - 1);
    u[2 * i] = static_cast<double>(lo[i]) * 0x1p-53;
    u[2 * i + 1] = static_cast<double>(hi[i]) * 0x1p-53;
  }
  chain_(u.data(), u.size(), bits_per_block_, z.data());
  cut_.resize(m);
  std::vector<u64> len(m);
  for (std::size_t i = 0; i < m; ++i) {
    const u64 first = z[2 * i] >= z_[i] ? 0 : lo[i] + 1;
    const u64 end = z[2 * i + 1] >= z_[i] ? hi[i] + 1 : kLatticeEnd;
    cut_[i] = first;
    len[i] = end - first;
  }
  std::vector<std::size_t> active;
  for (;;) {
    active.clear();
    u.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (len[i] == 0) continue;
      active.push_back(i);
      u.push_back(static_cast<double>(cut_[i] + len[i] / 2) * 0x1p-53);
    }
    if (active.empty()) break;
    z.resize(u.size());
    chain_(u.data(), u.size(), bits_per_block_, z.data());
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::size_t i = active[a];
      const u64 half = len[i] / 2;
      if (z[a] >= z_[i]) {
        len[i] = half;
      } else {
        cut_[i] += half + 1;
        len[i] -= half + 1;
      }
    }
  }
  sorted_cut_ = cut_;
  std::sort(sorted_cut_.begin(), sorted_cut_.end());

  constexpr u64 kCells = u64{1} << kCellBits;
  cell_.assign(kCells, 0);
  std::size_t below = 0;
  for (u64 c = 0; c < kCells; ++c) {
    const u64 first = c << kCellShift;
    while (below < m && sorted_cut_[below] <= first) ++below;
    cell_[c] = static_cast<u32>(below);
  }
  // Mark every cell that the band [cut - kBand, cut + kBand) overlaps or
  // that holds the cut (one point more than the band, which is harmless).
  for (const u64 cut : sorted_cut_) {
    const u64 first = cut - std::min(cut, kBand);
    const u64 last = std::min(cut + kBand, kLatticeEnd - 1);
    for (u64 c = first >> kCellShift; c <= last >> kCellShift; ++c) {
      cell_[c] |= kMixed;
    }
  }
}

FailThresholdTable FailThresholdTable::for_voltages(
    double mu, double sigma, double bits_per_block,
    std::span<const double> thresholds, ZChainFn chain) {
  std::vector<double> z(thresholds.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    z[i] = fail_z_threshold(mu, sigma, thresholds[i]);
  }
  return FailThresholdTable(bits_per_block, std::move(z), chain);
}

u32 FailThresholdTable::classify_by_chain(double u) const noexcept {
  double z = 0.0;
  chain_(&u, 1, bits_per_block_, &z);
  return static_cast<u32>(std::upper_bound(z_.begin(), z_.end(), z) -
                          z_.begin());
}

void FailThresholdTable::classify_by_chain_gather(const double* u,
                                                  const std::size_t* at,
                                                  std::size_t count,
                                                  u32* cls) const noexcept {
  double draws[kBandBatch] = {};
  double z[kBandBatch] = {};
  for (std::size_t i = 0; i < count; ++i) draws[i] = u[at[i]];
  chain_(draws, count, bits_per_block_, z);
  for (std::size_t i = 0; i < count; ++i) {
    cls[i] = static_cast<u32>(std::upper_bound(z_.begin(), z_.end(), z[i]) -
                              z_.begin());
  }
}

u32 FailThresholdTable::count_cuts(u64 k, u32 start) const noexcept {
  const std::size_t m = sorted_cut_.size();
  std::size_t j = start;
  while (j < m && sorted_cut_[j] <= k) ++j;
  // sorted_cut_[j-1] is the nearest cut at or below k, sorted_cut_[j] the
  // nearest above; the band of cut K is [K - kBand, K + kBand).
  const bool in_band = (j > 0 && k - sorted_cut_[j - 1] < kBand) ||
                       (j < m && sorted_cut_[j] - k <= kBand);
  return in_band ? kMixed : static_cast<u32>(j);
}

}  // namespace pcs
