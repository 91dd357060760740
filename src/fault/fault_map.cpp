#include "fault/fault_map.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/fail_threshold.hpp"

namespace pcs {

FaultMap::FaultMap(std::vector<Volt> levels_ascending,
                   const CellFaultField& field, u32 assoc_hint)
    : levels_(std::move(levels_ascending)), assoc_hint_(assoc_hint) {
  code_.resize(field.num_blocks());
  std::vector<float> vf(field.num_blocks());
  for (u64 b = 0; b < field.num_blocks(); ++b) {
    vf[b] = static_cast<float>(field.block_fail_voltage(b));
  }
  build_from_voltages(vf);
}

FaultMap::FaultMap(std::vector<Volt> levels_ascending,
                   std::span<const float> block_fail_voltages, u32 assoc_hint)
    : levels_(std::move(levels_ascending)), assoc_hint_(assoc_hint) {
  code_.resize(block_fail_voltages.size());
  build_from_voltages(block_fail_voltages);
}

FaultMap::FaultMap(std::vector<Volt> levels_ascending, std::vector<u8> codes,
                   u32 assoc_hint)
    : levels_(std::move(levels_ascending)),
      code_(std::move(codes)),
      assoc_hint_(assoc_hint) {
  check_levels(levels_);
  const std::size_t n = levels_.size();
  if (std::any_of(code_.begin(), code_.end(),
                  [n](u8 c) { return c > n; })) {
    throw std::invalid_argument("fault code above the level count");
  }
  summarize_codes();
}

FaultMap FaultMap::sample(std::vector<Volt> levels_ascending,
                          const BerModel& ber, u64 num_blocks,
                          u32 bits_per_block, Rng& rng, u32 assoc_hint) {
  check_levels(levels_ascending);
  // build_from_voltages counts level l when float(level) <= vf, i.e. when
  // double(vf) >= double(float(level)): the table's voltage rule.
  std::vector<double> thr(levels_ascending.size());
  for (std::size_t l = 0; l < thr.size(); ++l) {
    thr[l] = static_cast<double>(static_cast<float>(levels_ascending[l]));
  }
  const FailThresholdTable table = FailThresholdTable::for_voltages(
      ber.mu(), ber.sigma(), static_cast<double>(bits_per_block), thr);
  std::vector<u8> codes(num_blocks);
  constexpr u64 kChunk = 4096;  // sample_fast's draw-block size
  std::vector<double> u(std::min(num_blocks, kChunk));
  for (u64 base = 0; base < num_blocks; base += kChunk) {
    const u64 todo = std::min(kChunk, num_blocks - base);
    rng.uniform_block(std::span<double>(u.data(), todo));
    table.classify_block(u.data(), todo, codes.data() + base);
  }
  return FaultMap(std::move(levels_ascending), std::move(codes), assoc_hint);
}

void FaultMap::check_levels(const std::vector<Volt>& levels) {
  if (levels.empty()) throw std::invalid_argument("need >= 1 VDD level");
  if (!std::is_sorted(levels.begin(), levels.end()) ||
      std::adjacent_find(levels.begin(), levels.end()) != levels.end()) {
    throw std::invalid_argument("levels must be strictly ascending");
  }
}

void FaultMap::build_from_voltages(std::span<const float> vf) {
  check_levels(levels_);
  const u32 n = num_levels();
  // Compare in float so a measured failure voltage exactly at a level
  // voltage counts as faulty there (cells fail at V <= Vf).  The thresholds
  // ascend, so "count of levels <= vf" equals the length of the true prefix
  // the reference level loop walked -- computed branchlessly here.
  std::vector<float> thr(n);
  for (u32 l = 0; l < n; ++l) thr[l] = static_cast<float>(levels_[l]);
  for (u64 b = 0; b < vf.size(); ++b) {
    const float v = vf[b];
    u32 c = 0;
    for (u32 l = 0; l < n; ++l) c += thr[l] <= v ? 1u : 0u;
    code_[b] = static_cast<u8>(c);
  }
  summarize_codes();
}

void FaultMap::summarize_codes() {
  const u32 n = num_levels();
  // Code histogram in four interleaved copies: most codes are equal (0),
  // and one copy would serialize every increment on the previous one.
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  std::vector<u64> code_hist(4 * stride, 0);
  const u64 blocks = code_.size();
  u64 b = 0;
  for (; b + 4 <= blocks; b += 4) {
    ++code_hist[code_[b]];
    ++code_hist[stride + code_[b + 1]];
    ++code_hist[2 * stride + code_[b + 2]];
    ++code_hist[3 * stride + code_[b + 3]];
  }
  for (; b < blocks; ++b) ++code_hist[code_[b]];
  // faulty_count(L) = #blocks with code >= L: one suffix sum over the code
  // histogram instead of up-to-N increments per block.
  faulty_at_level_.assign(n, 0);
  u64 running = 0;
  for (u32 l = n; l >= 1; --l) {
    running += code_hist[l] + code_hist[stride + l] +
               code_hist[2 * stride + l] + code_hist[3 * stride + l];
    faulty_at_level_[l - 1] = running;
  }
  // Viability summary for the hinted associativity: a set is all-faulty at
  // level L iff L <= min(code in set), so max-of-set-minima decides
  // viability for every level at once.
  max_min_code_ = 0;
  if (assoc_hint_ > 0 && !code_.empty()) {
    const u64 sets = code_.size() / assoc_hint_;
    for (u64 s = 0; s < sets; ++s) {
      u8 min_code = 255;
      for (u32 w = 0; w < assoc_hint_; ++w) {
        min_code = std::min(min_code, code_[s * assoc_hint_ + w]);
      }
      max_min_code_ = std::max(max_min_code_, min_code);
    }
  }
}

u64 FaultMap::faulty_count(u32 level) const noexcept {
  return faulty_at_level_[level - 1];
}

double FaultMap::effective_capacity(u32 level) const noexcept {
  if (code_.empty()) return 1.0;
  return 1.0 - static_cast<double>(faulty_count(level)) /
                   static_cast<double>(code_.size());
}

bool FaultMap::viable(u32 assoc, u32 level) const noexcept {
  if (assoc != 0 && assoc == assoc_hint_) return level > max_min_code_;
  return viable_reference(assoc, level);
}

bool FaultMap::viable_reference(u32 assoc, u32 level) const noexcept {
  const u64 sets = code_.size() / assoc;
  for (u64 s = 0; s < sets; ++s) {
    bool any_good = false;
    for (u32 w = 0; w < assoc; ++w) {
      if (!faulty_at(s * assoc + w, level)) {
        any_good = true;
        break;
      }
    }
    if (!any_good) return false;
  }
  return true;
}

u32 FaultMap::lowest_level_with_capacity(u32 assoc,
                                         double min_capacity) const noexcept {
  for (u32 level = 1; level <= num_levels(); ++level) {
    if (effective_capacity(level) >= min_capacity && viable(assoc, level)) {
      return level;
    }
  }
  return 0;
}

u32 FaultMap::fm_bits_for_levels(u32 num_levels) noexcept {
  u32 bits = 0;
  u32 states = num_levels + 1;  // codes 0..N
  while ((1u << bits) < states) ++bits;
  return bits;
}

u64 FaultMap::storage_bits() const noexcept {
  return num_blocks() * (fm_bits_for_levels(num_levels()) + 1ULL);
}

}  // namespace pcs
