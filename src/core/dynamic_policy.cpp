#include "core/dynamic_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace pcs {

DpcsPolicy::DpcsPolicy(const DpcsParams& params, u32 spcs_level, u32 min_level)
    : params_(params),
      spcs_level_(spcs_level),
      min_level_(min_level),
      backoff_floor_(min_level) {
  if (min_level == 0 || min_level > spcs_level) {
    throw std::invalid_argument("need 1 <= min_level <= spcs_level");
  }
  if (params.super_interval < 3) {
    throw std::invalid_argument(
        "super_interval must be >= 3 (warm-up + NAAT + park)");
  }
}

double DpcsPolicy::estimate_aat(u64 accesses, u64 misses) const noexcept {
  const double miss_rate =
      accesses ? static_cast<double>(misses) / static_cast<double>(accesses)
               : 0.0;
  return params_.hit_latency + miss_rate * params_.miss_penalty;
}

u32 DpcsPolicy::on_interval(const PolicyInput& input) {
  // Transition-penalty cost in the same per-access units as the AAT
  // estimates, amortized over the SuperInterval horizon the new level will
  // persist for.
  const double tp =
      static_cast<double>(params_.transition_penalty) /
      (static_cast<double>(params_.interval_accesses) * params_.super_interval);

  const double caat = estimate_aat(input.window_accesses, input.window_misses);
  telem_.caat = caat;
  telem_.naat = naat_;
  // Refined below on the threshold path; the warm-up/NAAT/park paths never
  // consider a descend, so the one-level-down prediction equals CAAT there.
  telem_.predicted_aat = caat;

  if (interval_count_ == 0) {
    // The previous boundary parked the cache at the SPCS level. Blocks that
    // were power-gated at the lower level come back *empty*, so this first
    // interval carries their refill misses; let the cache re-warm before
    // sampling NAAT.
    ++interval_count_;
    return input.current_level;
  }

  if (interval_count_ == 1) {
    // Sample the nominal average access time at the SPCS level. A fresh
    // NAAT clears the descend backoff: the workload may have moved on.
    naat_ = caat;
    telem_.naat = naat_;
    have_naat_ = true;
    backoff_floor_ = min_level_;
    ++interval_count_;
    return input.current_level;
  }

  if (interval_count_ == params_.super_interval - 1) {
    // Park at the SPCS level so the next cycle can re-sample NAAT.
    interval_count_ = 0;
    return spcs_level_;
  }

  u32 want = input.current_level;
  if (!have_naat_) {
    // Defensive: should not happen (interval 1 always samples first).
    ++interval_count_;
    return want;
  }

  // Utility-gated descend prediction: the hits the lost capacity would turn
  // into misses, as an AAT increment.
  const double deep_rate =
      input.window_accesses
          ? static_cast<double>(input.window_deep_hits) /
                static_cast<double>(input.window_accesses)
          : 0.0;
  const double predicted = caat + deep_rate * params_.miss_penalty;
  telem_.predicted_aat = predicted;

  if (caat > (1.0 + params_.high_threshold) * (naat_ + tp)) {
    want = std::min(input.current_level + 1, spcs_level_);
    // Anti-oscillation backoff: a level we just had to climb away from hurt
    // performance; do not descend below the recovered level again until the
    // next NAAT resample. Without this the plain Listing-1 loop oscillates
    // on capacity-sensitive workloads (descend looks attractive the moment
    // the damage stops being measured).
    backoff_floor_ = std::max(backoff_floor_, want);
  } else if (predicted < (1.0 + params_.low_threshold) * (naat_ + tp)) {
    want = std::max(input.current_level - 1, min_level_);
    want = std::max(want, backoff_floor_);
  }
  ++interval_count_;
  return want;
}

}  // namespace pcs
