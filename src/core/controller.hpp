// The PCS cache controller: glue between one cache level, its mechanism,
// the governing policy, and the energy meter.
//
// The controller watches the cache's demand-access counter, and at every
// Interval boundary consults the policy; if the policy asks for a different
// VDD level it executes the transition procedure -- routing the resulting
// writebacks into the level below, charging the CPU the transition penalty,
// and re-pointing the energy meter at the new leakage state. A controller
// with no mechanism/policy models the baseline cache (nominal VDD, no fault
// tolerance) and only does energy bookkeeping.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "cache/cpu_model.hpp"
#include "cache/hierarchy.hpp"
#include "core/energy_meter.hpp"
#include "core/mechanism.hpp"
#include "core/policy.hpp"
#include "util/types.hpp"

namespace pcs {

/// Runtime statistics specific to the PCS layer.
struct ControllerStats {
  u32 transitions = 0;
  u64 transition_writebacks = 0;
  Cycle transition_stall_cycles = 0;
  /// Cycles spent at each 1-based level (index 0 unused).
  std::array<Cycle, 9> cycles_at_level{};
};

/// Governs one cache level.
class PcsController {
 public:
  /// PCS-enabled controller. `policy` may be SPCS or DPCS. `sink` receives
  /// the dirty blocks the transition procedure flushes (normally the
  /// hierarchy owning `cache`).
  PcsController(CacheLevel& cache, WritebackSink& sink, CycleClock& cpu,
                std::unique_ptr<PcsMechanism> mechanism,
                std::unique_ptr<PcsPolicy> policy, EnergyMeter meter,
                u64 interval_accesses);

  /// Baseline controller: energy bookkeeping only.
  PcsController(CacheLevel& cache, CycleClock& cpu, EnergyMeter meter);

  /// Call after every CPU step; detects new accesses to this cache, charges
  /// dynamic energy, and evaluates the policy at interval boundaries.
  /// Inline: this runs once per cache level per retired reference; the
  /// policy half is one compare against the armed window end, and the
  /// interval-boundary work stays out of line in close_window().
  void tick() {
    const CacheLevelStats& s = cache_->stats();

    // Dynamic energy for everything that toggled the arrays since last
    // tick, at the voltage in force now (transitions sync the meter, so
    // per-window attribution is exact).
    const u64 ea = s.energy_accesses();
    if (ea != seen_energy_accesses_) {
      meter_.add_accesses(ea - seen_energy_accesses_);
      seen_energy_accesses_ = ea;
    }

    if (s.accesses >= window_end_) close_window();
  }

  /// Integrates leakage up to the current CPU cycle (call at run end and
  /// before reading energies mid-run).
  void finalize();

  /// Discards accumulated energy and PCS stats (end of warm-up).
  void reset_measurement();

  /// Attaches a trace sink (nullptr disables tracing; the default). With a
  /// sink attached the controller emits `interval` + `energy` records at
  /// every closed interval window, a `measurement_start` record from
  /// reset_measurement(), a final `energy` record from finalize(), and the
  /// mechanism emits `transition` records (see TELEMETRY.md).
  void set_trace(TraceSink* sink) noexcept;

  const EnergyMeter& meter() const noexcept { return meter_; }
  const ControllerStats& pcs_stats() const noexcept { return stats_; }
  CacheLevel& cache() noexcept { return *cache_; }
  const CacheLevel& cache() const noexcept { return *cache_; }
  /// Null for the baseline controller.
  const PcsMechanism* mechanism() const noexcept { return mech_.get(); }
  const PcsPolicy* policy() const noexcept { return policy_.get(); }
  u32 current_level() const noexcept {
    return mech_ ? mech_->current_level() : 0;
  }
  Volt current_vdd() const noexcept;

 private:
  /// Interval-boundary handling: window totals, refill deferral, policy
  /// evaluation, telemetry, re-arming the next window (the cold tail of
  /// tick()).
  void close_window();
  void evaluate_policy();
  void do_transition(u32 want);
  void account_level_cycles(Cycle now);
  /// Emits the `interval` and `energy` records for the window just closed
  /// (call before the window counters are reset).
  void emit_interval_records(bool deferred);
  /// Utility-monitor reading for the current window (see PolicyInput).
  u64 window_deep_hits() const;

  CacheLevel* cache_;
  WritebackSink* sink_ = nullptr;
  CycleClock* cpu_;
  std::unique_ptr<PcsMechanism> mech_;
  std::unique_ptr<PcsPolicy> policy_;
  EnergyMeter meter_;
  u64 interval_accesses_ = 0;

  u64 seen_energy_accesses_ = 0;
  /// Demand-access count at which the open window closes; never reached
  /// (~0) without a policy or with a zero interval.
  u64 window_end_ = ~0ULL;
  /// Stats counters when the open window started.
  u64 window_start_accesses_ = 0;
  u64 window_start_misses_ = 0;
  /// The closing window's totals (stats deltas), set by close_window().
  u64 window_accesses_ = 0;
  u64 window_misses_ = 0;
  std::array<u64, 32> rank_snapshot_{};  ///< hits_by_rank at window start
  // Post-transition refill tracking: after blocks are restored (ascend /
  // park), interval windows are discarded until roughly half of them have
  // been refilled (or kMaxDeferredWindows elapse), so the policy never
  // samples an AAT polluted by the restore churn.
  u64 refill_fills_needed_ = 0;
  u64 fills_at_transition_ = 0;
  u32 deferred_windows_ = 0;
  static constexpr u32 kMaxDeferredWindows = 8;
  Cycle level_since_ = 0;
  ControllerStats stats_;
  TraceSink* trace_ = nullptr;
  u64 interval_index_ = 0;  ///< closed interval windows since construction
  Cycle stall_at_last_emit_ = 0;
};

}  // namespace pcs
