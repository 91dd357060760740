#include "core/controller.hpp"

#include <cmath>

#include "util/mathx.hpp"

namespace pcs {

PcsController::PcsController(CacheLevel& cache, WritebackSink& sink,
                             CycleClock& cpu,
                             std::unique_ptr<PcsMechanism> mechanism,
                             std::unique_ptr<PcsPolicy> policy,
                             EnergyMeter meter, u64 interval_accesses)
    : cache_(&cache),
      sink_(&sink),
      cpu_(&cpu),
      mech_(std::move(mechanism)),
      policy_(std::move(policy)),
      meter_(std::move(meter)),
      interval_accesses_(interval_accesses) {
  if (policy_ && interval_accesses_ > 0) window_end_ = interval_accesses_;
}

PcsController::PcsController(CacheLevel& cache, CycleClock& cpu,
                             EnergyMeter meter)
    : cache_(&cache), cpu_(&cpu), meter_(std::move(meter)) {}

Volt PcsController::current_vdd() const noexcept {
  return mech_ ? mech_->current_vdd() : meter_.current_vdd();
}

void PcsController::close_window() {
  const CacheLevelStats& s = cache_->stats();
  // The window spans every access since it opened, overshoot included (one
  // reference can add two L2 demand accesses); the next window starts at
  // the counters read here, before a transition can touch them.
  const u64 accesses = s.accesses;
  const u64 misses = s.misses;
  window_accesses_ = accesses - window_start_accesses_;
  window_misses_ = misses - window_start_misses_;
  bool deferred = false;
  if (refill_fills_needed_ > 0 &&
      s.fills - fills_at_transition_ < refill_fills_needed_ &&
      deferred_windows_ < kMaxDeferredWindows) {
    // Still refilling restored blocks: this window's miss rate reflects
    // the transition churn, not the workload. Discard it.
    ++deferred_windows_;
    deferred = true;
  } else {
    refill_fills_needed_ = 0;
    evaluate_policy();
  }
  if (trace_) emit_interval_records(deferred);
  ++interval_index_;
  window_start_accesses_ = accesses;
  window_start_misses_ = misses;
  window_end_ = interval_accesses_ > ~0ULL - accesses
                    ? ~0ULL
                    : accesses + interval_accesses_;
  rank_snapshot_ = cache_->stats().hits_by_rank;
}

void PcsController::set_trace(TraceSink* sink) noexcept {
  trace_ = sink;
  stall_at_last_emit_ = stats_.transition_stall_cycles;
  if (mech_) mech_->set_trace(sink);
}

void PcsController::emit_interval_records(bool deferred) {
  const PolicyTelemetry* t = policy_ ? policy_->telemetry() : nullptr;
  const Cycle stall_delta =
      stats_.transition_stall_cycles - stall_at_last_emit_;
  stall_at_last_emit_ = stats_.transition_stall_cycles;

  TraceRecord rec("interval");
  rec.field("cache", cache_->name())
      .field("interval", interval_index_)
      .field("cycle", cpu_->cycles())
      .field("level", mech_->current_level())
      .field("vdd", mech_->current_vdd())
      .field("accesses", window_accesses_)
      .field("misses", window_misses_)
      .field("miss_rate", window_accesses_
                              ? static_cast<double>(window_misses_) /
                                    static_cast<double>(window_accesses_)
                              : 0.0)
      .field("caat", t ? t->caat : 0.0)
      .field("naat", t ? t->naat : 0.0)
      .field("predicted_aat", t ? t->predicted_aat : 0.0)
      .field("deferred", deferred)
      .field("blocks_faulty", cache_->faulty_block_count())
      .field("gated_fraction", mech_->gated_fraction())
      .field("stall_cycles", stall_delta);
  trace_->emit(rec);

  cache_->emit_occupancy(*trace_, interval_index_, cpu_->cycles());
  meter_.emit_interval(*trace_, cache_->name(), interval_index_,
                       cpu_->cycles());
}

void PcsController::evaluate_policy() {
  PolicyInput in;
  in.window_accesses = window_accesses_;
  in.window_misses = window_misses_;
  in.window_deep_hits = window_deep_hits();
  in.now = cpu_->cycles();
  in.current_level = mech_->current_level();
  const u32 want = policy_->on_interval(in);
  if (want != mech_->current_level()) do_transition(want);
}

u64 PcsController::window_deep_hits() const {
  // Hits at the recency ranks one more VDD step down would forfeit: the
  // additional gated-block fraction at level-1, expressed in ways.
  const u32 level = mech_->current_level();
  if (level <= 1) return 0;
  const FaultMap& map = mech_->fault_map();
  const double blocks = static_cast<double>(map.num_blocks());
  const double dg =
      (static_cast<double>(map.faulty_count(level - 1)) -
       static_cast<double>(map.faulty_count(level))) /
      blocks;
  const u32 assoc = cache_->org().assoc;
  // Each set loses K ~ Binomial(assoc, dg) ways; a hit at recency rank r is
  // forfeited when r >= assoc - K, i.e. with probability P[K >= assoc - r].
  // Using the full distribution (not just the mean) matters: the loss is
  // convex in K, so unlucky sets dominate when dg*assoc is large.
  const auto& cur = cache_->stats().hits_by_rank;
  double deep = 0.0;
  for (u32 r = 0; r < assoc; ++r) {
    const u64 h = cur[r] - rank_snapshot_[r];
    if (h == 0) continue;
    const double p_keep = binomial_cdf(assoc, assoc - r - 1, dg);
    deep += (1.0 - p_keep) * static_cast<double>(h);
  }
  return static_cast<u64>(deep);
}

void PcsController::do_transition(u32 want) {
  const Volt from_vdd = mech_->current_vdd();
  // Leakage and level residency up to the start of the transition accrue at
  // the old state.
  meter_.advance(cpu_->cycles());
  account_level_cycles(cpu_->cycles());

  TransitionResult res = mech_->transition(want, cpu_->cycles());
  for (u64 addr : res.writeback_addrs) sink_->writeback_from(*cache_, addr);

  cpu_->add_stall(res.penalty_cycles);
  meter_.set_state(cpu_->cycles(), mech_->current_vdd(),
                   mech_->gated_fraction());
  meter_.add_transition(from_vdd, mech_->current_vdd());

  ++stats_.transitions;
  stats_.transition_writebacks += res.writebacks;
  stats_.transition_stall_cycles += res.penalty_cycles;

  if (res.blocks_restored > 0) {
    refill_fills_needed_ = res.blocks_restored / 2;
    fills_at_transition_ = cache_->stats().fills;
    deferred_windows_ = 0;
  }
}

void PcsController::account_level_cycles(Cycle now) {
  if (mech_) {
    const u32 lvl = mech_->current_level();
    if (lvl < stats_.cycles_at_level.size()) {
      stats_.cycles_at_level[lvl] += now - level_since_;
    }
  }
  level_since_ = now;
}

void PcsController::finalize() {
  meter_.advance(cpu_->cycles());
  account_level_cycles(cpu_->cycles());
  if (trace_) {
    meter_.emit_interval(*trace_, cache_->name(), interval_index_,
                         cpu_->cycles());
  }
}

void PcsController::reset_measurement() {
  meter_.reset(cpu_->cycles());
  stats_ = ControllerStats{};
  stall_at_last_emit_ = 0;
  level_since_ = cpu_->cycles();
  if (trace_) {
    TraceRecord rec("measurement_start");
    rec.field("cache", cache_->name())
        .field("cycle", cpu_->cycles())
        .field("interval", interval_index_);
    trace_->emit(rec);
  }
}

}  // namespace pcs
