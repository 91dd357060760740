// Simple timing CPU driving the cache hierarchy.
//
// Substitutes for the paper's gem5 detailed out-of-order Alpha core (see
// DESIGN.md section 4): a blocking single-issue core that retires one
// instruction per cycle and stalls for the full memory latency of every
// reference. Execution-time *overheads* between cache configurations -- the
// quantity Fig. 4(e,f) reports -- are preserved (conservatively amplified,
// since an OoO core would hide part of the extra misses).
#pragma once

#include "cache/hierarchy.hpp"
#include "cache/trace_source.hpp"
#include "util/types.hpp"

namespace pcs {

/// Retired-work counters for one simulation.
struct CpuStats {
  u64 instructions = 0;
  u64 refs = 0;
  Cycle cycles = 0;
  Cycle stall_cycles = 0;  ///< externally injected (e.g. PCS transitions)

  double ipc() const noexcept {
    return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

/// Time source the PCS controllers observe and stall: implemented by the
/// single-core CpuModel and by the multi-core MultiCpu.
class CycleClock {
 public:
  virtual ~CycleClock() = default;

  /// Current cycle count.
  virtual Cycle cycles() const noexcept = 0;

  /// Charges extra stall cycles (PCS voltage-transition penalties).
  virtual void add_stall(Cycle penalty) noexcept = 0;
};

/// Blocking in-order timing model.
class CpuModel final : public CycleClock {
 public:
  CpuModel(Hierarchy& hierarchy, double clock_ghz) noexcept
      : hier_(&hierarchy), clock_hz_(clock_ghz * 1e9) {}

  /// Executes one trace event; returns false when the trace ended.
  /// `out` receives the hierarchy outcome for observers (policies, meters).
  bool step(TraceSource& trace, AccessOutcome& out);

  /// Retires one already-decoded event: the non-decode half of step().
  /// PcsSystem::replay retires decoded blocks through this entry point; K
  /// binds the hierarchy access path as in Hierarchy::access_t
  /// (kReplDynamic == per-call dispatch, step()'s behavior).
  template <int K>
  void step_decoded(const TraceEvent& ev, AccessOutcome& out) {
    out = hier_->access_t<K>(ev.ref);
    stats_.instructions += ev.gap_instructions + 1;
    stats_.refs += 1;
    stats_.cycles += ev.gap_instructions + out.latency;
  }

  /// Runs up to `max_refs` references (0 = until the trace ends).
  void run(TraceSource& trace, u64 max_refs = 0);

  void add_stall(Cycle penalty) noexcept override;

  const CpuStats& stats() const noexcept { return stats_; }
  Cycle cycles() const noexcept override { return stats_.cycles; }
  Second elapsed_seconds() const noexcept {
    return static_cast<double>(stats_.cycles) / clock_hz_;
  }
  double clock_hz() const noexcept { return clock_hz_; }
  Hierarchy& hierarchy() noexcept { return *hier_; }

 private:
  Hierarchy* hier_;
  double clock_hz_;
  CpuStats stats_;
};

}  // namespace pcs
