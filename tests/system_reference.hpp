// Per-event reference for PcsSystem::run, kept with the tests that use it.
//
// PcsSystem::run pulls its trace through next_block in clipped blocks and
// retires each block through PcsSystem::replay, whose access path is bound
// to one ReplKind per system. reference_run is the specification that loop
// must reproduce bit for bit: one virtual TraceSource::next per event
// through CpuModel::step (per-call replacement dispatch), then tick_all,
// with the warm-up and measured windows bracketed by begin_measurement /
// finish_measurement.
#pragma once

#include "core/system.hpp"

namespace pcs {

/// Runs `trace` on `sys` one event at a time: warm-up = min(warmup_refs,
/// stream) events, measured = min(max_refs, rest).
inline SimReport reference_run(PcsSystem& sys, TraceSource& trace,
                               const RunParams& params) {
  AccessOutcome out;
  u64 warm = 0;
  while (warm < params.warmup_refs && sys.cpu().step(trace, out)) {
    sys.tick_all();
    ++warm;
  }
  const PcsSystem::MeasureBaseline base = sys.begin_measurement();
  u64 measured = 0;
  while (measured < params.max_refs && sys.cpu().step(trace, out)) {
    sys.tick_all();
    ++measured;
  }
  return sys.finish_measurement(base, trace.name());
}

}  // namespace pcs
