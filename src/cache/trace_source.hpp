// Interface between workload generators and the CPU timing model.
#pragma once

#include "cache/mem_ref.hpp"
#include "util/types.hpp"

namespace pcs {

/// One element of an instruction/data trace: a memory reference preceded by
/// `gap_instructions` non-memory instructions (each retiring in one cycle on
/// the modelled core).
struct TraceEvent {
  MemRef ref;
  u32 gap_instructions = 0;
};

/// Pull-based trace producer implemented by the workload generators.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produces the next event; returns false when the trace is exhausted.
  virtual bool next(TraceEvent& out) = 0;

  /// Fills out[0..max_events) and returns the count delivered (< max_events
  /// only at end of trace). Semantically identical to calling next() in a
  /// loop -- the default does exactly that -- but block-decoding sources
  /// (the .pcst reader) override it to decode straight into the caller's
  /// buffer. drive_blocks (core/system.hpp) pulls every run through it.
  virtual u64 next_block(TraceEvent* out, u64 max_events) {
    u64 n = 0;
    while (n < max_events && next(out[n])) ++n;
    return n;
  }

  /// Human-readable workload name (for reports).
  virtual const char* name() const = 0;
};

}  // namespace pcs
