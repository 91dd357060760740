// Piecewise drives and layer kernels timed from outside the library.
//
// drive() retires a trace through one PcsSystem with exactly the sequence
// PcsSystem::run uses -- next_block decode, then step_decoded + tick_all per
// reference, bracketed by begin_measurement / finish_measurement -- so its
// report must equal the untraced one bit for bit. With a LayerTimes it also
// times every call: the probe clock is read around each step_decoded and
// each tick_all, and the read cost is subtracted.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "core/system.hpp"
#include "exp/population_grid.hpp"

namespace perfbench {

/// Host time per layer, in probe ticks, summed over the calls made.
struct LayerTimes {
  double gen_ticks = 0;  ///< next_block on a synthetic source
  u64 gen_events = 0;
  double decode_ticks = 0;  ///< next_block on a .pcst source
  u64 decode_events = 0;
  double step_ticks = 0;  ///< CpuModel::step_decoded
  double tick_ticks = 0;  ///< PcsSystem::tick_all
  u64 refs = 0;
  u64 transitions = 0;  ///< tick_all calls in which a controller changed level
  double transition_ticks = 0;
  std::vector<double> build_ms;  ///< PcsSystem constructor, one per system

  void merge(const LayerTimes& o);
  double gen_ns_per_event() const;
  double decode_ns_per_event() const;
  double step_ns_per_ref() const;
  double tick_ns_per_ref() const;
  double transition_us() const;  ///< mean duration of a transition call
};

/// Where drive() reports next_block time.
enum class SourceKind { kSynthetic, kPcst };

/// Span context of one driven operation (spans may be null).
struct SpanCtx {
  SpanLog* log = nullptr;
  unsigned worker = 0;
  u64 parent = 0;
  u64 op = 0;
};

/// Drives `sys` over `src` (see the file comment). `times` null = untimed.
pcs::SimReport drive(pcs::PcsSystem& sys, pcs::TraceSource& src,
                     const pcs::RunParams& rp, SourceKind kind,
                     LayerTimes* times, const SpanCtx& spans = {});

/// Builds a PcsSystem, timing the constructor into `times` when non-null.
std::unique_ptr<pcs::PcsSystem> build_system(const pcs::SystemConfig& cfg,
                                             pcs::PolicyKind kind,
                                             u64 chip_seed, LayerTimes* times,
                                             const SpanCtx& spans = {});

/// Renders SimReports as the CSV a `csv` sim or trace_replay job writes.
std::string render_sim_csv(const std::vector<pcs::SimReport>& reps,
                           double clock_ghz);

/// Adds every field of `r` to `d`.
void digest_report(Digest& d, const pcs::SimReport& r);

/// Median host ms of CellFaultField::sample_fast over the three caches of
/// one config-A die and one config-B die (averaged), `reps` repetitions.
double fault_field_ms(u64 seed, int reps);

/// Times the public kernels the grid engine composes on dies
/// [0, dies) of `spec`'s fleet: Rng::uniform_block + vecmath::sample_z_block
/// + vecmath::vf_from_z_block ("sample"), chip_fail_voltage per point
/// ("fold"). With `check` set, each die's vf at every sigma is compared
/// with CellFaultField::sample_fast on the same die; mismatches are
/// counted in `mismatches`. With `timed` unset no clock is read (the
/// untraced side of the trace-overhead comparison).
struct FaultKernelTimes {
  double sample_s = 0;
  u64 blocks = 0;  ///< blocks sampled (z chain + every sigma's vf pass)
  double fold_s = 0;
  u64 folds = 0;  ///< dies x grid points folded
  u64 mismatches = 0;
  double sample_ns_per_block() const;
  double fold_ns_per_point() const;
};
FaultKernelTimes fault_kernels(const pcs::PopulationGridSpec& spec,
                               const pcs::BerModel& ber, u64 dies, bool check,
                               bool timed, SpanLog* spans = nullptr);

/// The 24-point reference grid (sizes 32,64 KB x 2,4,8,16 ways x three
/// sigmas) over `chips` dies of the fleet seeded by `seed`.
pcs::PopulationGridSpec reference_grid(u64 seed, u64 chips, u64 shard_chips);

/// Median host ms of open_trace_file(path) (mmap + checksum validation).
double trace_open_ms(const std::string& path, int reps);

/// Generates `events` events of a synthetic profile through next_block,
/// timing them into `times` (gen_*); returns the events produced.
u64 time_generation(const std::string& profile, u64 trace_seed, u64 events,
                    LayerTimes& times);

}  // namespace perfbench
