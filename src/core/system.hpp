// Whole-system assembly: manufactured chip, hierarchy, CPU, controllers.
//
// PcsSystem is what the benches and examples instantiate: it "manufactures"
// a chip (samples fault fields for every cache from the chip seed), selects
// the VDD ladders, wires PCS controllers around each cache level per the
// chosen policy, runs a workload with a warm-up window, and reports the
// power / performance / energy quantities of the paper's Fig. 4.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/cpu_model.hpp"
#include "cache/hierarchy.hpp"
#include "cache/trace_source.hpp"
#include "core/config.hpp"
#include "core/controller.hpp"
#include "core/vdd_levels.hpp"
#include "fault/fault_map.hpp"
#include "util/types.hpp"

namespace pcs {

/// Which architecture a PcsSystem models.
enum class PolicyKind {
  kBaseline,  ///< fault-intolerant cache at nominal VDD (the 1 V reference)
  kStatic,    ///< SPCS
  kDynamic,   ///< DPCS
};

const char* to_string(PolicyKind kind) noexcept;

/// Simulation knobs.
struct RunParams {
  u64 max_refs = 2'000'000;    ///< measured references after warm-up
  u64 warmup_refs = 300'000;   ///< references discarded before measuring

  /// Points sharing params (and workload + trace seed) may share one trace
  /// decode in the sweep engine.
  bool operator==(const RunParams&) const = default;
};

/// Per-cache results over the measured window.
struct CacheEnergyReport {
  std::string name;
  Joule static_energy = 0.0;
  Joule dynamic_energy = 0.0;
  Joule transition_energy = 0.0;
  Watt avg_power = 0.0;
  Volt avg_vdd = 0.0;
  Volt final_vdd = 0.0;
  double miss_rate = 0.0;
  u64 accesses = 0;
  u64 misses = 0;
  u32 transitions = 0;
  u64 transition_writebacks = 0;
  double effective_capacity = 1.0;  ///< at the final level

  Joule total_energy() const noexcept {
    return static_energy + dynamic_energy + transition_energy;
  }

  /// Exact field-wise equality -- the determinism tests assert parallel
  /// sweeps reproduce serial results bit-for-bit, so no tolerance.
  bool operator==(const CacheEnergyReport&) const = default;
};

/// Whole-run results over the measured window.
struct SimReport {
  std::string config_name;
  std::string workload;
  std::string policy;
  u64 instructions = 0;
  u64 refs = 0;
  Cycle cycles = 0;
  Second seconds = 0.0;
  double ipc = 0.0;
  u64 mem_reads = 0;   ///< DRAM block fetches in the measured window
  u64 mem_writes = 0;  ///< DRAM writebacks in the measured window
  CacheEnergyReport l1i, l1d, l2;

  Joule total_cache_energy() const noexcept {
    return l1i.total_energy() + l1d.total_energy() + l2.total_energy();
  }
  Watt l1_power() const noexcept { return l1i.avg_power + l1d.avg_power; }
  Watt l2_power() const noexcept { return l2.avg_power; }

  /// Exact field-wise equality (see CacheEnergyReport::operator==).
  bool operator==(const SimReport&) const = default;
};

/// One cache level of a manufactured die: the design-time VDD ladder, this
/// die's fault map, and the lowest level at which every set keeps a usable
/// way (the DPCS floor).
struct ManufacturedLevel {
  VddLadder ladder;
  FaultMap map;
  u32 min_viable = 0;
};

/// Everything a PCS system derives from (config, chip_seed) before wiring
/// its controllers. Baseline systems use none of it.
struct ManufacturedDie {
  ManufacturedLevel l1i, l1d, l2;
};

/// A manufactured, policy-equipped simulated system.
class PcsSystem {
 public:
  /// `chip_seed` fixes the manufactured fault maps (one die); reruns with
  /// the same seed land on the same chip. When `arena` is non-null the
  /// hierarchy's SoA state is carved from it (reserve() it with
  /// storage_spec() first; see cache_arena.hpp). Non-baseline kinds
  /// manufacture through manufacture(); baseline manufactures nothing.
  PcsSystem(const SystemConfig& config, PolicyKind kind, u64 chip_seed,
            CacheArena* arena = nullptr);

  /// Builds on an already-manufactured die, which must come from
  /// manufacture(config, ...) for this same config; the system keeps its
  /// own copy. Identical to the chip-seed constructor for the die's seed,
  /// so SPCS and DPCS systems of one chip can share one manufacture. A
  /// baseline system ignores `die`.
  PcsSystem(const SystemConfig& config, PolicyKind kind, ManufacturedDie die,
            CacheArena* arena = nullptr);

  /// Manufactures one die: each level through manufacture_level, with a
  /// seed drawn from Rng(chip_seed) in L1I, L1D, L2 order. Throws
  /// std::invalid_argument when a ladder's targets are unmeetable.
  static ManufacturedDie manufacture(const SystemConfig& config,
                                     u64 chip_seed);

  /// Manufactures one cache level from its own seed: the ladder `config`
  /// selects for `lc.org`, the fault map of the die Rng(seed) draws
  /// (FaultMap::sample), and its DPCS floor. The one level path behind
  /// manufacture() and MultiPcsSystem.
  static ManufacturedLevel manufacture_level(const SystemConfig& config,
                                             const CacheLevelConfig& lc,
                                             u64 seed);

  /// Arena slab footprint of one system built from `config`.
  static CacheArena::Spec storage_spec(const SystemConfig& config);

  /// Runs `trace` (warm-up + measured window) and reports: the trace is
  /// pulled through next_block in blocks clipped at the warm-up edge
  /// (drive_blocks) and each block goes through replay().
  SimReport run(TraceSource& trace, const RunParams& params);

  // ---- Piecewise run (the sweep engine's drive points) -------------------
  // run() == drive_blocks(replay, begin_measurement) + finish_measurement().
  // The sweep engine replays shared decoded blocks into many systems, so it
  // drives the blocks itself and calls these per lane; every event still
  // goes through replay(), the one per-event loop.

  /// Counter snapshot taken at the warm-up/measured boundary.
  struct MeasureBaseline {
    CacheLevelStats l1i, l1d, l2;
    CpuStats cpu;
    u64 mem_reads = 0;
    u64 mem_writes = 0;
  };

  /// Ends warm-up: re-arms meters/monitors and snapshots all counters.
  MeasureBaseline begin_measurement();

  /// Finalizes the controllers and builds the measured-window report,
  /// emitting the cache_stats / run_summary telemetry when traced.
  SimReport finish_measurement(const MeasureBaseline& base,
                               const std::string& workload);

  /// Retires `n` decoded events: per event, step the CPU, then tick all
  /// three controllers. The replacement dispatch is bound once, at
  /// assembly: to the levels' common ReplKind, or per call when they
  /// differ. Bit-identical to CpuModel::step + tick_all per event.
  void replay(const TraceEvent* events, u64 n);

  /// Advances all three PCS controllers (call once per retired reference).
  void tick_all() {
    ctl_l1i_->tick();
    ctl_l1d_->tick();
    ctl_l2_->tick();
  }

  /// Attaches a telemetry sink to every controller (nullptr disables).
  /// Tracing never perturbs the simulation: a traced run's SimReport is
  /// bit-identical to an untraced one. See TELEMETRY.md for the schema.
  void set_trace(TraceSink* sink) noexcept;

  // Introspection for tests and examples.
  Hierarchy& hierarchy() noexcept { return *hier_; }
  CpuModel& cpu() noexcept { return *cpu_; }
  PcsController& l1i_controller() noexcept { return *ctl_l1i_; }
  PcsController& l1d_controller() noexcept { return *ctl_l1d_; }
  PcsController& l2_controller() noexcept { return *ctl_l2_; }
  PolicyKind kind() const noexcept { return kind_; }
  const SystemConfig& config() const noexcept { return cfg_; }
  /// The selected ladder for a cache level name ("L1I", "L1D", "L2").
  const VddLadder& ladder(const std::string& level) const;

 private:
  /// Shared tail of both constructors; `die` is null for baseline.
  void assemble(ManufacturedDie* die, CacheArena* arena);
  std::unique_ptr<PcsController> make_controller(CacheLevel& cache,
                                                 const CacheLevelConfig& lc,
                                                 ManufacturedLevel* die,
                                                 VddLadder* out);

  SystemConfig cfg_;
  PolicyKind kind_;
  /// replay()'s access binding: a CacheLevel::ReplKind shared by all three
  /// levels, or kReplDynamic.
  int repl_k_ = kReplDynamic;
  std::unique_ptr<Hierarchy> hier_;
  std::unique_ptr<CpuModel> cpu_;
  std::unique_ptr<PcsController> ctl_l1i_;
  std::unique_ptr<PcsController> ctl_l1d_;
  std::unique_ptr<PcsController> ctl_l2_;
  VddLadder ladder_l1i_, ladder_l1d_, ladder_l2_;
  TraceSink* trace_ = nullptr;
};

/// Largest block drive_blocks decodes at once. Each block is replayed into
/// every lane of a sweep shard before the next, so a longer block re-warms
/// each lane's cache-model state less often; the block (96 KB of
/// TraceEvents) streams from L2. On the 96-point Fig. 4 grid, one thread,
/// 4096 ran at a median time ratio of 0.93 against 256 over 12 alternating
/// pairs, and 16384 was no better than 4096.
inline constexpr u64 kReplayBlockEvents = 4096;

/// Pulls the warm-up and then the measured window of `trace` through
/// `replay(const TraceEvent*, u64)` in blocks of at most kReplayBlockEvents,
/// clipped so no block straddles the warm-up/measured edge, and calls
/// `at_edge()` between the two windows. Trace-end semantics: the warm-up
/// is min(warmup_refs, stream) events and the measured window min(max_refs,
/// rest). The block buffer holds min(kReplayBlockEvents, warmup_refs +
/// max_refs) events, so a zero-length run allocates nothing and decodes
/// nothing. The one block loop behind PcsSystem::run and the sweep shards.
template <class Replay, class Edge>
void drive_blocks(TraceSource& trace, const RunParams& params,
                  Replay&& replay, Edge&& at_edge) {
  const u64 cap = std::min(
      kReplayBlockEvents,
      std::min(params.warmup_refs, kReplayBlockEvents) +
          std::min(params.max_refs, kReplayBlockEvents));
  std::vector<TraceEvent> block(cap);
  const auto window = [&](u64 refs) {
    for (u64 done = 0; done < refs;) {
      const u64 want = std::min(cap, refs - done);
      // next_block is semantically a next() loop; block-decoding sources
      // (the mmap'd .pcst reader) fill the buffer in one call.
      const u64 n = trace.next_block(block.data(), want);
      replay(block.data(), n);
      done += n;
      if (n < want) break;  // trace exhausted
    }
  };
  window(params.warmup_refs);
  at_edge();
  window(params.max_refs);
}

/// Manufactures one system and runs one workload end to end. `workload` is
/// a SPEC-like profile name or a recorded-trace path (text or .pcst; see
/// trace/workload_source.hpp -- a '/' or '.' selects the file path).
///
/// This is the experiment engine's unit of work: every input arrives by
/// value, all state (trace generator, fault fields, controllers, meters) is
/// constructed inside the call, and nothing outlives it -- so concurrent
/// calls from pool workers share no mutable state and the result depends
/// only on the arguments, never on scheduling.
/// `trace`, when non-null, receives the run's telemetry records. For
/// concurrent calls pass a distinct sink per call (sinks are not
/// thread-safe) -- the experiment engine buffers per task and replays in
/// grid order so trace files stay deterministic at any thread count.
SimReport run_one(const SystemConfig& config, const std::string& workload,
                  PolicyKind kind, u64 chip_seed, u64 trace_seed,
                  const RunParams& params, TraceSink* trace = nullptr);

}  // namespace pcs
