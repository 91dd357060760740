// Long-running job service behind `pcs_sim --serve` (operator surface in
// POPULATION.md).
//
// The service reads line-delimited JSON job descriptions from a stream (a
// job file, a FIFO, or stdin), runs them concurrently on the deterministic
// ThreadPool, and writes each job's report to its own output file. Two
// contracts make this safe to script against:
//
//   * Per-job determinism. A job's output file is rendered by the SAME
//     functions the standalone CLIs use (run_sim_job == pcs_sim,
//     run_population_job == chip_binning), each job runs its simulation
//     single-threaded (the service parallelism is ACROSS jobs), and every
//     simulation seed comes from the job description -- so a job's bytes
//     are identical to its standalone run, at any service concurrency.
//     CI `cmp`s exactly this.
//   * Deterministic service log. Accept/reject lines stream in submission
//     order as lines are read; completion lines are reported in submission
//     order after the queue drains; wall-clock timings never appear in the
//     log or the job output -- they are quarantined to each job's own
//     telemetry trace as a trailing `job_profile` record (TELEMETRY.md).
//
// The job-file schema (kinds, keys, defaults) is documented in
// POPULATION.md and enforced both at runtime (unknown keys/kinds are
// rejected) and statically by pcs-lint SCHEMA002, which diffs the jstr/
// jnum/jreal/jbool accessor calls and the kJobKinds table in this
// subsystem against POPULATION.md's ```job-schema block.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "exp/population_grid.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/types.hpp"

namespace pcs {

/// One simulator run, mirroring pcs_sim's CLI options (kind "sim").
struct SimJobSpec {
  std::string id;
  std::string config = "A";      ///< A | B
  std::string policy = "all";    ///< baseline | spcs | dpcs | all
  std::string workload = "hmmer";  ///< profile name or recorded-trace path
  u64 refs = 1'000'000;
  u64 warmup = 0;  ///< 0 = refs/4
  u64 chip_seed = 1;
  u64 trace_seed = 42;
  u32 levels = 3;
  bool csv = false;
  std::string out;         ///< output file ("" = caller-provided stream)
  std::string trace_path;  ///< per-job telemetry trace ("" = none)
};

/// One population/binning run (kind "population"): a single design, run as
/// a singleton grid (population_job_grid).
struct PopulationJobSpec {
  std::string id;
  PopulationSpec spec;
  /// Fail-voltage sigma; 0 = the soi45 calibration default.
  Volt sigma = 0.0;
  std::string out;
  std::string trace_path;
  /// Shard-range checkpoint sidecar ("" = no checkpointing); see
  /// CheckpointOptions.
  std::string checkpoint;
  u64 checkpoint_shards = 16;
  bool resume = false;
};

/// One grid run (kind "population_grid"), see population_grid.
struct PopulationGridJobSpec {
  std::string id;
  PopulationGridSpec spec;
  std::string out;
  std::string trace_path;
  std::string checkpoint;  ///< see PopulationJobSpec::checkpoint
  u64 checkpoint_shards = 16;
  bool resume = false;
};

/// One recorded-trace replay run (kind "trace_replay"): a simulator run
/// whose workload is a recorded trace file, text or memory-mapped .pcst
/// (TRACES.md). `file` is required; there is no trace_seed key because the
/// event stream is fully determined by the file.
struct TraceReplayJobSpec {
  std::string id;
  std::string file;          ///< recorded trace path (text or .pcst)
  std::string config = "A";  ///< A | B
  std::string policy = "all";  ///< baseline | spcs | dpcs | all
  u64 refs = 1'000'000;
  u64 warmup = 0;  ///< 0 = refs/4
  u64 chip_seed = 1;
  u32 levels = 3;
  bool csv = false;
  std::string out;
  std::string trace_path;
};

/// A parsed job line: exactly one of the kinds is active.
struct Job {
  enum class Kind { kSim, kPopulation, kPopulationGrid, kTraceReplay };
  Kind kind = Kind::kSim;
  SimJobSpec sim;
  PopulationJobSpec population;
  PopulationGridJobSpec population_grid;
  TraceReplayJobSpec trace_replay;

  const std::string& id() const noexcept {
    switch (kind) {
      case Kind::kSim: return sim.id;
      case Kind::kPopulation: return population.id;
      case Kind::kPopulationGrid: return population_grid.id;
      case Kind::kTraceReplay: break;
    }
    return trace_replay.id;
  }
  const std::string& out_path() const noexcept {
    switch (kind) {
      case Kind::kSim: return sim.out;
      case Kind::kPopulation: return population.out;
      case Kind::kPopulationGrid: return population_grid.out;
      case Kind::kTraceReplay: break;
    }
    return trace_replay.out;
  }
  const std::string& trace_path() const noexcept {
    switch (kind) {
      case Kind::kSim: return sim.trace_path;
      case Kind::kPopulation: return population.trace_path;
      case Kind::kPopulationGrid: return population_grid.trace_path;
      case Kind::kTraceReplay: break;
    }
    return trace_replay.trace_path;
  }
  const std::string& checkpoint_path() const noexcept {
    static const std::string kNone;
    if (kind == Kind::kPopulation) return population.checkpoint;
    if (kind == Kind::kPopulationGrid) return population_grid.checkpoint;
    return kNone;
  }
};

/// Parses one line-delimited JSON job description (a single flat object;
/// string/number/bool values). Unknown kinds, unknown keys, duplicate
/// keys, and type mismatches all throw std::invalid_argument with a
/// message naming the offender -- the runtime teeth behind POPULATION.md's
/// schema table.
Job parse_job_line(const std::string& line);

// Numeric text shared by the job schema's list keys and the population
// CLIs' arguments. Each parser takes a whole token or rejects it: no sign
// on integers, no surrounding whitespace, no trailing characters, no
// overflow, no inf/nan. Failures throw std::invalid_argument whose message
// starts with `what` (a job key or a CLI argument name) and quotes the
// offending item.
u64 parse_u64_token(const std::string& text, const std::string& what);
double parse_real_token(const std::string& text, const std::string& what);

/// Comma-separated lists of the tokens above ("32,64"); items may carry
/// surrounding spaces, empty items and trailing commas are rejected.
std::vector<u64> parse_u64_list(const std::string& text,
                                const std::string& what);
std::vector<double> parse_real_list(const std::string& text,
                                    const std::string& what);

/// Narrows an associativity to u32, rejecting 0 and anything above
/// 2^32 - 1 (std::invalid_argument naming `what`).
u32 checked_assoc(u64 ways, const std::string& what);

/// Runs one simulator job and renders the report to `out` -- byte-identical
/// to `pcs_sim` with the equivalent flags (this IS pcs_sim's run path).
/// `num_threads` fans the independent policy runs; results are identical at
/// any value. When `trace` is non-null, buffered per-policy telemetry is
/// replayed into it in policy order (the caller emits the header).
/// Throws std::invalid_argument for an unknown policy.
void run_sim_job(const SimJobSpec& spec, std::ostream& out, u32 num_threads,
                 TraceSink* trace = nullptr);

/// Checkpoint test hook, passed through to CheckpointOptions::on_checkpoint
/// (the CLIs' --checkpoint-stop-after; tests throw or _exit() from it).
using CheckpointHook = std::function<void(u64)>;

/// The 1x1x1 grid a population job runs as: the job's spec as the base, its
/// size and associativity as the only points of those axes, and its sigma
/// as the sigma axis (empty for sigma 0, i.e. the soi45 calibration).
/// Throws std::invalid_argument if the cache size is not a whole number of
/// KB (the grid's size axis is in KB).
PopulationGridSpec population_job_grid(const PopulationJobSpec& spec);

/// Runs one population job on PopulationGridEngine (as population_job_grid)
/// and renders the binning report to `out` -- this IS chip_binning's run
/// path. Returns the fleet distributions it rendered.
PopulationResult run_population_job(const PopulationJobSpec& spec,
                                    std::ostream& out, u32 num_threads,
                                    TraceSink* trace = nullptr,
                                    const CheckpointHook& on_checkpoint = {});

/// Runs one grid job and renders the grid summary to `out` -- this IS
/// population_grid's run path, and every point is bit-identical to its
/// standalone population run. Returns the per-point results it rendered.
PopulationGridResult run_population_grid_job(
    const PopulationGridJobSpec& spec, std::ostream& out, u32 num_threads,
    TraceSink* trace = nullptr, const CheckpointHook& on_checkpoint = {});

/// Runs one trace-replay job: exactly a "sim" job whose workload is the
/// recorded file, so the output is byte-identical to
/// `pcs_sim --workload FILE` with the equivalent flags (and, when FILE is a
/// converted .pcst, to replaying the text original -- TRACES.md).
void run_trace_replay_job(const TraceReplayJobSpec& spec, std::ostream& out,
                          u32 num_threads, TraceSink* trace = nullptr);

/// What happened to one submitted job (in submission order).
struct JobOutcome {
  std::string id;
  bool ok = false;
  std::string error;    ///< parse/run failure, "" when ok
  double wall_ms = 0.0; ///< telemetry-only; never rendered to log/output
};

/// The `pcs_sim --serve` engine. See the file comment for the determinism
/// contract.
class JobService {
 public:
  /// `num_threads` 0 = pcs_thread_count(); 1 = run jobs inline as their
  /// lines arrive (same outputs, same log).
  explicit JobService(u32 num_threads = 0);

  u32 num_threads() const noexcept { return num_threads_; }

  /// Reads jobs from `in` until EOF (blank lines and `#` comments are
  /// skipped), runs them, writes per-job artifacts, and streams the
  /// deterministic service log to `log`. Returns outcomes in submission
  /// order. Job failures are reported in the outcome, never thrown.
  std::vector<JobOutcome> serve(std::istream& in, std::ostream& log);

 private:
  u32 num_threads_;
};

}  // namespace pcs
