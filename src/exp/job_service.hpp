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
// POPULATION.md. Each key is one entry of a static key table in
// job_service.cpp (name, value type, check, target member; defaults are the
// spec structs' member initialisers). parse_job_line reads JSON values
// through the tables, set_job_key reads the CLIs' text tokens through them,
// and job_schema() lists them for the unit test that diffs POPULATION.md's
// ```job-schema block against the parser.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/population_grid.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/parse.hpp"
#include "util/types.hpp"

namespace pcs {

/// One simulator run, mirroring pcs_sim's CLI options (kinds "sim" and
/// "trace_replay").
struct SimJobSpec {
  std::string config = "A";      ///< A | B
  std::string policy = "all";    ///< baseline | spcs | dpcs | all
  std::string workload = "hmmer";  ///< profile name or recorded-trace path
  /// `workload` is a recorded trace file, never a profile name (kind
  /// "trace_replay", whose `file` key names it).
  bool replay = false;
  u64 refs = 1'000'000;
  u64 warmup = 0;  ///< 0 = refs/4
  u64 chip_seed = 1;
  u64 trace_seed = 42;
  u32 levels = 3;
  bool csv = false;
};

/// The checkpoint keys of the population and population_grid kinds.
struct CheckpointJobSpec {
  /// Shard-range checkpoint sidecar ("" = no checkpointing); see
  /// CheckpointOptions.
  std::string checkpoint;
  u64 checkpoint_shards = 16;
  bool resume = false;
};

/// One population/binning run (kind "population"): a single design, run as
/// a singleton grid (population_job_grid).
struct PopulationJobSpec : CheckpointJobSpec {
  PopulationSpec spec;
  /// Fail-voltage sigma; 0 = the soi45 calibration default.
  Volt sigma = 0.0;
};

/// One grid run (kind "population_grid"), see population_grid.
struct PopulationGridJobSpec : CheckpointJobSpec {
  PopulationGridSpec spec;
};

/// A parsed job line. `kind` selects the active spec: `sim` serves both
/// "sim" and "trace_replay" (a sim run whose workload is a recorded file).
struct Job {
  enum class Kind { kSim, kPopulation, kPopulationGrid, kTraceReplay };
  Kind kind = Kind::kSim;
  std::string id;     ///< "" = job<N>, assigned at submission
  std::string out;    ///< output file ("" = caller-provided stream)
  std::string trace;  ///< per-job telemetry trace ("" = none)
  SimJobSpec sim;
  PopulationJobSpec population;
  PopulationGridJobSpec population_grid;

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

/// Sets `key` of `job` (for its current kind) from a CLI text token,
/// through the same key table entry parse_job_line uses: numbers must be
/// whole tokens (util/parse.hpp), bools are "true" or "false", lists are
/// comma-separated. Throws std::invalid_argument whose message starts with
/// `what` (the flag or positional name).
void set_job_key(Job& job, const std::string& key, const std::string& token,
                 const std::string& what);

/// A CLI flag or positional name and the job key it sets.
struct JobFlag {
  const char* arg;
  const char* key;
};

/// If argv[i] is one of `flags`, sets its key and returns true: a bool key
/// is a bare switch ("--csv"), any other key takes the next argument
/// (advancing `i`). Returns false for any other argument. Throws
/// std::invalid_argument for a missing or bad value.
bool take_job_flag(Job& job, std::span<const JobFlag> flags, int argc,
                   char** argv, int& i);

/// The job schema as the key tables define it: every kind, in Job::Kind
/// order, with every key it accepts ("kind" first).
std::vector<std::pair<std::string, std::vector<std::string>>> job_schema();

/// Runs one simulator job and renders the report to `out` -- byte-identical
/// to `pcs_sim` with the equivalent flags (this IS pcs_sim's run path).
/// `num_threads` fans the independent policy runs; results are identical at
/// any value. When `trace` is non-null, buffered per-policy telemetry is
/// replayed into it in policy order (the caller emits the header).
/// Throws std::invalid_argument for an unknown config or policy.
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
