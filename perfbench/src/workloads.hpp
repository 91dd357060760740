// The three benchmark workloads. Each is a closed-loop batch with a fixed
// amount of work per pass (one client submits the whole batch, waits for
// it, then submits the next); throughput is measured at that stated size.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/system.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  u64 seed = 7;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;
  std::string work_dir;  ///< temporary files (recorded traces, job outputs)
  std::string spans_path;  ///< where the traced run writes its spans
};

struct Result {
  OpLedger ops;
  std::map<std::string, double> metrics;
  std::string digest;  ///< over every simulated output of the run
  /// Extra facts printed on the info line (name -> JSON value).
  std::vector<std::pair<std::string, std::string>> info;
};

Result run_fig4_sweep(const Options& o);
Result run_fleet_grid(const Options& o);
Result run_serve_replay(const Options& o);

// ---- shared by the workloads ---------------------------------------------

/// Set-up passes per run; setup_s is their median.
inline constexpr int kSetupRuns = 15;
/// Untimed passes run at least this long before anything is timed, so
/// heap growth, page-cache fills and the host's clock settling under load
/// are behind the measurement.
inline constexpr double kWarmupSeconds = 4.0;
inline constexpr std::size_t kMinPasses = 5;

/// Host seconds of the untraced run's set-up and timed passes.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> pass_s;
};

/// pass(i) runs batch pass i and setup() one set-up pass; each returns the
/// host seconds of its timed section (the call into the library, not the
/// checks). Pass 0 is the reference whose results later passes are
/// compared with. Passes run untimed for kWarmupSeconds, then setup() runs
/// kSetupRuns times, then passes are timed until `seconds` have elapsed
/// and at least kMinPasses ran.
Measured measure(double seconds, const std::function<double()>& setup,
                 const std::function<double(int)>& pass);

/// Host seconds of `reps` runs of fn (set-up timing), in run order.
std::vector<double> time_runs(int reps, const std::function<void()>& fn);

/// Runs a() and b() alternately `reps` times each; each returns the host
/// seconds of its timed section. Returns their medians {a, b}, so slow
/// host phases hit both sides of an overhead comparison alike.
std::pair<double, double> alternate(int reps, const std::function<double()>& a,
                                    const std::function<double()>& b);

/// A derived seed that fits the job schema's integer range (< 2^52).
u64 input_seed(u64 seed, u64 tag, u64 index);

/// Per-layer metrics from a simulation-layer probe: a synthetic profile
/// chosen by `seed` is recorded to a .pcst in `dir`, opened, and replayed
/// piecewise through baseline, SPCS and DPCS config-A systems. Workloads
/// whose own path bypasses these layers report them from here. Each
/// replayed report is checked against run_one (a counted operation).
std::map<std::string, double> probe_sim_layers(u64 seed,
                                              const std::string& dir,
                                              OpLedger& ops);

/// Sets model.* -- |mean SPCS / DPCS cache-energy saving - paper value| and
/// the mean DPCS execution-time overhead, over the consecutive
/// baseline/SPCS/DPCS triples of `reps` -- and the L1D/L2 miss rates over
/// all of `reps`' measured windows.
void report_metrics(const std::vector<pcs::SimReport>& reps,
                    std::map<std::string, double>& m);

/// Median host microseconds of parse_job_line(line).
double job_parse_us(const std::string& line, int reps);

/// Fills the fault.* metrics every workload reports: field sampling, the
/// sample/fold kernels on `dies` dies of the reference grid, vecmath mode.
void fault_probe(u64 seed, u64 dies, Result& r);

}  // namespace perfbench
