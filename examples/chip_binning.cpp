// Chip binning study at population scale: manufacture many dies of the same
// cache design and report the fleet-level distributions the paper's SPCS /
// DPCS policies exploit -- yield vs VDD, per-die minimum operating voltage,
// and per-bin DPCS ladder tuning (POPULATION.md).
//
//   ./build/examples/chip_binning [num_chips] [size_kb] [assoc] [seed]
//                                 [shard_chips] [sigma]
//                                 [--checkpoint PATH] [--checkpoint-shards N]
//                                 [--resume] [--checkpoint-stop-after N]
//
// The optional sigma overrides the fail-voltage spread (0 = the soi45
// calibration). --checkpoint enables the shard-range sidecar; --resume skips
// the completed shard prefix of an earlier run; --checkpoint-stop-after N is
// the CI/test hook that kills the process (exit 3) after the Nth sidecar
// write, leaving a genuinely torn run behind for a resume to finish.
// Arguments are checked by the job service's `population` key table, exactly
// as in a job line; a bad one, or a malformed PCS_THREADS, prints usage and
// exits 2.
//
// Runs on PCS_THREADS workers; the report is byte-identical at any thread
// count and any shard size -- and for a resumed run -- and matches a
// `population` job submitted to `pcs_sim --serve` with the same parameters.
// PCS_TRACE writes the run's population_grid_point telemetry record
// (TELEMETRY.md).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/job_service.hpp"
#include "exp/thread_pool.hpp"
#include "telemetry/trace_sink.hpp"

using namespace pcs;

namespace {

int usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "chip_binning: %s\n"
               "usage: %s [num_chips] [size_kb] [assoc] [seed] [shard_chips]"
               " [sigma]\n"
               "       [--checkpoint PATH] [--checkpoint-shards N] [--resume]"
               " [--checkpoint-stop-after N]\n",
               why, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Arguments that set a `population` job key (POPULATION.md); the job
  // service's key table parses and checks their values.
  constexpr JobFlag kPositionals[] = {
      {"num_chips", "chips"}, {"size_kb", "size_kb"},
      {"assoc", "assoc"},     {"seed", "seed"},
      {"shard_chips", "shard_chips"}, {"sigma", "sigma"}};
  constexpr JobFlag kFlags[] = {{"--checkpoint", "checkpoint"},
                                {"--checkpoint-shards", "checkpoint_shards"},
                                {"--resume", "resume"}};
  Job job;
  job.kind = Job::Kind::kPopulation;
  job.population.spec.num_chips = 500;
  u64 stop_after = 0;
  u32 threads = 1;
  try {
    std::size_t pos = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (take_job_flag(job, kFlags, argc, argv, i)) continue;
      if (arg == "--checkpoint-stop-after" && i + 1 < argc) {
        stop_after = parse_u64_token(argv[++i], arg);
      } else if (pos < std::size(kPositionals)) {
        set_job_key(job, kPositionals[pos].key, arg, kPositionals[pos].arg);
        ++pos;
      } else {
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      }
    }
    threads = pcs_thread_count();
  } catch (const std::invalid_argument& e) {
    return usage(argv[0], e.what());
  }

  std::unique_ptr<TraceSink> sink;
  if (const char* env = std::getenv("PCS_TRACE")) {
    sink = make_trace_sink(env);
    emit_trace_header(*sink);
  }
  // --checkpoint-stop-after: tear the process down after the Nth sidecar
  // write (exit 3) so the CI smoke can resume a genuinely torn run.
  u64 saves = 0;
  CheckpointHook stop_hook;
  if (stop_after > 0) {
    stop_hook = [&](u64) {
      if (++saves >= stop_after) std::_Exit(3);
    };
  }
  try {
    // Same run + render path as a service-mode "population" job, so the
    // standalone report is byte-identical to the job's output file.
    run_population_job(job.population, std::cout, threads, sink.get(),
                       stop_hook);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chip_binning: %s\n", e.what());
    return 2;
  }
  return 0;
}
