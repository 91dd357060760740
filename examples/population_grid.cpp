// Population grid study: evaluate one manufactured fleet against a full
// (size_kb x assoc x sigma) design grid in a single pass (POPULATION.md
// "grid runs"). The grid engine samples each die once and derives every
// point from the shared draws, so each point's distributions are
// bit-identical to a standalone chip_binning run of that point -- at a
// fraction of the cost (see BENCH_micro.json: BM_PopulationGridDie).
//
//   ./build/examples/population_grid [num_chips] [seed] [shard_chips]
//       [--sizes KB,KB,...] [--assocs W,W,...] [--sigmas S,S,...]
//       [--out-dir DIR]
//       [--checkpoint PATH] [--checkpoint-shards N] [--resume]
//       [--checkpoint-stop-after N]
//
// Defaults: sizes 64, assocs 4, sigmas empty (the soi45 calibration).
// --out-dir additionally writes one chip_binning-style report per point
// (point_<size>kb_<ways>w_s<i>.txt), byte-identical to the standalone CLI
// with the same parameters -- the CI grid-determinism smoke `cmp`s exactly
// this. The checkpoint flags mirror chip_binning's; the summary report is
// byte-identical at any thread count, any shard size, and across a
// kill+resume. PCS_TRACE writes the population_grid_point telemetry stream
// (TELEMETRY.md). Arguments are checked by the job service's
// `population_grid` key table and the grid's validate(), exactly as in a job
// line; a bad one, or a malformed PCS_THREADS, prints usage and exits 2.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/job_service.hpp"
#include "exp/thread_pool.hpp"
#include "telemetry/trace_sink.hpp"

using namespace pcs;

namespace {

int usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "population_grid: %s\n"
               "usage: %s [num_chips] [seed] [shard_chips]\n"
               "       [--sizes KB,KB,...] [--assocs W,W,...]"
               " [--sigmas S,S,...] [--out-dir DIR]\n"
               "       [--checkpoint PATH] [--checkpoint-shards N] [--resume]"
               " [--checkpoint-stop-after N]\n",
               why, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Arguments that set a `population_grid` job key (POPULATION.md); the job
  // service's key table parses and checks their values.
  constexpr JobFlag kPositionals[] = {{"num_chips", "chips"},
                                      {"seed", "seed"},
                                      {"shard_chips", "shard_chips"}};
  constexpr JobFlag kFlags[] = {{"--sizes", "sizes_kb"},
                                {"--assocs", "assocs"},
                                {"--sigmas", "sigmas"},
                                {"--checkpoint", "checkpoint"},
                                {"--checkpoint-shards", "checkpoint_shards"},
                                {"--resume", "resume"}};
  Job job;
  job.kind = Job::Kind::kPopulationGrid;
  const PopulationGridSpec& spec = job.population_grid.spec;
  job.population_grid.spec.base.num_chips = 500;
  std::string out_dir;
  u64 stop_after = 0;
  u32 threads = 1;
  try {
    std::size_t pos = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (take_job_flag(job, kFlags, argc, argv, i)) continue;
      if (arg == "--out-dir" && i + 1 < argc) {
        out_dir = argv[++i];
      } else if (arg == "--checkpoint-stop-after" && i + 1 < argc) {
        stop_after = parse_u64_token(argv[++i], arg);
      } else if (pos < std::size(kPositionals)) {
        set_job_key(job, kPositionals[pos].key, arg, kPositionals[pos].arg);
        ++pos;
      } else {
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      }
    }
    spec.validate();
    threads = pcs_thread_count();
  } catch (const std::invalid_argument& e) {
    return usage(argv[0], e.what());
  }

  try {
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
    // Same run + render path as a service-mode "population_grid" job.
    const PopulationGridResult result = run_population_grid_job(
        job.population_grid, std::cout, threads, sink.get(), stop_hook);

    if (!out_dir.empty()) {
      // One standalone-equivalent report per point: the render path and the
      // (spec, result) pair are exactly chip_binning's, so the bytes match
      // `chip_binning chips size assoc seed shard_chips sigma`.
      // Points are size-major with sigma innermost, so a point's sigma
      // index is its position modulo the sigma-axis length.
      std::filesystem::create_directories(out_dir);
      const std::size_t num_sigmas =
          spec.sigmas.empty() ? 1 : spec.sigmas.size();
      for (std::size_t p = 0; p < result.points.size(); ++p) {
        const PopulationGridPointResult& pt = result.points[p];
        char name[128];
        std::snprintf(name, sizeof name, "point_%llukb_%uw_s%zu.txt",
                      static_cast<unsigned long long>(pt.size_kb), pt.assoc,
                      p % num_sigmas);
        const std::string path = out_dir + "/" + name;
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        if (!f) {
          throw std::runtime_error("cannot open '" + path + "'");
        }
        render_population_report(spec.point_spec(pt.size_kb, pt.assoc),
                                 pt.result, f);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "population_grid: %s\n", e.what());
    return 2;
  }
  return 0;
}
