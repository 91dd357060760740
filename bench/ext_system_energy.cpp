// EXT-SYS: system-wide energy impact (paper future work: "an evaluation of
// system-wide power and energy impacts").
//
// Puts the cache-level savings of Fig. 4 into whole-system context: core +
// DRAM + cache energy per run. Cache savings dilute by the cache's share of
// system energy, and any execution-time overhead charges core and DRAM
// background energy against the gains -- quantifying how much slowdown a
// cache-energy optimization can afford at the system level.
//
// The workload x {baseline, SPCS, DPCS} grid runs on the lane-parallel
// SweepRunner across PCS_THREADS workers (default: all hardware threads;
// the output is byte-identical at every thread count).
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_env.hpp"
#include "core/system_energy.hpp"
#include "exp/sweep_engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pcs;

int main() {
  // The default is 800'000 refs; PCS_REFS is divided by 2.
  const char* usage = "[PCS_REFS=N] [PCS_THREADS=N] ext_system_energy";
  const u64 refs = env_u64_or_exit("PCS_REFS", 2 * 800'000, usage) / 2;
  SweepOptions opt;
  opt.num_threads = threads_or_exit(usage);
  const SystemEnergyModel model({}, SystemConfig::config_a().clock_ghz * 1e9);

  const char* workloads[] = {"hmmer", "gcc", "mcf", "libquantum", "sphinx3"};
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 4;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a());
  for (const char* wl : workloads) grid.add_workload(wl);
  grid.add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kStatic)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  const std::vector<SimReport> rows = SweepRunner(opt).run(grid);

  std::cout << "== EXT-SYS: whole-system energy (core + DRAM + caches, "
               "Config A) ==\n\n";
  TextTable t({"benchmark", "policy", "core", "DRAM", "caches",
               "system total", "cache share", "cache savings",
               "system savings"});
  RunningStats cache_sav, sys_sav;
  for (std::size_t w = 0; w < std::size(workloads); ++w) {
    // Grid order: workload, then baseline/SPCS/DPCS.
    const auto eb = model.evaluate(rows[3 * w]);
    for (std::size_t k = 1; k <= 2; ++k) {
      const SimReport& r = rows[3 * w + k];
      const auto e = model.evaluate(r);
      const double cs = 1.0 - e.cache / eb.cache;
      const double ss = 1.0 - e.total() / eb.total();
      cache_sav.add(cs);
      sys_sav.add(ss);
      t.add_row({workloads[w], r.policy, fmt_joules(e.core),
                 fmt_joules(e.dram), fmt_joules(e.cache),
                 fmt_joules(e.total()), fmt_pct(eb.cache / eb.total(), 1),
                 fmt_pct(cs, 1), fmt_pct(ss, 1)});
    }
  }
  t.print(std::cout);

  std::cout << "\naverage: cache-level savings " << fmt_pct(cache_sav.mean(), 1)
            << " dilute to " << fmt_pct(sys_sav.mean(), 1)
            << " at the system level (cache share of system energy times "
               "savings, minus overhead costs).\n";
  return 0;
}
