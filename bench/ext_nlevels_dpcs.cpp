// EXT-N: DPCS with more than three VDD levels, in simulation.
//
// The paper evaluates N = 3 and argues the fault map "should scale well for
// more voltage levels" (log2(N+1) FM bits). The analytical side of that
// claim is bench/ablation_nlevels; this bench runs the *dynamic policy*
// over deeper ladders: extra rungs between VDD1 and VDD2 let DPCS settle on
// intermediate voltages instead of choosing between two extremes, trading a
// slightly larger fault map for finer-grained savings.
//
// The ladder depth x workload x {baseline, DPCS} grid runs on the
// lane-parallel SweepRunner across PCS_THREADS workers (default: all
// hardware threads; the output is byte-identical at every thread count).
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_env.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/fault_map.hpp"
#include "util/table.hpp"

using namespace pcs;

int main() {
  // The default is 600'000 refs; PCS_REFS is divided by 3.
  const char* usage = "[PCS_REFS=N] [PCS_THREADS=N] ext_nlevels_dpcs";
  const u64 refs = env_u64_or_exit("PCS_REFS", 3 * 600'000, usage) / 3;
  SweepOptions opt;
  opt.num_threads = threads_or_exit(usage);

  const u32 level_counts[] = {3, 4, 5, 6};
  const char* workloads[] = {"hmmer", "gcc", "libquantum"};
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 4;
  ExperimentGrid grid;
  for (const u32 n : level_counts) {
    SystemConfig cfg = SystemConfig::config_a();
    cfg.num_vdd_levels = n;
    grid.add_config(cfg);
  }
  for (const char* wl : workloads) grid.add_workload(wl);
  grid.add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  const std::vector<SimReport> rows = SweepRunner(opt).run(grid);

  std::cout << "== EXT-N: DPCS over deeper VDD ladders (Config A) ==\n\n";
  TextTable t({"N levels", "FM bits+Faulty", "workload", "DPCS savings",
               "perf overhead", "L2 avg VDD", "transitions"});
  u64 at = 0;  // grid order: ladder depth, then workload, then baseline/DPCS
  for (const u32 n : level_counts) {
    const u32 fm = FaultMap::fm_bits_for_levels(n);
    for (const char* wl : workloads) {
      const SimReport& base = rows[at];
      const SimReport& dpcs = rows[at + 1];
      at += 2;
      const double savings =
          1.0 - dpcs.total_cache_energy() / base.total_cache_energy();
      const double overhead = static_cast<double>(dpcs.cycles) /
                                  static_cast<double>(base.cycles) -
                              1.0;
      t.add_row({std::to_string(n), std::to_string(fm) + "+1", wl,
                 fmt_pct(savings, 1), fmt_pct(overhead, 2),
                 fmt_fixed(dpcs.l2.avg_vdd, 3) + " V",
                 std::to_string(dpcs.l2.transitions + dpcs.l1d.transitions)});
    }
  }
  t.print(std::cout);

  std::cout
      << "\nreading: the fault map scales as promised (log2(N+1) bits), and "
         "the policy walks the\nextra rungs -- but savings do NOT improve: "
         "each added rung costs extra transitions\n(metadata sweeps + "
         "refills) while the average operating voltage barely moves. N=3\n"
         "is the sweet spot, consistent with the paper's choice of three "
         "levels.\n";
  return 0;
}
