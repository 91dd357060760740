// ABL-POL: DPCS policy sensitivity (paper section 4.1 notes the tuning
// constants were "set to reasonable values to reduce the huge design
// space"). Sweeps Interval, SuperInterval, and the LT/HT thresholds --
// including the paper's original 0.05/0.10 -- on two contrasting workloads,
// plus the fault-placement randomness check (< 1% spread over seeds).
//
// Every run of all four sections is one point of a single grid on the
// lane-parallel SweepRunner, across PCS_THREADS workers (default: all
// hardware threads; the output is byte-identical at every thread count).
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_env.hpp"
#include "exp/sweep_engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pcs;

namespace {

struct Outcome {
  double savings;
  double overhead;
  u32 transitions;
};

/// Appends the baseline and DPCS points of one (config, workload, die).
void add_pair(std::vector<ExperimentPoint>& points, const SystemConfig& cfg,
              const char* wl, const RunParams& rp, u64 chip_seed = 1) {
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kDynamic}) {
    ExperimentPoint p;
    p.index = points.size();
    p.config = cfg;
    p.workload = wl;
    p.policy = kind;
    p.chip_seed = chip_seed;
    p.params = rp;
    points.push_back(std::move(p));
  }
}

/// Reads the (baseline, DPCS) pair at `at` and steps `at` past it.
Outcome next_outcome(const std::vector<SimReport>& rows, u64& at) {
  const SimReport& base = rows[at];
  const SimReport& dpcs = rows[at + 1];
  at += 2;
  return {1.0 - dpcs.total_cache_energy() / base.total_cache_energy(),
          static_cast<double>(dpcs.cycles) / static_cast<double>(base.cycles) - 1.0,
          dpcs.l2.transitions + dpcs.l1d.transitions};
}

}  // namespace

int main() {
  // The default is 600'000 refs; PCS_REFS is divided by 2.
  const char* usage = "[PCS_REFS=N] [PCS_THREADS=N] ablation_policy";
  const u64 refs = env_u64_or_exit("PCS_REFS", 2 * 600'000, usage) / 2;
  SweepOptions opt;
  opt.num_threads = threads_or_exit(usage);
  const char* workloads[] = {"hmmer", "gcc"};
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 5;

  std::vector<ExperimentPoint> points;
  const double bands[][2] = {{0.01, 0.03}, {0.02, 0.05}, {0.05, 0.10},
                             {0.10, 0.20}};
  for (const auto& b : bands) {
    for (const char* wl : workloads) {
      SystemConfig cfg = SystemConfig::config_a();
      cfg.low_threshold = b[0];
      cfg.high_threshold = b[1];
      add_pair(points, cfg, wl, rp);
    }
  }
  const u64 intervals[] = {500, 2'000, 10'000, 50'000};
  for (const u64 interval : intervals) {
    for (const char* wl : workloads) {
      SystemConfig cfg = SystemConfig::config_a();
      cfg.l2.dpcs_interval = interval;
      add_pair(points, cfg, wl, rp);
    }
  }
  const u32 supers[] = {5, 10, 25, 50};
  for (const u32 si : supers) {
    for (const char* wl : workloads) {
      SystemConfig cfg = SystemConfig::config_a();
      cfg.l1i.super_interval = si;
      cfg.l1d.super_interval = si;
      cfg.l2.super_interval = si;
      add_pair(points, cfg, wl, rp);
    }
  }
  for (u64 seed = 1; seed <= 5; ++seed) {
    add_pair(points, SystemConfig::config_a(), "hmmer", rp, seed);
  }
  const std::vector<SimReport> rows = SweepRunner(opt).run(std::move(points));
  u64 at = 0;  // walks the pairs in the order they were added

  std::cout << "== ABL-POL(1): threshold sweep (LT/HT) ==\n\n";
  TextTable t1({"LT/HT", "workload", "DPCS savings", "perf overhead",
                "transitions"});
  for (const auto& b : bands) {
    for (const char* wl : workloads) {
      const auto o = next_outcome(rows, at);
      t1.add_row({fmt_fixed(b[0], 2) + "/" + fmt_fixed(b[1], 2), wl,
                  fmt_pct(o.savings, 1), fmt_pct(o.overhead, 2),
                  std::to_string(o.transitions)});
    }
  }
  t1.print(std::cout);
  std::cout << "\nshape: looser bands (paper's 0.05/0.10) accept more "
               "performance loss for more savings; the default 0.02/0.05 "
               "compensates for the blocking CPU model.\n";

  std::cout << "\n== ABL-POL(2): L2 interval sweep ==\n\n";
  TextTable t2({"L2 interval", "workload", "DPCS savings", "perf overhead",
                "transitions"});
  for (const u64 interval : intervals) {
    for (const char* wl : workloads) {
      const auto o = next_outcome(rows, at);
      t2.add_row({fmt_count(interval), wl, fmt_pct(o.savings, 1),
                  fmt_pct(o.overhead, 2), std::to_string(o.transitions)});
    }
  }
  t2.print(std::cout);
  std::cout << "\nshape: short intervals adapt faster (more savings on "
               "phased workloads) but spend more transitions; very long "
               "intervals degenerate toward SPCS.\n";

  std::cout << "\n== ABL-POL(3): SuperInterval sweep ==\n\n";
  TextTable t3({"SuperInterval", "workload", "DPCS savings",
                "perf overhead"});
  for (const u32 si : supers) {
    for (const char* wl : workloads) {
      const auto o = next_outcome(rows, at);
      t3.add_row({std::to_string(si), wl, fmt_pct(o.savings, 1),
                  fmt_pct(o.overhead, 2)});
    }
  }
  t3.print(std::cout);

  std::cout << "\n== ABL-POL(4): fault-placement randomness "
               "(paper: < 1% spread over 5 runs) ==\n\n";
  TextTable t4({"chip seed", "DPCS savings", "perf overhead"});
  RunningStats sav;
  for (u64 seed = 1; seed <= 5; ++seed) {
    const auto o = next_outcome(rows, at);
    sav.add(o.savings);
    t4.add_row({std::to_string(seed), fmt_pct(o.savings, 2),
                fmt_pct(o.overhead, 2)});
  }
  t4.print(std::cout);
  std::cout << "\nspread (max - min savings): "
            << fmt_pct(sav.max() - sav.min(), 2) << " (paper: < 1%)\n";
  return 0;
}
