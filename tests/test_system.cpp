// Integration tests: the whole simulated system end-to-end.
#include "core/system.hpp"

#include "core/system_energy.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "fault/yield_model.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs {
namespace {

RunParams quick() {
  RunParams p;
  p.max_refs = 150'000;
  p.warmup_refs = 30'000;
  return p;
}

SimReport run_one(const SystemConfig& cfg, PolicyKind kind, const char* wl,
                  u64 chip_seed = 1, u64 trace_seed = 42) {
  auto trace = make_spec_trace(wl, trace_seed);
  PcsSystem sys(cfg, kind, chip_seed);
  return sys.run(*trace, quick());
}

TEST(System, PolicyKindNames) {
  EXPECT_STREQ(to_string(PolicyKind::kBaseline), "baseline");
  EXPECT_STREQ(to_string(PolicyKind::kStatic), "SPCS");
  EXPECT_STREQ(to_string(PolicyKind::kDynamic), "DPCS");
}

TEST(System, ReportPlumbing) {
  const auto cfg = SystemConfig::config_a();
  const auto r = run_one(cfg, PolicyKind::kStatic, "hmmer");
  EXPECT_EQ(r.config_name, "A");
  EXPECT_EQ(r.workload, "hmmer");
  EXPECT_EQ(r.policy, "SPCS");
  EXPECT_EQ(r.refs, 150'000u);
  EXPECT_GT(r.instructions, r.refs);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_GT(r.total_cache_energy(), 0.0);
}

TEST(System, SpcsSavesEnergyVsBaseline) {
  const auto cfg = SystemConfig::config_a();
  for (const char* wl : {"hmmer", "libquantum"}) {
    const auto base = run_one(cfg, PolicyKind::kBaseline, wl);
    const auto spcs = run_one(cfg, PolicyKind::kStatic, wl);
    const double saving =
        1.0 - spcs.total_cache_energy() / base.total_cache_energy();
    // Paper: ~55% average for SPCS; accept a generous band.
    EXPECT_GT(saving, 0.40) << wl;
    EXPECT_LT(saving, 0.65) << wl;
  }
}

TEST(System, DpcsSavesAtLeastAsMuchAsSpcs) {
  const auto cfg = SystemConfig::config_a();
  for (const char* wl : {"hmmer", "mcf", "libquantum"}) {
    const auto spcs = run_one(cfg, PolicyKind::kStatic, wl);
    const auto dpcs = run_one(cfg, PolicyKind::kDynamic, wl);
    EXPECT_LE(dpcs.total_cache_energy(),
              spcs.total_cache_energy() * 1.02)
        << wl;
  }
}

TEST(System, PerformanceOverheadWithinPaperEnvelope) {
  const auto cfg = SystemConfig::config_a();
  for (const char* wl : {"hmmer", "gcc", "libquantum"}) {
    const auto base = run_one(cfg, PolicyKind::kBaseline, wl);
    const auto spcs = run_one(cfg, PolicyKind::kStatic, wl);
    const auto dpcs = run_one(cfg, PolicyKind::kDynamic, wl);
    const double ov_s = static_cast<double>(spcs.cycles) /
                            static_cast<double>(base.cycles) -
                        1.0;
    const double ov_d = static_cast<double>(dpcs.cycles) /
                            static_cast<double>(base.cycles) -
                        1.0;
    EXPECT_LT(ov_s, 0.03) << wl;  // paper: <= 2.8% for SPCS
    EXPECT_LT(ov_d, 0.08) << wl;  // paper: <= 4.4% for DPCS (we allow slack)
    EXPECT_GT(ov_s, -0.02) << wl;
  }
}

TEST(System, DpcsOperatesBetweenVdd1AndSpcs) {
  const auto cfg = SystemConfig::config_a();
  auto trace = make_spec_trace("libquantum", 42);
  PcsSystem sys(cfg, PolicyKind::kDynamic, 1);
  const auto r = sys.run(*trace, quick());
  const auto& ladder = sys.ladder("L2");
  EXPECT_GE(r.l2.avg_vdd, ladder.min_vdd() - 1e-9);
  EXPECT_LE(r.l2.avg_vdd, ladder.spcs_vdd() + 1e-9);
  EXPECT_LE(r.l2.final_vdd, ladder.spcs_vdd() + 1e-9);
}

TEST(System, SpcsHoldsSpcsVddThroughout) {
  const auto cfg = SystemConfig::config_a();
  auto trace = make_spec_trace("gcc", 42);
  PcsSystem sys(cfg, PolicyKind::kStatic, 1);
  const auto r = sys.run(*trace, quick());
  const auto& ladder = sys.ladder("L2");
  EXPECT_NEAR(r.l2.avg_vdd, ladder.spcs_vdd(), 1e-9);
  EXPECT_EQ(r.l2.transitions, 0u);
}

TEST(System, BaselineHasFullCapacityAndNominalVdd) {
  const auto cfg = SystemConfig::config_a();
  const auto r = run_one(cfg, PolicyKind::kBaseline, "hmmer");
  EXPECT_NEAR(r.l1d.effective_capacity, 1.0, 1e-12);
  EXPECT_NEAR(r.l2.avg_vdd, 1.0, 1e-9);
  EXPECT_EQ(r.l2.transitions, 0u);
}

TEST(System, SpcsKeeps99PercentCapacity) {
  const auto cfg = SystemConfig::config_a();
  const auto r = run_one(cfg, PolicyKind::kStatic, "hmmer");
  EXPECT_GE(r.l1d.effective_capacity, 0.99);
  EXPECT_GE(r.l2.effective_capacity, 0.99);
}

TEST(System, DeterministicGivenSeeds) {
  const auto cfg = SystemConfig::config_a();
  const auto a = run_one(cfg, PolicyKind::kDynamic, "gcc", 7, 9);
  const auto b = run_one(cfg, PolicyKind::kDynamic, "gcc", 7, 9);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
  EXPECT_DOUBLE_EQ(a.total_cache_energy(), b.total_cache_energy());
}

TEST(System, FaultPlacementBarelyMatters) {
  // Paper section 4.1: across random fault maps, performance and energy
  // varied < 1%. Check a few chips.
  const auto cfg = SystemConfig::config_a();
  const auto a = run_one(cfg, PolicyKind::kStatic, "hmmer", 1);
  const auto b = run_one(cfg, PolicyKind::kStatic, "hmmer", 2);
  const auto c = run_one(cfg, PolicyKind::kStatic, "hmmer", 3);
  const double ea = a.total_cache_energy();
  for (const auto& r : {b, c}) {
    EXPECT_NEAR(r.total_cache_energy() / ea, 1.0, 0.02);
    EXPECT_NEAR(static_cast<double>(r.cycles) / static_cast<double>(a.cycles),
                1.0, 0.02);
  }
}

TEST(System, ConfigBReachesAtLeastAsLowVddAsConfigA) {
  // Bigger, more associative caches relax the set constraint, so config B's
  // VDD1 is at most config A's; with the 90% capacity floor active (see
  // VddSelectionParams), both may rest on the same floor voltage.
  PcsSystem a(SystemConfig::config_a(), PolicyKind::kDynamic, 1);
  PcsSystem b(SystemConfig::config_b(), PolicyKind::kDynamic, 1);
  EXPECT_LE(b.ladder("L2").min_vdd(), a.ladder("L2").min_vdd());
  EXPECT_LE(b.ladder("L1D").min_vdd(), a.ladder("L1D").min_vdd());
  // The floor itself is honoured.
  BerModel ber(SystemConfig::config_b().tech);
  YieldModel ym(ber, SystemConfig::config_b().l2.org);
  EXPECT_GE(ym.expected_capacity(b.ladder("L2").min_vdd()), 0.90);
}

TEST(System, L2DominatesCacheEnergy) {
  // The L2 is 32x larger than an L1: leakage-dominated total cache energy
  // must be mostly L2 (this is why DPCS aims there).
  const auto cfg = SystemConfig::config_a();
  const auto r = run_one(cfg, PolicyKind::kBaseline, "hmmer");
  EXPECT_GT(r.l2.total_energy(),
            0.5 * (r.l1i.total_energy() + r.l1d.total_energy() +
                   r.l2.total_energy()));
}

TEST(SystemEnergy, ComponentsAndDilution) {
  const auto cfg = SystemConfig::config_a();
  const auto base = run_one(cfg, PolicyKind::kBaseline, "hmmer");
  const auto spcs = run_one(cfg, PolicyKind::kStatic, "hmmer");
  const SystemEnergyModel model({}, cfg.clock_ghz * 1e9);
  const auto eb = model.evaluate(base);
  const auto es = model.evaluate(spcs);
  EXPECT_GT(eb.core, 0.0);
  EXPECT_GT(eb.dram, 0.0);
  EXPECT_NEAR(eb.cache, base.total_cache_energy(), 1e-12);
  EXPECT_NEAR(eb.total(), eb.core + eb.dram + eb.cache, 1e-15);
  // System savings exist but are diluted below the cache-level savings.
  const double cache_sav = 1.0 - es.cache / eb.cache;
  const double sys_sav = 1.0 - es.total() / eb.total();
  EXPECT_GT(sys_sav, 0.0);
  EXPECT_LT(sys_sav, cache_sav);
}

TEST(SystemEnergy, SlowerRunBurnsMoreBackgroundEnergy) {
  SystemEnergyModel model({}, 2e9);
  SimReport r;
  r.instructions = 1'000'000;
  r.cycles = 2'000'000;
  r.mem_reads = 1000;
  const auto e1 = model.evaluate(r);
  r.cycles = 4'000'000;  // same work, double the time
  const auto e2 = model.evaluate(r);
  EXPECT_GT(e2.core, e1.core);
  EXPECT_GT(e2.dram, e1.dram);
}

TEST(System, DramTrafficReported) {
  const auto cfg = SystemConfig::config_a();
  const auto r = run_one(cfg, PolicyKind::kBaseline, "mcf");
  EXPECT_GT(r.mem_reads, 1000u);   // mcf is DRAM-bound
  EXPECT_GT(r.mem_writes, 100u);   // dirty evictions flow out
}

TEST(System, LadderAccessorValidatesName) {
  PcsSystem sys(SystemConfig::config_a(), PolicyKind::kStatic, 1);
  EXPECT_NO_THROW(sys.ladder("L1I"));
  EXPECT_THROW(sys.ladder("L3"), std::invalid_argument);
}

/// A system built on a shared die is the system the chip-seed constructor
/// builds, for every policy; the die is copied, so reuse is safe.
TEST(System, SharedDieMatchesChipSeedConstructor) {
  const auto cfg = SystemConfig::config_a();
  const ManufacturedDie die = PcsSystem::manufacture(cfg, 9);
  for (const auto kind : {PolicyKind::kBaseline, PolicyKind::kStatic,
                          PolicyKind::kDynamic}) {
    auto t1 = make_spec_trace("gcc", 42);
    auto t2 = make_spec_trace("gcc", 42);
    PcsSystem fresh(cfg, kind, 9);
    PcsSystem shared(cfg, kind, die);
    EXPECT_EQ(shared.run(*t2, quick()), fresh.run(*t1, quick()))
        << to_string(kind);
    EXPECT_EQ(shared.ladder("L2").levels, fresh.ladder("L2").levels);
  }
  // Manufacture is a pure function of (config, chip_seed).
  const ManufacturedDie again = PcsSystem::manufacture(cfg, 9);
  for (u64 b = 0; b < die.l2.map.num_blocks(); ++b) {
    ASSERT_EQ(again.l2.map.code(b), die.l2.map.code(b)) << "block " << b;
  }
  EXPECT_EQ(again.l2.min_viable, die.l2.min_viable);
}

TEST(System, SharedDieMustMatchTheConfig) {
  const ManufacturedDie die_b =
      PcsSystem::manufacture(SystemConfig::config_b(), 9);
  EXPECT_THROW(PcsSystem(SystemConfig::config_a(), PolicyKind::kStatic, die_b),
               std::invalid_argument);
  // Baseline has no fault map, so it ignores the die.
  EXPECT_NO_THROW(
      PcsSystem(SystemConfig::config_a(), PolicyKind::kBaseline, die_b));
}

/// The sweep engine shares a die between lanes whose configs compare
/// equal, so a field operator== missed would silently share a wrong die.
/// Flip every field, nested ones included, and expect a mismatch.
TEST(SystemConfig, EqualityNoticesEveryField) {
  const auto level_muts = [](CacheLevelConfig SystemConfig::*lvl) {
    return std::vector<std::function<void(SystemConfig&)>>{
        [lvl](SystemConfig& c) { (c.*lvl).org.size_bytes *= 2; },
        [lvl](SystemConfig& c) { (c.*lvl).org.assoc *= 2; },
        [lvl](SystemConfig& c) { (c.*lvl).org.block_bytes *= 2; },
        [lvl](SystemConfig& c) { (c.*lvl).org.phys_addr_bits += 1; },
        [lvl](SystemConfig& c) { (c.*lvl).hit_latency += 1; },
        [lvl](SystemConfig& c) { (c.*lvl).dpcs_interval += 1; },
        [lvl](SystemConfig& c) { (c.*lvl).miss_penalty_estimate += 1.0; },
        [lvl](SystemConfig& c) { (c.*lvl).super_interval += 1; },
    };
  };
  std::vector<std::function<void(SystemConfig&)>> muts = {
      [](SystemConfig& c) { c.name = "A'"; },
      [](SystemConfig& c) { c.clock_ghz += 0.5; },
      [](SystemConfig& c) { c.mem_latency += 1; },
      [](SystemConfig& c) { c.num_vdd_levels = 4; },
      [](SystemConfig& c) { c.yield_target = 0.999; },
      [](SystemConfig& c) { c.capacity_target = 0.98; },
      [](SystemConfig& c) { c.vdd1_capacity_floor = 0.8; },
      [](SystemConfig& c) { c.low_threshold = 0.04; },
      [](SystemConfig& c) { c.high_threshold = 0.2; },
      [](SystemConfig& c) { c.settle_penalty += 1; },
      [](SystemConfig& c) { c.replacement = "tree-plru"; },
      [](SystemConfig& c) { c.tech.name = "other"; },
      [](SystemConfig& c) { c.tech.vdd_nominal += 0.1; },
      [](SystemConfig& c) { c.tech.vdd_floor += 0.01; },
      [](SystemConfig& c) { c.tech.vdd_step *= 2; },
      [](SystemConfig& c) { c.tech.cell_leak_nominal *= 2; },
      [](SystemConfig& c) { c.tech.leak_v_slope *= 2; },
      [](SystemConfig& c) { c.tech.data_periphery_leak_frac *= 2; },
      [](SystemConfig& c) { c.tech.tag_leak_frac_per_bit_ratio *= 2; },
      [](SystemConfig& c) { c.tech.dyn_energy_per_bit *= 2; },
      [](SystemConfig& c) { c.tech.dyn_data_frac /= 2; },
      [](SystemConfig& c) { c.tech.cell_area *= 2; },
      [](SystemConfig& c) { c.tech.array_area_efficiency /= 2; },
      [](SystemConfig& c) { c.tech.alpha_power *= 2; },
      [](SystemConfig& c) { c.tech.vth += 0.01; },
      [](SystemConfig& c) { c.tech.delay_data_frac *= 2; },
      [](SystemConfig& c) { c.tech.ber_mu += 0.01; },
      [](SystemConfig& c) { c.tech.ber_sigma += 0.01; },
  };
  for (auto lvl :
       {&SystemConfig::l1i, &SystemConfig::l1d, &SystemConfig::l2}) {
    for (auto& m : level_muts(lvl)) muts.push_back(std::move(m));
  }

  const SystemConfig base = SystemConfig::config_a();
  EXPECT_EQ(base, SystemConfig::config_a());
  EXPECT_NE(base, SystemConfig::config_b());
  for (std::size_t k = 0; k < muts.size(); ++k) {
    SystemConfig c = base;
    muts[k](c);
    EXPECT_NE(c, base) << "mutation " << k;
    EXPECT_NE(base, c) << "mutation " << k;
  }
}

}  // namespace
}  // namespace pcs
