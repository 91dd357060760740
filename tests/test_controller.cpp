// Unit tests for the PCS controller glue (interval detection, transition
// execution, energy bookkeeping).
#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dynamic_policy.hpp"
#include "core/static_policy.hpp"
#include "core/system.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs {
namespace {

const CacheOrg kL1{512, 2, 64, 31};  // 4 sets x 2 ways
const std::vector<Volt> kLevels = {0.6, 0.7, 1.0};

struct Rig {
  Hierarchy hier;
  CpuModel cpu;

  explicit Rig()
      : hier([] {
          HierarchyConfig c;
          c.l1i = kL1;
          c.l1d = kL1;
          c.l2 = {32 * 1024, 4, 64, 31};
          return c;
        }()),
        cpu(hier, 1.0) {}
};

/// Policy scripted to request a fixed sequence of levels.
class ScriptedPolicy final : public PcsPolicy {
 public:
  explicit ScriptedPolicy(std::vector<u32> seq) : seq_(std::move(seq)) {}
  u32 on_interval(const PolicyInput& in) override {
    if (pos_ >= seq_.size()) return in.current_level;
    return seq_[pos_++];
  }
  const char* name() const override { return "scripted"; }

 private:
  std::vector<u32> seq_;
  std::size_t pos_ = 0;
};

std::unique_ptr<PcsMechanism> make_mech(CacheLevel& cache,
                                        std::vector<float> vf) {
  FaultMap map(kLevels, std::span<const float>(vf));
  return std::make_unique<PcsMechanism>(cache, std::move(map),
                                        VddLadder{kLevels, 2}, 2, 40);
}

EnergyMeter make_meter(Volt vdd, double gated) {
  CachePowerModel model(Technology::soi45(), kL1, MechanismSpec::pcs(3));
  return EnergyMeter(model, 1e9, vdd, gated);
}

TEST(Controller, BaselineAccountsDynamicEnergy) {
  Rig rig;
  CachePowerModel model(Technology::soi45(), kL1, MechanismSpec::baseline());
  PcsController ctl(rig.hier.l1d(), rig.cpu, EnergyMeter(model, 1e9, 1.0, 0.0));
  rig.hier.access({0x0000, false, false});
  rig.hier.access({0x0000, false, false});
  ctl.tick();
  ctl.finalize();
  // 2 demand accesses + 1 fill.
  EXPECT_NEAR(ctl.meter().dynamic_energy(),
              3 * model.dynamic_access_energy(1.0), 1e-15);
  EXPECT_EQ(ctl.current_level(), 0u);
  EXPECT_EQ(ctl.mechanism(), nullptr);
}

TEST(Controller, PolicyEvaluatedAtIntervalBoundary) {
  Rig rig;
  auto& cache = rig.hier.l1d();
  auto mech = make_mech(cache, std::vector<float>(8, 0.f));
  auto policy = std::make_unique<ScriptedPolicy>(std::vector<u32>{1});
  PcsController ctl(cache, rig.hier, rig.cpu, std::move(mech),
                    std::move(policy), make_meter(0.7, 0.0), 10);
  // 9 accesses: below the interval, no transition yet.
  for (int i = 0; i < 9; ++i) {
    rig.hier.access({0x0000, false, false});
    ctl.tick();
  }
  EXPECT_EQ(ctl.current_level(), 2u);
  rig.hier.access({0x0000, false, false});
  ctl.tick();
  EXPECT_EQ(ctl.current_level(), 1u);
  EXPECT_EQ(ctl.pcs_stats().transitions, 1u);
}

TEST(Controller, TransitionChargesStallAndEnergy) {
  Rig rig;
  auto& cache = rig.hier.l1d();
  auto mech = make_mech(cache, std::vector<float>(8, 0.f));
  auto policy = std::make_unique<ScriptedPolicy>(std::vector<u32>{1});
  PcsController ctl(cache, rig.hier, rig.cpu, std::move(mech),
                    std::move(policy), make_meter(0.7, 0.0), 5);
  const Cycle before = rig.cpu.cycles();
  for (int i = 0; i < 5; ++i) {
    rig.hier.access({u64(i) * 64, false, false});
    ctl.tick();
  }
  // Penalty = 2*4 sets + 40 settle = 48 cycles.
  EXPECT_EQ(rig.cpu.stats().stall_cycles, 48u);
  EXPECT_EQ(rig.cpu.cycles(), before + 48);  // accesses bypass the CPU here
  EXPECT_GT(ctl.meter().transition_energy(), 0.0);
}

TEST(Controller, TransitionWritebacksRoutedBelow) {
  Rig rig;
  auto& cache = rig.hier.l1d();
  // Block (set 0, way 1) becomes faulty at level 1.
  std::vector<float> vf(8, 0.f);
  vf[1] = 0.65f;
  auto mech = make_mech(cache, std::move(vf));
  auto policy = std::make_unique<ScriptedPolicy>(std::vector<u32>{1});
  PcsController ctl(cache, rig.hier, rig.cpu, std::move(mech),
                    std::move(policy), make_meter(0.7, 0.0), 2);
  // Dirty data into both ways of set 0 (stride = 4 sets * 64 = 256).
  rig.hier.access({0x0000, true, false});
  ctl.tick();
  rig.hier.access({0x0100, true, false});
  ctl.tick();  // interval of 2 -> transition to level 1, flushing way 1
  EXPECT_EQ(ctl.pcs_stats().transition_writebacks, 1u);
  EXPECT_EQ(rig.hier.l2().stats().writebacks_in, 1u);
}

TEST(Controller, ResetMeasurementZeroesMeters) {
  Rig rig;
  auto& cache = rig.hier.l1d();
  auto mech = make_mech(cache, std::vector<float>(8, 0.f));
  auto policy = std::make_unique<StaticPolicy>(2);
  PcsController ctl(cache, rig.hier, rig.cpu, std::move(mech),
                    std::move(policy), make_meter(0.7, 0.0), 100);
  rig.hier.access({0x0000, false, false});
  rig.cpu.add_stall(1000);
  ctl.tick();
  ctl.finalize();
  EXPECT_GT(ctl.meter().total_energy(), 0.0);
  ctl.reset_measurement();
  EXPECT_EQ(ctl.meter().total_energy(), 0.0);
  EXPECT_EQ(ctl.pcs_stats().transitions, 0u);
}

TEST(Controller, LevelResidencyTracked) {
  Rig rig;
  auto& cache = rig.hier.l1d();
  auto mech = make_mech(cache, std::vector<float>(8, 0.f));
  auto policy = std::make_unique<ScriptedPolicy>(std::vector<u32>{1, 1});
  PcsController ctl(cache, rig.hier, rig.cpu, std::move(mech),
                    std::move(policy), make_meter(0.7, 0.0), 3);
  for (int i = 0; i < 9; ++i) {
    rig.cpu.add_stall(100);  // advance time so residency accrues
    rig.hier.access({0x0000, false, false});
    ctl.tick();
  }
  ctl.finalize();
  const auto& st = ctl.pcs_stats();
  EXPECT_GT(st.cycles_at_level[2], 0u);
  EXPECT_GT(st.cycles_at_level[1], 0u);
  EXPECT_EQ(st.cycles_at_level[2] + st.cycles_at_level[1], rig.cpu.cycles());
}

u64 field_u64(const TraceRecord& rec, const char* key) {
  for (const auto& f : rec.fields()) {
    if (std::string(f.key) == key) return std::get<u64>(f.value);
  }
  ADD_FAILURE() << "record has no field " << key;
  return 0;
}

std::string field_str(const TraceRecord& rec, const char* key) {
  for (const auto& f : rec.fields()) {
    if (std::string(f.key) == key) return std::get<std::string>(f.value);
  }
  return "";
}

TEST(Controller, IntervalRecordsAreStatsDeltasIncludingOvershoot) {
  // DPCS on the L2 with one-access windows. L1D set 0 is fully faulty, so
  // a store to it bypasses L1 and reaches L2 twice in one reference (the
  // demand fill, then the store itself): that window overshoots to 2.
  for (const u64 interval : {1u, 2u, 3u}) {
    Rig rig;
    CacheLevel& l2 = rig.hier.l2();
    const CacheOrg l2_org = l2.org();
    FaultMap map(kLevels, std::span<const float>(
                              std::vector<float>(l2_org.num_blocks(), 0.f)));
    auto mech = std::make_unique<PcsMechanism>(l2, std::move(map),
                                               VddLadder{kLevels, 2}, 2, 40);
    DpcsParams dp;
    dp.interval_accesses = interval;
    dp.transition_penalty = mech->transition_penalty();
    auto policy = std::make_unique<DpcsPolicy>(dp, 2);
    CachePowerModel model(Technology::soi45(), l2_org, MechanismSpec::pcs(3));
    PcsController ctl(l2, rig.hier, rig.cpu, std::move(mech),
                      std::move(policy), EnergyMeter(model, 1e9, 0.7, 0.0),
                      interval);
    MemoryTraceSink sink;
    ctl.set_trace(&sink);
    for (u32 w = 0; w < kL1.assoc; ++w) {
      rig.hier.l1d().set_block_faulty(0, w, true);
    }

    Rng rng(interval);
    u64 at_close_accesses = 0;
    u64 at_close_misses = 0;
    u64 sum_accesses = 0;
    u64 sum_misses = 0;
    u64 overshoots = 0;
    std::size_t seen = 0;
    for (int i = 0; i < 4000; ++i) {
      // Every fifth reference is a store to L1D set 0 (addresses 256 B
      // apart share it); the rest spread over 64 KB, twice L2's size.
      const bool bypass_store = i % 5 == 0;
      const u64 addr = bypass_store ? rng.uniform_int(256) * 256
                                    : rng.uniform_int(1024) * 64;
      const u64 before = l2.stats().accesses;
      rig.hier.access({addr, bypass_store || rng.uniform_int(4) == 0, false});
      ctl.tick();
      const auto& recs = sink.records();
      for (; seen < recs.size(); ++seen) {
        const TraceRecord& rec = recs[seen];
        if (std::string(rec.type()) != "interval") continue;
        ASSERT_EQ(field_str(rec, "cache"), "L2");
        const u64 acc = field_u64(rec, "accesses");
        const u64 mis = field_u64(rec, "misses");
        EXPECT_EQ(acc, l2.stats().accesses - at_close_accesses) << "ref " << i;
        EXPECT_EQ(mis, l2.stats().misses - at_close_misses) << "ref " << i;
        EXPECT_GE(acc, interval);
        // The window closes at the first reference that fills it.
        EXPECT_LT(before - at_close_accesses, interval) << "ref " << i;
        if (acc > interval) ++overshoots;
        at_close_accesses = l2.stats().accesses;
        at_close_misses = l2.stats().misses;
        sum_accesses += acc;
        sum_misses += mis;
      }
    }
    EXPECT_GT(overshoots, 0u) << "interval " << interval;
    // Closed windows plus the open one account for every access and miss.
    EXPECT_EQ(sum_accesses + (l2.stats().accesses - at_close_accesses),
              l2.stats().accesses);
    EXPECT_EQ(sum_misses + (l2.stats().misses - at_close_misses),
              l2.stats().misses);
    if (interval == 1) {
      EXPECT_EQ(sum_accesses, l2.stats().accesses);
    }
  }
}

TEST(Controller, OneAccessWindowsSumToTheRunTotals) {
  // Every level under DPCS with one-access windows and no warm-up: each
  // reference closes a window at every level it touched, so the interval
  // records of a run add up to its reported accesses and misses.
  SystemConfig cfg = SystemConfig::config_a();
  cfg.l1i.dpcs_interval = 1;
  cfg.l1d.dpcs_interval = 1;
  cfg.l2.dpcs_interval = 1;
  PcsSystem sys(cfg, PolicyKind::kDynamic, 7);
  MemoryTraceSink sink;
  sys.set_trace(&sink);
  RunParams rp;
  rp.warmup_refs = 0;
  rp.max_refs = 6'000;
  auto trace = make_spec_trace("mcf", 3);
  const SimReport rep = sys.run(*trace, rp);

  struct Sum {
    u64 accesses = 0;
    u64 misses = 0;
  };
  Sum l1i, l1d, l2;
  for (const TraceRecord& rec : sink.records()) {
    if (std::string(rec.type()) != "interval") continue;
    const std::string cache = field_str(rec, "cache");
    Sum& s = cache == "L1I" ? l1i : cache == "L1D" ? l1d : l2;
    s.accesses += field_u64(rec, "accesses");
    s.misses += field_u64(rec, "misses");
  }
  EXPECT_EQ(l1i.accesses, rep.l1i.accesses);
  EXPECT_EQ(l1i.misses, rep.l1i.misses);
  EXPECT_EQ(l1d.accesses, rep.l1d.accesses);
  EXPECT_EQ(l1d.misses, rep.l1d.misses);
  EXPECT_EQ(l2.accesses, rep.l2.accesses);
  EXPECT_EQ(l2.misses, rep.l2.misses);
  EXPECT_GT(l2.accesses, 0u);
}

}  // namespace
}  // namespace pcs
