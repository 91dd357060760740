// Differential wall for the lane-parallel sweep engine.
//
// Tier A: ~1M randomized operations driven simultaneously through a
// CacheLaneSweep and through per-lane scalar CacheLevels constructed from
// the same specs. The lane grid samples associativities 1/16/17/24/32 under
// both replacement policies (tree-PLRU where legal) and accumulates random
// faulty-bit patterns, including fully-faulty sets, so the bypass path is
// exercised. Every AccessResult, every stats counter, and the complete
// per-block state must match bit for bit -- the scalar single-config engine
// IS the specification.
//
// Tier B: a small Fig. 4-shaped grid executed by SweepRunner at several
// (thread count x lane count) shapes must reproduce the per-event oracle's
// SimReports exactly (field-wise ==, including the energy breakdowns),
// pinning the block clipping, the measurement windowing, and the shard
// decomposition.
//
// PcsSystem::run against the oracle: synthetic, text and .pcst sources,
// traces that end during warm-up or mid-measurement, a run length that is
// not a multiple of the decode block, and hierarchies whose levels share
// each ReplKind or mix them (the per-call dispatch binding).
#include "exp/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_level.hpp"
#include "core/system.hpp"
#include "system_reference.hpp"
#include "trace/encode.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs {
namespace {

// ---- Tier A -----------------------------------------------------------------

std::vector<CacheLaneSweep::LaneSpec> lane_grid() {
  // size = sets * assoc * 64 with power-of-two sets; odd widths (17, 24)
  // take the wide byte-rank LRU, tree-PLRU only where assoc is 2^k.
  return {
      {"a1-lru", {64 * 1 * 64, 1, 64, 31}, "lru"},
      {"a4-plru", {256 * 4 * 64, 4, 64, 31}, "tree-plru"},
      {"a16-lru", {64 * 16 * 64, 16, 64, 31}, "lru"},
      {"a16-plru", {64 * 16 * 64, 16, 64, 31}, "tree-plru"},
      {"a17-lru", {64 * 17 * 64, 17, 64, 31}, "lru"},
      {"a24-lru", {32 * 24 * 64, 24, 64, 31}, "lru"},
      {"a32-lru", {32 * 32 * 64, 32, 64, 31}, "lru"},
      {"a32-plru", {32 * 32 * 64, 32, 64, 31}, "tree-plru"},
  };
}

/// The scalar half of the differential: applies the op through the public
/// single-config entry points with the same set/way reduction the sweep
/// engine documents.
CacheLevel::AccessResult apply_scalar(CacheLevel& c, const CacheOp& op) {
  switch (op.kind) {
    case CacheOp::Kind::kAccess:
      return c.access(op.addr, op.write);
    case CacheOp::Kind::kWriteback:
      return c.receive_writeback(op.addr);
    case CacheOp::Kind::kSetFaulty:
      c.set_block_faulty(op.set & (c.org().num_sets() - 1),
                         op.way % c.org().assoc, op.faulty);
      return {};
    case CacheOp::Kind::kInvalidate:
      c.invalidate(op.set & (c.org().num_sets() - 1),
                   op.way % c.org().assoc);
      return {};
  }
  return {};
}

CacheOp random_op(Rng& rng, u64 addr_mask) {
  const u64 r = rng.next_u64();
  const u64 pick = r % 100;
  CacheOp op;
  if (pick < 70) {
    op.kind = CacheOp::Kind::kAccess;
    op.addr = (r >> 7) & addr_mask;
    op.write = (r >> 6) & 1;
  } else if (pick < 80) {
    op.kind = CacheOp::Kind::kWriteback;
    op.addr = (r >> 7) & addr_mask;
  } else if (pick < 95) {
    op.kind = CacheOp::Kind::kSetFaulty;
    op.set = (r >> 7) & 0xFFFF;
    op.way = static_cast<u32>(r >> 32) % 32;
    op.faulty = (r >> 6) & 1;
  } else {
    op.kind = CacheOp::Kind::kInvalidate;
    op.set = (r >> 7) & 0xFFFF;
    op.way = static_cast<u32>(r >> 32) % 32;
  }
  return op;
}

/// Marks sets 0 and 1 of every lane fully faulty through the op stream
/// (ways 0..31 reduce onto every way of every lane).
std::vector<CacheOp> all_faulty_prelude() {
  std::vector<CacheOp> ops;
  for (u64 set = 0; set < 2; ++set) {
    for (u32 way = 0; way < 32; ++way) {
      CacheOp op;
      op.kind = CacheOp::Kind::kSetFaulty;
      op.set = set;
      op.way = way;
      op.faulty = true;
      ops.push_back(op);
    }
  }
  return ops;
}

void expect_state_equal(const CacheLevel& got, const CacheLevel& want,
                        const std::string& what) {
  ASSERT_EQ(got.stats(), want.stats()) << what;
  ASSERT_EQ(got.faulty_block_count(), want.faulty_block_count()) << what;
  for (u64 s = 0; s < want.org().num_sets(); ++s) {
    ASSERT_EQ(got.valid_mask(s), want.valid_mask(s)) << what << " set " << s;
    ASSERT_EQ(got.dirty_mask(s), want.dirty_mask(s)) << what << " set " << s;
    ASSERT_EQ(got.faulty_mask(s), want.faulty_mask(s)) << what << " set "
                                                       << s;
    for (u32 w = 0; w < want.org().assoc; ++w) {
      if (!want.is_valid(s, w)) continue;
      ASSERT_EQ(got.block_addr(s, w), want.block_addr(s, w))
          << what << " set " << s << " way " << w;
    }
  }
}

TEST(SweepLanes, MillionMixedOpsMatchScalarPerOp) {
  const auto specs = lane_grid();
  CacheLaneSweep sweep(specs);

  std::vector<CacheLevel> scalar;
  scalar.reserve(specs.size());
  for (const auto& sp : specs) {
    scalar.emplace_back(sp.name, sp.org, 1, sp.replacement);
  }

  // 4x the largest lane so misses, evictions, and writebacks all fire.
  const u64 addr_mask = 4 * 256 * 1024 - 1;
  std::vector<CacheLevel::AccessResult> got(specs.size());

  for (const auto& op : all_faulty_prelude()) {
    sweep.step(op, got.data());
    for (std::size_t i = 0; i < scalar.size(); ++i) apply_scalar(scalar[i], op);
  }
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(sweep.lane(static_cast<u32>(i)).faulty_mask(0),
              scalar[i].way_mask())
        << "set 0 of " << specs[i].name << " should be fully faulty";
  }

  Rng rng(0xC0FFEE);
  const u64 kOps = 1'000'000;
  for (u64 n = 0; n < kOps; ++n) {
    const CacheOp op = random_op(rng, addr_mask);
    sweep.step(op, got.data());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      const auto want = apply_scalar(scalar[i], op);
      ASSERT_EQ(got[i], want)
          << "op " << n << " lane " << specs[i].name;
    }
  }

  for (std::size_t i = 0; i < scalar.size(); ++i) {
    expect_state_equal(sweep.lane(static_cast<u32>(i)), scalar[i],
                       specs[i].name);
  }
}

TEST(SweepLanes, BlockReplayMatchesPerOpStep) {
  const auto specs = lane_grid();
  CacheLaneSweep stepped(specs);
  CacheLaneSweep replayed(specs);

  const u64 addr_mask = 4 * 256 * 1024 - 1;
  Rng rng(0xBADF00D);
  std::vector<CacheOp> block;
  const u64 kOps = 200'000;
  for (u64 n = 0; n < kOps; ++n) {
    const CacheOp op = random_op(rng, addr_mask);
    stepped.step(op);
    block.push_back(op);
    if (block.size() == 333 || n + 1 == kOps) {
      replayed.replay(block.data(), block.size());
      block.clear();
    }
  }
  for (u32 i = 0; i < stepped.num_lanes(); ++i) {
    expect_state_equal(replayed.lane(i), stepped.lane(i), specs[i].name);
  }
}

// ---- Tier B -----------------------------------------------------------------

/// The per-event reference: what run_one computes for each point, one
/// event at a time (reference_run), in grid order.
std::vector<SimReport> run_one_loop(
    const std::vector<ExperimentPoint>& points) {
  std::vector<SimReport> reports;
  for (const auto& p : points) {
    auto trace = make_workload_source(p.workload, p.trace_seed);
    PcsSystem sys(p.config, p.policy, p.chip_seed);
    reports.push_back(reference_run(sys, *trace, p.params));
  }
  return reports;
}

std::vector<ExperimentPoint> small_grid() {
  RunParams rp;
  rp.max_refs = 30'000;
  rp.warmup_refs = 7'500;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_config(SystemConfig::config_b())
      .add_workload("hmmer")
      .add_workload("libquantum")
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kStatic)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  return grid.expand();
}

TEST(SweepSystem, GridReportsMatchScalarRunnerAtAnyShape) {
  const auto points = small_grid();
  const auto want = run_one_loop(points);
  ASSERT_EQ(want.size(), points.size());

  for (const u32 lanes : {1u, 4u, 16u}) {
    for (const u32 threads : {1u, 4u}) {
      SweepOptions opt;
      opt.num_threads = threads;
      opt.max_lanes = lanes;
      const auto got = SweepRunner(opt).run(points);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "point " << i << " (" << want[i].config_name << ", "
            << want[i].workload << ", " << want[i].policy << ") lanes="
            << lanes << " threads=" << threads;
      }
    }
  }
}

TEST(SweepSystem, PerTaskSeedsDegradeToSingleLaneGroups) {
  // Monte-Carlo style grids give every point its own die and trace seed;
  // each group then holds one lane, and the sweep engine must still match
  // run_one exactly, at one thread and across the pool.
  RunParams rp;
  rp.max_refs = 10'000;
  rp.warmup_refs = 2'500;
  std::vector<ExperimentPoint> points;
  for (u64 i = 0; i < 4; ++i) {
    ExperimentPoint p;
    p.index = i;
    p.config = SystemConfig::config_a();
    p.workload = "hmmer";
    p.policy = PolicyKind::kDynamic;
    p.chip_seed = derive_seed(1, 42, i);
    p.trace_seed = derive_seed(42, 1, i);
    p.params = rp;
    points.push_back(std::move(p));
  }
  const auto want = run_one_loop(points);
  // Different dies and streams: the points must not all agree.
  EXPECT_NE(want[0].total_cache_energy(), want[1].total_cache_energy());
  for (const u32 threads : {1u, 8u}) {
    SweepOptions opt;
    opt.num_threads = threads;
    opt.max_lanes = 8;
    const auto got = SweepRunner(opt).run(points);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "point " << i << " threads=" << threads;
    }
  }
}

/// run_shard manufactures one die per (config, chip_seed) among its
/// non-baseline lanes. Lanes below share a chip seed across configs that
/// differ (A vs B, A vs a 4-level A, A vs a 99.9%-yield A), and share a
/// config across different seeds; a die handed to the wrong lane shows up
/// as a report that differs from run_one's, at some lane count.
TEST(SweepSystem, SharedDiesMatchRunOneAtAnyShape) {
  RunParams rp;
  rp.max_refs = 8'000;
  rp.warmup_refs = 2'000;
  SystemConfig a = SystemConfig::config_a();
  SystemConfig a4 = a;
  a4.num_vdd_levels = 4;
  SystemConfig a_yield = a;
  a_yield.yield_target = 0.999;
  const SystemConfig b = SystemConfig::config_b();

  struct Lane {
    const SystemConfig* cfg;
    PolicyKind kind;
    u64 chip_seed;
  };
  const Lane lanes[] = {
      {&a, PolicyKind::kStatic, 5},       {&b, PolicyKind::kStatic, 5},
      {&a4, PolicyKind::kDynamic, 5},     {&a_yield, PolicyKind::kStatic, 5},
      {&a, PolicyKind::kBaseline, 5},     {&a, PolicyKind::kDynamic, 5},
      {&b, PolicyKind::kDynamic, 5},      {&a4, PolicyKind::kStatic, 5},
      {&a_yield, PolicyKind::kDynamic, 5}, {&a, PolicyKind::kDynamic, 6},
      {&a, PolicyKind::kStatic, 7},       {&a, PolicyKind::kDynamic, 7},
  };
  std::vector<ExperimentPoint> points;
  for (const Lane& l : lanes) {
    ExperimentPoint p;
    p.index = points.size();
    p.config = *l.cfg;
    p.workload = "gcc";
    p.policy = l.kind;
    p.chip_seed = l.chip_seed;
    p.trace_seed = 42;
    p.params = rp;
    points.push_back(std::move(p));
  }
  const auto want = run_one_loop(points);

  for (const u32 max_lanes : {1u, 4u, 16u}) {
    for (const u32 threads : {1u, 4u}) {
      SweepOptions opt;
      opt.num_threads = threads;
      opt.max_lanes = max_lanes;
      const auto got = SweepRunner(opt).run(points);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "point " << i << " lanes=" << max_lanes
                                   << " threads=" << threads;
      }
    }
  }
}

// ---- PcsSystem::run vs the per-event oracle --------------------------------

/// Serves the first `limit` events of `inner`: a synthetic stream that
/// ends, read through the default (next()-loop) next_block.
class Truncated final : public TraceSource {
 public:
  Truncated(std::unique_ptr<TraceSource> inner, u64 limit)
      : inner_(std::move(inner)), left_(limit) {}
  bool next(TraceEvent& out) override {
    if (left_ == 0 || !inner_->next(out)) return false;
    --left_;
    return true;
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<TraceSource> inner_;
  u64 left_;
};

using OpenTrace = std::function<std::unique_ptr<TraceSource>()>;

/// One trace in three containers: the synthetic generator cut at `events`,
/// and text and .pcst recordings of the same events.
struct TraceForms {
  std::string text;
  std::string pcst;
  std::vector<std::pair<const char*, OpenTrace>> sources;

  explicit TraceForms(u64 events) {
    const std::string stem = std::string(::testing::TempDir()) +
                             "/oracle_" + std::to_string(events);
    text = stem + ".trace";
    pcst = stem + ".pcst";
    record_trace(*make_spec_trace("gcc", 42), text, events, TraceFormat::kText);
    record_trace(*make_spec_trace("gcc", 42), pcst, events, TraceFormat::kPcst);
    sources = {
        {"synthetic",
         [events] {
           return std::make_unique<Truncated>(make_spec_trace("gcc", 42),
                                              events);
         }},
        {"text", [this] { return open_trace_file(text); }},
        {"pcst", [this] { return open_trace_file(pcst); }},
    };
  }
  ~TraceForms() {
    std::remove(text.c_str());
    std::remove(pcst.c_str());
  }
  TraceForms(const TraceForms&) = delete;
  TraceForms& operator=(const TraceForms&) = delete;
};

/// PcsSystem::run and reference_run on twin systems must report == and
/// leave their traces at the same event.
void expect_run_matches_reference(const SystemConfig& cfg, PolicyKind kind,
                                  const OpenTrace& open, const RunParams& rp,
                                  const std::string& what) {
  PcsSystem sys(cfg, kind, 3);
  PcsSystem ref(cfg, kind, 3);
  auto trace = open();
  auto ref_trace = open();
  EXPECT_EQ(sys.run(*trace, rp), reference_run(ref, *ref_trace, rp)) << what;
  TraceEvent a;
  TraceEvent b;
  const bool more = trace->next(a);
  ASSERT_EQ(more, ref_trace->next(b)) << what;
  if (more) {
    EXPECT_EQ(a.ref.addr, b.ref.addr) << what;
    EXPECT_EQ(a.gap_instructions, b.gap_instructions) << what;
  }
}

RunParams params(u64 warmup, u64 measured) {
  RunParams rp;
  rp.warmup_refs = warmup;
  rp.max_refs = measured;
  return rp;
}

TEST(ReplayOracle, RunMatchesPerEventReferenceAtEveryEdge) {
  struct Case {
    const char* what;
    u64 trace_events;
    RunParams rp;
  };
  const Case cases[] = {
      {"no warm-up", 40'000, params(0, 20'000)},
      {"trace ends during warm-up", 5'000, params(8'000, 10'000)},
      {"trace ends mid-measurement", 12'345, params(5'000, 20'000)},
      {"measured refs not a block multiple", 170'000, params(10'000, 150'001)},
      {"zero-length run", 1'000, params(0, 0)},
  };
  const SystemConfig cfg = SystemConfig::config_a();
  for (const Case& c : cases) {
    const TraceForms forms(c.trace_events);
    for (const auto& [form, open] : forms.sources) {
      for (const PolicyKind kind :
           {PolicyKind::kBaseline, PolicyKind::kStatic, PolicyKind::kDynamic}) {
        expect_run_matches_reference(
            cfg, kind, open, c.rp,
            std::string(c.what) + " / " + form + " / " + to_string(kind));
      }
    }
  }
}

TEST(ReplayOracle, ZeroLengthRunPullsNoEvents) {
  // Counts what run() asks of its source: a zero-length run (the set-up
  // passes of the benchmarks) must not decode, and a short one must ask
  // for no more than its window.
  class Counting final : public TraceSource {
   public:
    bool next(TraceEvent& out) override { return inner_->next(out); }
    u64 next_block(TraceEvent* out, u64 max_events) override {
      ++calls;
      largest = std::max(largest, max_events);
      return inner_->next_block(out, max_events);
    }
    const char* name() const override { return inner_->name(); }
    u64 calls = 0;
    u64 largest = 0;

   private:
    std::unique_ptr<TraceSource> inner_ = make_spec_trace("gcc", 42);
  };
  PcsSystem sys(SystemConfig::config_a(), PolicyKind::kDynamic, 3);
  Counting none;
  const SimReport rep = sys.run(none, params(0, 0));
  EXPECT_EQ(none.calls, 0u);
  EXPECT_EQ(rep.refs, 0u);
  Counting few;
  EXPECT_EQ(sys.run(few, params(10, 20)).refs, 20u);
  EXPECT_EQ(few.calls, 2u);
  EXPECT_EQ(few.largest, 20u);
}

TEST(ReplayOracle, EveryReplacementBindingMatchesPerCallDispatch) {
  using RK = CacheLevel::ReplKind;
  SystemConfig packed = SystemConfig::config_a();
  SystemConfig tree = packed;
  tree.replacement = "tree-plru";
  SystemConfig wide = packed;
  wide.l1i.org.assoc = 32;
  wide.l1d.org.assoc = 32;
  wide.l2.org.assoc = 32;
  // A 32-way L2 takes byte-rank LRU under packed-LRU L1s: the levels
  // disagree, so replay() dispatches per call.
  SystemConfig mixed = packed;
  mixed.l2.org.assoc = 32;
  struct Case {
    const char* what;
    const SystemConfig* cfg;
    RK l1;
    RK l2;
  };
  const Case cases[] = {
      {"packed LRU", &packed, RK::kLruPacked, RK::kLruPacked},
      {"tree-PLRU", &tree, RK::kTreePlru, RK::kTreePlru},
      {"wide LRU", &wide, RK::kLruWide, RK::kLruWide},
      {"mixed kinds", &mixed, RK::kLruPacked, RK::kLruWide},
  };
  const TraceForms forms(60'000);
  const RunParams rp = params(9'000, 50'001);
  for (const Case& c : cases) {
    PcsSystem probe(*c.cfg, PolicyKind::kBaseline, 3);
    ASSERT_EQ(probe.hierarchy().l1d().repl_kind(), c.l1) << c.what;
    ASSERT_EQ(probe.hierarchy().l2().repl_kind(), c.l2) << c.what;
    for (const auto& [form, open] : forms.sources) {
      for (const PolicyKind kind : {PolicyKind::kStatic, PolicyKind::kDynamic}) {
        expect_run_matches_reference(
            *c.cfg, kind, open, rp,
            std::string(c.what) + " / " + form + " / " + to_string(kind));
      }
    }
  }
}

// ---- Fig. 3d kernels --------------------------------------------------------

TEST(SweepYield, PassCountsMatchPerVoltageScans) {
  const auto tech = Technology::soi45();
  const CacheOrg org{64 * 1024, 4, 64, 31};
  BerModel ber(tech);
  const auto chip_vf = chip_fail_voltages_mc(64, 7, ber, org, 1);
  ASSERT_EQ(chip_vf.size(), 64u);

  const std::vector<double> probes = {0.60, 0.625, 0.65, 0.70, 0.75};
  const auto counts = yield_pass_counts(chip_vf, probes);
  ASSERT_EQ(counts.size(), probes.size());
  for (std::size_t k = 0; k < probes.size(); ++k) {
    u64 want = 0;
    for (const float vf : chip_vf) {
      if (probes[k] > vf) ++want;
    }
    EXPECT_EQ(counts[k], want) << "probe " << probes[k];
  }
  // Higher probe voltage can only pass more dies.
  for (std::size_t k = 1; k < counts.size(); ++k) {
    EXPECT_GE(counts[k], counts[k - 1]);
  }
}

TEST(SweepYield, McFailVoltagesAreThreadCountInvariant) {
  const auto tech = Technology::soi45();
  const CacheOrg org{64 * 1024, 4, 64, 31};
  BerModel ber(tech);
  const auto serial = chip_fail_voltages_mc(32, 7, ber, org, 1);
  const auto parallel = chip_fail_voltages_mc(32, 7, ber, org, 4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace pcs
