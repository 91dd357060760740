// Population runs: the fleet-scale determinism contract through the
// population job path (a singleton grid on PopulationGridEngine -- merged
// results, report bytes and telemetry are invariant to thread count and
// shard size, and match the serial per-die reference), checkpoint/resume,
// the per-chip binning kernel against the dense FaultMap reference, the
// rung-bucketing and prefix-fold kernels against their oracles, and the
// histogram-derived statistics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "exp/job_service.hpp"
#include "exp/population_engine.hpp"
#include "exp/population_grid.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/ber_model.hpp"
#include "fault/fault_map.hpp"
#include "population_reference.hpp"
#include "tech/technology.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

PopulationSpec small_spec(u64 chips) {
  PopulationSpec spec;
  spec.org.size_bytes = 16 * 1024;  // 256 blocks: fast enough for 100s of dies
  spec.num_chips = chips;
  spec.seed = 99;
  return spec;
}

// ---------------------------------------------------------------------------
// Grid ladder

TEST(PopulationSpec, GridCoversLoToHiInclusive) {
  const PopulationSpec spec;  // 0.45 .. 1.00 step 0.01
  const std::vector<Volt> g = spec.grid();
  ASSERT_EQ(g.size(), 56u);
  EXPECT_NEAR(g.front(), 0.45, 1e-12);
  EXPECT_NEAR(g.back(), 1.00, 1e-6);
  for (std::size_t i = 1; i < g.size(); ++i) {
    EXPECT_NEAR(g[i] - g[i - 1], 0.01, 1e-9);
  }
}

TEST(PopulationSpec, GridRejectsDegenerateLadders) {
  PopulationSpec spec;
  spec.grid_step = 0.0;
  EXPECT_THROW(spec.grid(), std::invalid_argument);
  spec.grid_step = -0.01;
  EXPECT_THROW(spec.grid(), std::invalid_argument);
  spec.grid_step = 0.01;
  spec.grid_lo = 1.10;  // above grid_hi: empty ladder
  EXPECT_THROW(spec.grid(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// bin_chip vs the dense FaultMap reference

TEST(BinChip, MatchesDenseFaultMapReference) {
  const PopulationSpec spec = small_spec(0);
  const std::vector<Volt> grid = spec.grid();
  const BerModel ber(Technology::soi45());
  const u32 n = static_cast<u32>(grid.size());

  for (u64 die = 0; die < 25; ++die) {
    Rng rng(derive_seed(spec.seed, 0, die));
    CellFaultField field = CellFaultField::sample_fast(
        ber, spec.org.num_blocks(), spec.org.bits_per_block(), rng);
    const FaultMap fm(grid, field, spec.org.assoc);

    u32 ref_floor = 0;
    for (u32 l = 1; l <= n; ++l) {
      if (fm.viable(spec.org.assoc, l)) {
        ref_floor = l;
        break;
      }
    }
    const u32 ref_spcs =
        fm.lowest_level_with_capacity(spec.org.assoc, spec.spcs_min_capacity);

    const ChipBinPoint p =
        bin_chip(field, spec.org, grid, spec.spcs_min_capacity);
    EXPECT_EQ(p.floor_level, ref_floor) << "die " << die;
    if (ref_floor != 0) {
      EXPECT_EQ(p.spcs_level, ref_spcs) << "die " << die;
      const double cap = fm.effective_capacity(ref_floor);
      const u32 ref_bin = std::min(
          static_cast<u32>(cap * kPopulationCapacityBins),
          kPopulationCapacityBins - 1);
      EXPECT_EQ(p.capacity_bin, ref_bin) << "die " << die;
      EXPECT_GE(p.spcs_level, p.floor_level) << "die " << die;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-die kernels vs their test oracles (population_reference.hpp)

/// Every value the rung bucketing must agree with upper_bound on: each rung
/// (as float) and its float neighbours, signed zeros, negatives, values
/// beyond both ends, infinities, NaNs, plus one real die's fail voltages.
std::vector<float> rung_probe_values(const std::vector<Volt>& grid) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> vs = {0.0f,
                           -0.0f,
                           -0.25f,
                           -1.0f,
                           kInf,
                           -kInf,
                           kNaN,
                           -kNaN,
                           std::numeric_limits<float>::denorm_min(),
                           std::numeric_limits<float>::max(),
                           std::numeric_limits<float>::lowest(),
                           static_cast<float>(grid.front()) - 0.3f,
                           static_cast<float>(grid.front()) - 1e-3f,
                           static_cast<float>(grid.back()) + 1e-3f,
                           static_cast<float>(grid.back()) + 5.0f};
  for (const Volt g : grid) {
    const float f = static_cast<float>(g);
    vs.push_back(f);
    vs.push_back(std::nextafter(f, kInf));
    vs.push_back(std::nextafter(f, -kInf));
  }
  Rng rng(derive_seed(2024, 0, 0));
  const CellFaultField field = CellFaultField::sample_fast(
      BerModel(Technology::soi45()), 1024, 512, rng);
  vs.insert(vs.end(), field.fail_voltages().begin(),
            field.fail_voltages().end());
  return vs;
}

std::vector<Volt> ladder_of(Volt lo, Volt hi, Volt step) {
  PopulationSpec spec;
  spec.grid_lo = lo;
  spec.grid_hi = hi;
  spec.grid_step = step;
  return spec.grid();
}

TEST(CountFailRungs, MatchesUpperBoundOracleOnEveryLadderAndEdgeValue) {
  const std::vector<std::pair<const char*, std::vector<Volt>>> ladders = {
      {"default 56-rung", PopulationSpec{}.grid()},
      {"1-rung", ladder_of(0.70, 0.704, 0.01)},
      {"lo == hi", ladder_of(0.62, 0.62, 0.01)},
      {"non-uniform", {0.30, 0.31, 0.50, 0.50, 0.53, 0.90, 1.20}},
  };
  ASSERT_EQ(ladders[0].second.size(), 56u);
  ASSERT_EQ(ladders[1].second.size(), 1u);
  ASSERT_EQ(ladders[2].second.size(), 1u);
  for (const auto& [name, grid] : ladders) {
    const std::vector<float> vs = rung_probe_values(grid);
    const std::size_t size = grid.size() + 2;
    for (const float v : vs) {
      std::vector<u64> got(size, 0), want(size, 0);
      count_fail_rungs(std::span<const float>(&v, 1), grid, got);
      test::reference_count_fail_rungs(std::span<const float>(&v, 1), grid,
                                       want);
      ASSERT_EQ(got, want) << name << " ladder, v=" << v;
    }
    std::vector<u64> got(size, 0), want(size, 0);
    count_fail_rungs(vs, grid, got);
    test::reference_count_fail_rungs(vs, grid, want);
    EXPECT_EQ(got, want) << name << " ladder, all values at once";
  }
}

TEST(ChipFailVoltagePrefixes, EachSnapshotIsThatPrefixsFold) {
  Rng rng(31);
  for (const u32 assoc : {1u, 2u, 3u, 4u, 16u, 24u, 32u}) {
    const std::vector<u64> set_ends = {0, 1, 7, 32, 32, 33, 96};
    std::vector<float> vf(static_cast<std::size_t>(set_ends.back()) * assoc);
    for (float& v : vf) v = static_cast<float>(0.3 + 0.8 * rng.uniform());
    std::vector<float> snap(set_ends.size(), -1.0f);
    max_min_fold_prefixes<float>(vf, assoc, set_ends, 2.0f, 0.0f, snap);
    for (std::size_t p = 0; p < set_ends.size(); ++p) {
      const std::span<const float> prefix(
          vf.data(), static_cast<std::size_t>(set_ends[p]) * assoc);
      const float one = chip_fail_voltage(prefix, assoc);
      const float ref = test::reference_chip_fail_voltage(prefix, assoc);
      EXPECT_EQ(std::bit_cast<u32>(snap[p]), std::bit_cast<u32>(one))
          << "assoc " << assoc << " prefix " << set_ends[p];
      EXPECT_EQ(std::bit_cast<u32>(snap[p]), std::bit_cast<u32>(ref))
          << "assoc " << assoc << " prefix " << set_ends[p];
    }
  }
}

// ---------------------------------------------------------------------------
// The determinism contract, through the population job path (a singleton
// grid on PopulationGridEngine -- chip_binning's and the service's run path)

PopulationJobSpec small_job(u64 chips) {
  PopulationJobSpec job;
  job.spec = small_spec(chips);
  return job;
}

PopulationResult run_job(const PopulationJobSpec& job, u32 threads,
                         TraceSink* trace = nullptr,
                         const CheckpointHook& hook = {}) {
  std::ostringstream report;
  return run_population_job(job, report, threads, trace, hook);
}

std::string job_report(const PopulationJobSpec& job, u32 threads) {
  std::ostringstream report;
  run_population_job(job, report, threads);
  return report.str();
}

TEST(PopulationJob, RunsAsASingletonGrid) {
  PopulationJobSpec job = small_job(10);
  job.spec.org.assoc = 8;
  PopulationGridSpec grid = population_job_grid(job);
  EXPECT_EQ(grid.sizes_kb, (std::vector<u64>{16}));
  EXPECT_EQ(grid.assocs, (std::vector<u32>{8}));
  EXPECT_TRUE(grid.sigmas.empty());  // sigma 0 = the soi45 calibration
  EXPECT_EQ(grid.num_points(), 1u);
  job.sigma = 0.1823;
  grid = population_job_grid(job);
  EXPECT_EQ(grid.sigmas, (std::vector<Volt>{0.1823}));
  job.spec.org.size_bytes += 512;  // not a whole number of KB
  EXPECT_THROW(population_job_grid(job), std::invalid_argument);
}

TEST(PopulationJob, ResultInvariantToThreadCountAndShardSize) {
  PopulationJobSpec job = small_job(300);
  const PopulationResult reference =
      test::serial_population(BerModel(Technology::soi45()), job.spec);

  struct Case {
    u32 threads;
    u64 shard_chips;
  };
  for (const Case c : {Case{1, 17}, Case{3, 101}, Case{8, 4096}}) {
    job.spec.chips_per_shard = c.shard_chips;
    EXPECT_EQ(run_job(job, c.threads), reference)
        << c.threads << " threads, " << c.shard_chips << " chips/shard";
  }
}

TEST(PopulationJob, TelemetryBytesInvariantToThreadCount) {
  PopulationJobSpec job = small_job(200);
  job.spec.chips_per_shard = 64;  // 4 shards (3 full + 1 partial of 8 chips)

  std::string bytes[2];
  const u32 threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    std::ostringstream out;
    JsonlTraceSink sink(out);
    run_job(job, threads[i], &sink);
    bytes[i] = out.str();
  }
  EXPECT_EQ(bytes[0], bytes[1]);

  // One population_grid_point record for the single point, counting every
  // chip exactly once.
  MemoryTraceSink mem;
  const PopulationResult r = run_job(job, 1, &mem);
  ASSERT_EQ(mem.records().size(), 1u);
  const TraceRecord& rec = mem.records()[0];
  EXPECT_STREQ(rec.type(), "population_grid_point");
  ASSERT_EQ(rec.fields().size(), 7u);
  EXPECT_STREQ(rec.fields()[0].key, "point");
  EXPECT_EQ(std::get<u64>(rec.fields()[0].value), 0u);
  EXPECT_STREQ(rec.fields()[1].key, "size_kb");
  EXPECT_EQ(std::get<u64>(rec.fields()[1].value), 16u);
  EXPECT_STREQ(rec.fields()[2].key, "assoc");
  EXPECT_EQ(std::get<u64>(rec.fields()[2].value), 4u);
  EXPECT_STREQ(rec.fields()[3].key, "sigma");
  EXPECT_EQ(std::get<double>(rec.fields()[3].value),
            Technology::soi45().ber_sigma);
  EXPECT_STREQ(rec.fields()[4].key, "chips");
  EXPECT_EQ(std::get<u64>(rec.fields()[4].value), 200u);
  EXPECT_STREQ(rec.fields()[5].key, "unusable");
  EXPECT_EQ(std::get<u64>(rec.fields()[5].value), r.unusable);
  EXPECT_STREQ(rec.fields()[6].key, "no_spcs");
  EXPECT_EQ(std::get<u64>(rec.fields()[6].value), r.no_spcs);
}

TEST(PopulationJob, ReportBytesInvariantToThreadCountAndShardSize) {
  PopulationJobSpec job = small_job(250);
  const std::string ref = job_report(job, 1);
  EXPECT_NE(ref.find("fleet yield vs VDD:"), std::string::npos);
  EXPECT_NE(ref.find("SPCS bins"), std::string::npos);

  for (const u64 shard_chips : {17u, 101u, 4096u}) {
    job.spec.chips_per_shard = shard_chips;
    for (const u32 threads : {1u, 8u}) {
      EXPECT_EQ(job_report(job, threads), ref)
          << threads << " threads, " << shard_chips << " chips/shard";
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram bookkeeping

TEST(PopulationJob, HistogramTotalsAreConsistent) {
  const PopulationResult r = run_job(small_job(400), 2);

  EXPECT_EQ(r.num_chips, 400u);
  u64 floors = 0, spcs = 0, caps = 0, joint = 0;
  for (const u64 c : r.floor_hist) floors += c;
  for (const u64 c : r.spcs_hist) spcs += c;
  for (const u64 c : r.capacity_hist) caps += c;
  for (const u64 c : r.bin_floor_hist) joint += c;
  EXPECT_EQ(floors, r.usable());
  EXPECT_EQ(caps, r.usable());
  EXPECT_EQ(spcs + r.no_spcs, r.usable());
  EXPECT_EQ(joint, spcs);
  EXPECT_EQ(r.viable_at(r.num_levels()), r.usable());
  // Yield is a CDF: non-decreasing in the ladder level.
  for (u32 l = 2; l <= r.num_levels(); ++l) {
    EXPECT_GE(r.yield_at(l), r.yield_at(l - 1));
  }
  // The sweep must find real dies on the default soi45 ladder.
  EXPECT_GT(r.usable(), 0u);
}

TEST(PopulationJob, LadderBelowEveryFailVoltageYieldsNothing) {
  PopulationJobSpec job = small_job(50);
  job.spec.grid_lo = 0.05;  // far below any soi45 cell fail voltage
  job.spec.grid_hi = 0.10;
  const PopulationResult r = run_job(job, 1);
  EXPECT_EQ(r.unusable, 50u);
  EXPECT_EQ(r.usable(), 0u);
  for (const u64 c : r.capacity_hist) EXPECT_EQ(c, 0u);
  EXPECT_EQ(r.yield_at(r.num_levels()), 0.0);
}

TEST(PopulationJob, ZeroChipsProducesEmptyResultAndAnEmptyPointRecord) {
  MemoryTraceSink mem;
  const PopulationResult r = run_job(small_job(0), 4, &mem);
  EXPECT_EQ(r.num_chips, 0u);
  EXPECT_EQ(r.usable(), 0u);
  EXPECT_EQ(r, make_empty_population_result(small_spec(0).grid()));
  ASSERT_EQ(mem.records().size(), 1u);
  EXPECT_STREQ(mem.records()[0].fields()[4].key, "chips");
  EXPECT_EQ(std::get<u64>(mem.records()[0].fields()[4].value), 0u);
}

// ---------------------------------------------------------------------------
// Derived statistics on hand-built histograms

TEST(PopulationResult, MeanAndQuantilesUseCountRanks) {
  PopulationResult r;
  r.grid = {0.5, 0.6, 0.7};
  const std::vector<u64> hist = {1, 2, 1};  // ranks: 1 | 2 3 | 4
  EXPECT_NEAR(r.mean_vdd(hist), 0.6, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.5), 0.6, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.75), 0.6, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.76), 0.7, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 1.0), 0.7, 1e-12);
  const std::vector<u64> empty = {0, 0, 0};
  EXPECT_EQ(r.mean_vdd(empty), 0.0);
  EXPECT_EQ(r.quantile_vdd(empty, 0.5), 0.0);
}

TEST(PopulationResult, MergeRejectsGridMismatch) {
  const PopulationJobSpec job = small_job(10);
  PopulationResult a = run_job(job, 1);
  PopulationJobSpec other = job;
  other.spec.grid_step = 0.02;
  const PopulationResult b = run_job(other, 1);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard-range checkpoint / resume

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Collects the watermark of every sidecar write: which shards a run
/// actually merged (a resumed run saves only past its starting watermark).
struct SaveLog {
  std::vector<u64> watermarks;
  CheckpointHook hook() {
    return [this](u64 done) { watermarks.push_back(done); };
  }
};

/// Runs a job's singleton grid directly on the engine with strict resume,
/// which the job schema does not expose.
PopulationResult run_strict(const PopulationJobSpec& job) {
  const BerModel ber(Technology::soi45());
  CheckpointOptions ckpt;
  ckpt.path = job.checkpoint;
  ckpt.resume = true;
  ckpt.strict_resume = true;
  return PopulationGridEngine(ber, 1)
      .run(population_job_grid(job), nullptr, &ckpt)
      .points.front()
      .result;
}

TEST(PopulationJob, CheckpointRoundTripsAndResumesByteIdentically) {
  PopulationJobSpec job = small_job(200);
  job.spec.chips_per_shard = 32;  // 7 shards (last one short)
  const PopulationResult full = run_job(job, 1);
  const std::string full_report = job_report(job, 1);

  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck.txt";
  std::remove(path.c_str());

  // Interrupt after the second sidecar write, then resume: the merged
  // histograms and the rendered report must be byte-identical, and the
  // resumed run must merge exactly the shards past the watermark.
  job.checkpoint = path;
  job.checkpoint_shards = 2;
  struct StopRun {};
  EXPECT_THROW(run_job(job, 1, nullptr,
                       [](u64 done) {
                         if (done == 4) throw StopRun{};
                       }),
               StopRun);

  job.resume = true;
  SaveLog resumed_saves;
  std::ostringstream resumed_report;
  const PopulationResult resumed = run_population_job(
      job, resumed_report, 1, nullptr, resumed_saves.hook());
  EXPECT_EQ(resumed, full);
  EXPECT_EQ(resumed_report.str(), full_report);
  // Shards 4, 5, 6 only: one cadence save at 6, the final save at 7.
  EXPECT_EQ(resumed_saves.watermarks, (std::vector<u64>{6, 7}));

  // A second resume of a finished run re-runs nothing.
  SaveLog none;
  EXPECT_EQ(run_job(job, 1, nullptr, none.hook()), full);
  EXPECT_TRUE(none.watermarks.empty());
  std::remove(path.c_str());
}

TEST(PopulationJob, StrictResumeRefusesMismatchedSpecOrCorruptSidecar) {
  PopulationJobSpec job = small_job(64);
  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck_bad.txt";
  std::remove(path.c_str());
  job.checkpoint = path;
  run_job(job, 1);

  PopulationJobSpec other = job;
  other.spec.num_chips += 1;
  EXPECT_THROW(run_strict(other), std::runtime_error);
  // A sigma change is also a different run (the fingerprint covers the
  // fault model, not just the spec fields).
  PopulationJobSpec wider = job;
  wider.sigma = Technology::soi45().ber_sigma * 1.15;
  EXPECT_THROW(run_strict(wider), std::runtime_error);

  spit_file(path, "pcs-population-checkpoint v1\nfingerprint 1\n");
  EXPECT_THROW(run_strict(job), std::runtime_error);

  // A missing sidecar is not an error: the run simply starts fresh.
  std::remove(path.c_str());
  EXPECT_EQ(run_strict(job), run_job(small_job(64), 1));
  std::remove(path.c_str());
}

// Default (non-strict) resume: every sidecar rejection path falls back to
// a clean start whose result and report are byte-identical to an
// uninterrupted run, and the next save overwrites the bad sidecar.
TEST(PopulationJob, RejectedSidecarFallsBackToCleanStart) {
  PopulationJobSpec job = small_job(64);
  job.spec.chips_per_shard = 16;  // 4 shards
  const PopulationResult fresh = run_job(job, 1);
  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck_fallback.txt";
  std::remove(path.c_str());

  job.checkpoint = path;
  job.checkpoint_shards = 1;
  run_job(job, 1);
  const std::string valid = slurp_file(path);
  ASSERT_NE(valid.find("points 1"), std::string::npos);
  job.resume = true;

  // Fingerprint mismatch: the sidecar belongs to `job`, the run is for a
  // different seed. All four shards re-run; the save log proves it.
  PopulationJobSpec other = job;
  other.spec.seed += 1;
  PopulationJobSpec other_plain = other;
  other_plain.checkpoint.clear();
  const PopulationResult other_fresh = run_job(other_plain, 1);
  SaveLog saves;
  EXPECT_EQ(run_job(other, 1, nullptr, saves.hook()), other_fresh);
  EXPECT_EQ(saves.watermarks, (std::vector<u64>{1, 2, 3, 4}));

  // Shape mismatch: same fingerprint, wrong point count.
  std::string reshaped = valid;
  reshaped.replace(reshaped.find("points 1"), 8, "points 2");
  spit_file(path, reshaped);
  EXPECT_EQ(run_job(job, 1), fresh);

  // Truncated sidecar (mid-file cut), then outright garbage.
  spit_file(path, valid.substr(0, valid.size() / 2));
  std::ostringstream after_truncated;
  EXPECT_EQ(run_population_job(job, after_truncated, 1), fresh);
  spit_file(path, "not a checkpoint\n");
  EXPECT_EQ(run_job(job, 1), fresh);

  // Watermark past the end of the run (a sidecar from a longer run).
  std::string overrun = valid;
  const std::size_t wm = overrun.find("shards_done ");
  ASSERT_NE(wm, std::string::npos);
  overrun.replace(wm, overrun.find('\n', wm) - wm, "shards_done 99");
  spit_file(path, overrun);
  EXPECT_EQ(run_job(job, 1), fresh);

  // The fallback run's report is byte-identical to the uninterrupted one,
  // and the rejected sidecar was overwritten by a valid final save.
  PopulationJobSpec plain = job;
  plain.checkpoint.clear();
  plain.resume = false;
  EXPECT_EQ(after_truncated.str(), job_report(plain, 1));
  EXPECT_EQ(slurp_file(path), valid);
  std::remove(path.c_str());
}

// Sidecars written before population jobs ran as singleton grids carry a
// `population|v1` fingerprint. They can never match the grid fingerprint,
// so a lenient resume warns and starts clean; a strict one refuses.
TEST(PopulationJob, OldPopulationSidecarFallsBackToCleanStart) {
  PopulationJobSpec job = small_job(64);
  job.spec.chips_per_shard = 16;  // 4 shards
  const PopulationResult fresh = run_job(job, 1);
  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck_v1.txt";

  // The old single-design canonical string, field for field.
  const PopulationSpec& s = job.spec;
  const Technology tech = Technology::soi45();
  char canon[512];
  std::snprintf(canon, sizeof canon,
                "population|v1|mu=%.17g|sigma=%.17g|size=%llu|assoc=%u|"
                "block=%u|chips=%llu|seed=%llu|lo=%.17g|hi=%.17g|step=%.17g|"
                "mincap=%.17g|shard=%llu",
                tech.ber_mu, tech.ber_sigma,
                static_cast<unsigned long long>(s.org.size_bytes),
                s.org.assoc, s.org.block_bytes,
                static_cast<unsigned long long>(s.num_chips),
                static_cast<unsigned long long>(s.seed), s.grid_lo, s.grid_hi,
                s.grid_step, s.spcs_min_capacity,
                static_cast<unsigned long long>(s.chips_per_shard));
  // Half the run marked done with nothing merged: accepting this sidecar
  // would lose two shards of dies.
  const PopulationResult empty = make_empty_population_result(s.grid());
  const auto write_old_sidecar = [&] {
    save_population_checkpoint(path, population_fingerprint(canon), 2,
                               std::span<const PopulationResult>(&empty, 1));
  };

  write_old_sidecar();
  job.checkpoint = path;
  job.resume = true;
  ::testing::internal::CaptureStderr();
  const PopulationResult resumed = run_job(job, 1);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(resumed, fresh);
  EXPECT_NE(warning.find("checkpoint sidecar rejected, starting fresh"),
            std::string::npos)
      << warning;
  EXPECT_NE(warning.find("fingerprint mismatch"), std::string::npos);

  write_old_sidecar();
  EXPECT_THROW(run_strict(job), std::runtime_error);
  std::remove(path.c_str());
}

// The grid engine shares the loader and must fall back the same way.
TEST(PopulationGridEngine, RejectedSidecarFallsBackToCleanStart) {
  PopulationGridSpec spec;
  spec.base = small_spec(48);
  spec.base.chips_per_shard = 16;
  spec.sizes_kb = {16, 32};
  spec.assocs = {4};
  spec.sigmas = {1.0};
  const BerModel ber(Technology::soi45());
  PopulationGridEngine engine(ber, 1);
  const PopulationGridResult fresh = engine.run(spec);

  const std::string path =
      std::string(::testing::TempDir()) + "pcs_grid_ck_fallback.txt";
  std::remove(path.c_str());
  CheckpointOptions ckpt;
  ckpt.path = path;
  engine.run(spec, nullptr, &ckpt);

  ckpt.resume = true;
  spit_file(path, "not a checkpoint\n");
  const PopulationGridResult resumed = engine.run(spec, nullptr, &ckpt);
  ASSERT_EQ(resumed.points.size(), fresh.points.size());
  for (std::size_t i = 0; i < fresh.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i].result, fresh.points[i].result);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcs
