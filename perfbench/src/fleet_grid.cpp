// fleet_grid: the 24-point reference grid (sizes 32,64 KB x 2,4,8,16 ways
// x sigmas 0.1426,0.1585,0.1823) over one manufactured fleet through
// PopulationGridEngine::run. Work sits in fault/vecmath sampling and the
// exp histogram/merge; no cache is simulated, so a cache or core change
// should leave this workload's end-to-end numbers unchanged.
#include "exp/population_grid.hpp"
#include "fault/ber_model.hpp"
#include "layers.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr u64 kDies = 24'000;
constexpr u64 kShardChips = 1'000;
constexpr u64 kKernelDies = 1'000;  ///< dies re-driven through the kernels
constexpr u64 kTag = 0xF1EE7;

void digest_population(Digest& d, const pcs::PopulationResult& r) {
  for (const double v : r.grid) d.d(v);
  d.u(r.num_chips);
  d.u(r.unusable);
  d.u(r.no_spcs);
  for (const auto* h : {&r.floor_hist, &r.spcs_hist, &r.capacity_hist,
                        &r.bin_floor_hist}) {
    d.u(h->size());
    for (const u64 c : *h) d.u(c);
  }
}

std::string digest_of(const pcs::PopulationGridResult& g) {
  Digest d;
  for (const auto& p : g.points) {
    d.u(p.size_kb);
    d.u(p.assoc);
    d.d(p.sigma);
    digest_population(d, p.result);
  }
  return d.hex();
}

/// The three exact checks of a finished grid; each failing point is a
/// failed operation.
void grid_oracles(const pcs::PopulationGridSpec& spec,
                  const pcs::PopulationGridResult& g,
                  const pcs::PopulationGridEngine& engine, u64 seed,
                  OpLedger& ops) {
  const std::size_t na = spec.assocs.size();
  const std::size_t ns = spec.sigmas.size();
  for (std::size_t p = 0; p < g.points.size(); ++p) {
    const pcs::PopulationResult& r = g.points[p].result;
    u64 total = r.unusable;
    for (const u64 c : r.floor_hist) total += c;
    if (total != spec.base.num_chips || r.num_chips != spec.base.num_chips) {
      ops.fail("histogram total != die count at point " + std::to_string(p));
    }
    bool vdd_ok = true;
    for (u32 l = 1; l < r.num_levels(); ++l) {
      vdd_ok = vdd_ok && r.viable_at(l) <= r.viable_at(l + 1);
    }
    bool sigma_ok = true;
    if (p % ns != 0) {  // same (size, assoc), next sigma up
      const pcs::PopulationResult& prev = g.points[p - 1].result;
      for (u32 l = 1; l <= r.num_levels(); ++l) {
        sigma_ok = sigma_ok && r.viable_at(l) <= prev.viable_at(l);
      }
    }
    if (!vdd_ok) {
      ops.fail("yield decreases with VDD at point " + std::to_string(p));
    }
    if (!sigma_ok) {
      ops.fail("yield increases with sigma at point " + std::to_string(p));
    }
  }
  // One seeded point re-run as a 1-point grid must be byte-identical.
  pcs::Rng pick(input_seed(seed, kTag, 2));
  const std::size_t p = pick.next_u64() % g.points.size();
  pcs::PopulationGridSpec one = spec;
  one.sizes_kb = {spec.sizes_kb[p / (na * ns)]};
  one.assocs = {spec.assocs[(p / ns) % na]};
  one.sigmas = {spec.sigmas[p % ns]};
  ops.expect("1-point re-run of point " + std::to_string(p), [&] {
    const pcs::PopulationGridResult r1 = engine.run(one);
    Digest a, b;
    digest_population(a, r1.points.at(0).result);
    digest_population(b, g.points[p].result);
    return a.value() == b.value() && r1.points[0].result == g.points[p].result;
  });
}

}  // namespace

Result run_fleet_grid(const Options& o) {
  Result res;
  const pcs::BerModel ber(pcs::Technology::soi45());
  const pcs::PopulationGridEngine engine(ber, o.threads);
  const pcs::PopulationGridSpec spec =
      reference_grid(input_seed(o.seed, kTag, 1), kDies, kShardChips);
  const u64 points = spec.num_points();
  pcs::PopulationGridSpec shard = spec;
  shard.base.num_chips = kShardChips;

  if (!o.trace) {
    pcs::PopulationGridResult first;
    const auto setup = [&] {
      const double t0 = now_s();
      engine.run(shard);
      return now_s() - t0;
    };
    const Measured meas = measure(o.seconds, setup, [&](int i) {
      res.ops.attempt(points);
      pcs::PopulationGridResult g;
      const double t0 = now_s();
      try {
        g = engine.run(spec);
      } catch (const std::exception& e) {
        for (u64 k = 0; k < points; ++k) {
          res.ops.fail(std::string("grid threw: ") + e.what());
        }
      }
      const double dt = now_s() - t0;
      if (i == 0) {
        first = std::move(g);
      } else {
        for (u64 k = 0; k < g.points.size() && k < first.points.size(); ++k) {
          if (!(g.points[k].result == first.points[k].result)) {
            res.ops.fail("pass " + std::to_string(i) + " differs at point " +
                         std::to_string(k));
          }
        }
      }
      return dt;
    });
    if (first.points.size() != points) {
      res.ops.fail("reference pass produced no grid");
    } else {
      grid_oracles(spec, first, engine, o.seed, res.ops);
    }
    const double pass_s = median(meas.pass_s);
    res.metrics["setup_s"] = median(meas.setup_s);
    res.metrics["ops_per_s"] = static_cast<double>(points) / pass_s;
    res.digest = digest_of(first);
    res.info = {{"pass_s", json_list(meas.pass_s)},
                {"setup_runs_s", json_list(meas.setup_s)},
                {"die_points_per_s",
                 json_num(static_cast<double>(kDies * points) / pass_s)}};
    return res;
  }

  // ---- traced run ----------------------------------------------------------
  auto& m = res.metrics;
  const std::vector<double> setup =
      time_runs(kSetupRuns, [&] { engine.run(shard); });
  res.ops.attempt(points);
  double t0 = now_s();
  const pcs::PopulationGridResult g = engine.run(spec);
  const double grid_s = now_s() - t0;
  res.digest = digest_of(g);
  grid_oracles(spec, g, engine, o.seed, res.ops);

  const auto [untraced_grid_s, traced_grid_s] = alternate(
      3,
      [&] {
        const double s0 = now_s();
        engine.run(spec);
        return now_s() - s0;
      },
      [&] {
        pcs::MemoryTraceSink sink;
        res.ops.attempt(points);
        const double s0 = now_s();
        const pcs::PopulationGridResult traced = engine.run(spec, &sink);
        const double dt = now_s() - s0;
        if (digest_of(traced) != res.digest) {
          res.ops.fail("telemetry changed the grid");
        }
        return dt;
      });
  m["telemetry.overhead_pct"] = overhead_pct(traced_grid_s, untraced_grid_s);

  // The engine exposes no per-shard clock: the set-up passes (one-shard
  // runs) give the task times, and busy time is the single-thread engine's
  // time per die times the fleet size.
  m["exp.task_ms_p50"] = quantile(setup, 0.5) * 1e3;
  m["exp.task_ms_p90"] = quantile(setup, 0.9) * 1e3;
  m["exp.steals"] = 0;
  m["exp.max_queue_depth"] = 0;

  // Single-thread engine vs the sample + fold kernels on the same dies.
  pcs::PopulationGridSpec few = spec;
  few.base.num_chips = kKernelDies;
  few.base.chips_per_shard = kKernelDies;
  const pcs::PopulationGridEngine serial(ber, 1);
  const double engine_s = median(time_runs(3, [&] { serial.run(few); }));
  m["exp.parallel_efficiency"] = parallel_efficiency(
      engine_s * static_cast<double>(kDies) / static_cast<double>(kKernelDies),
      grid_s, o.threads);
  // Kernels without clocks vs with clocks and spans, alternated; the last
  // timed run's split is reported.
  SpanLog spans(1);
  FaultKernelTimes k;
  int timed_runs = 0;
  const auto [plain_s, timed_s] = alternate(
      5,
      [&] {
        const double s0 = now_s();
        fault_kernels(few, ber, kKernelDies, false, false);
        return now_s() - s0;
      },
      [&] {
        const double s0 = now_s();
        k = fault_kernels(few, ber, kKernelDies, false, true,
                          ++timed_runs == 5 ? &spans : nullptr);
        return now_s() - s0;
      });
  m["bench.trace_overhead_pct"] = overhead_pct(timed_s, plain_s);
  res.ops.attempt();
  const FaultKernelTimes checked = fault_kernels(few, ber, 8, true, false);
  if (checked.mismatches) {
    res.ops.fail("grid kernels != CellFaultField::sample_fast");
  }
  m["fault.sample_ns_per_block"] = k.sample_ns_per_block();
  m["fault.fold_ns_per_point"] = k.fold_ns_per_point();
  m["exp.grid_other_share"] = uncovered_share(k.sample_s + k.fold_s, engine_s);
  m["fault.field_ms"] = fault_field_ms(o.seed, 5);
  m["fault.vecmath_fast"] = pcs::vecmath::fast_math_active() ? 1 : 0;

  // Simulation layers are bypassed here; report them from the probe.
  for (const auto& [name, v] : probe_sim_layers(o.seed, o.work_dir, res.ops)) {
    m[name] = v;
  }

  char line[512];
  std::snprintf(line, sizeof line,
                "{\"kind\":\"population_grid\",\"chips\":%llu,\"seed\":%llu,"
                "\"shard_chips\":%llu,\"sizes_kb\":\"32,64\","
                "\"assocs\":\"2,4,8,16\",\"sigmas\":\"0.1426,0.1585,0.1823\","
                "\"out\":\"grid.txt\"}",
                static_cast<unsigned long long>(kDies),
                static_cast<unsigned long long>(spec.base.seed),
                static_cast<unsigned long long>(kShardChips));
  m["exp.job_parse_us"] = job_parse_us(line, 2001);

  if (!o.spans_path.empty()) spans.write_jsonl(o.spans_path);
  res.info = {{"spans", std::to_string(spans.size())},
              {"grid_s", json_num(grid_s)},
              {"serial_engine_s", json_num(engine_s)},
              {"kernel_untimed_s", json_num(plain_s)},
              {"kernel_timed_s", json_num(timed_s)}};
  return res;
}

}  // namespace perfbench
