// fig4_sweep: the paper's headline surface -- configs A,B x the 16
// SPEC-like profiles x baseline/SPCS/DPCS (96 grid points) through
// SweepRunner::run, warm-up = refs/4. Work sits in workload generation,
// cache and core; fault runs only while dies are manufactured in set-up;
// trace decode and the job service are bypassed.
#include <cmath>

#include "exp/sweep_engine.hpp"
#include "layers.hpp"
#include "telemetry/trace_sink.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr u64 kRefsPerPoint = 200'000;  ///< measured refs; warm-up = 1/4
constexpr u64 kTag = 0xF164;
constexpr u64 kOracleSamples = 4;

/// The 96 points in grid order (config-major, profile, then baseline /
/// SPCS / DPCS). Each (config, profile) triple runs on its own die, so a
/// seed's statistics average over 32 dies rather than hinging on one; the
/// three policies of a triple share that die and the profile's trace seed,
/// which lets SweepRunner decode each profile's stream once for its six
/// points.
std::vector<pcs::ExperimentPoint> fig4_points(u64 seed, u64 refs) {
  pcs::RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 4;
  const auto& profiles = pcs::spec_profile_names();
  const pcs::SystemConfig cfgs[2] = {pcs::SystemConfig::config_a(),
                                     pcs::SystemConfig::config_b()};
  std::vector<pcs::ExperimentPoint> pts;
  for (u64 c = 0; c < 2; ++c) {
    for (u64 w = 0; w < profiles.size(); ++w) {
      for (const auto kind : {pcs::PolicyKind::kBaseline,
                              pcs::PolicyKind::kStatic,
                              pcs::PolicyKind::kDynamic}) {
        pcs::ExperimentPoint p;
        p.index = pts.size();
        p.config = cfgs[c];
        p.workload = profiles[w];
        p.policy = kind;
        p.chip_seed = input_seed(seed, kTag, 1000 + c * profiles.size() + w);
        p.trace_seed = input_seed(seed, kTag, w);
        p.params = rp;
        pts.push_back(std::move(p));
      }
    }
  }
  return pts;
}

/// Re-runs a seeded sample of points through run_one, the PcsSystem::run
/// oracle; each mismatch is a failed operation.
void run_one_oracle(const std::vector<pcs::ExperimentPoint>& pts,
                    const std::vector<pcs::SimReport>& reps, u64 seed,
                    unsigned threads, OpLedger& ops) {
  pcs::Rng pick(input_seed(seed, kTag, 3));
  std::vector<u64> idx;
  for (u64 k = 0; k < kOracleSamples; ++k) {
    idx.push_back(pick.next_u64() % pts.size());
  }
  std::vector<char> ok(idx.size(), 0);
  parallel_for(threads, idx.size(), [&](u64 k, unsigned) {
    const pcs::ExperimentPoint& p = pts[idx[k]];
    ok[k] = pcs::run_one(p.config, p.workload, p.policy, p.chip_seed,
                         p.trace_seed, p.params) == reps[idx[k]];
  });
  for (std::size_t k = 0; k < idx.size(); ++k) {
    if (!ok[k]) {
      ops.fail("run_one != SweepRunner at point " + std::to_string(idx[k]));
    }
  }
}

std::string digest_of(const std::vector<pcs::SimReport>& reps) {
  Digest d;
  for (const auto& r : reps) digest_report(d, r);
  return d.hex();
}

/// Piecewise re-drive of every grid point on `threads` workers; `times`
/// (one per worker) null = untimed. Each report must equal the sweep's.
void redrive(const std::vector<pcs::ExperimentPoint>& pts,
             const std::vector<pcs::SimReport>& reps, unsigned threads,
             std::vector<LayerTimes>* times, SpanLog* spans, OpLedger& ops) {
  std::vector<char> ok(pts.size(), 0);
  parallel_for(threads, pts.size(), [&](u64 i, unsigned w) {
    const pcs::ExperimentPoint& p = pts[i];
    LayerTimes* t = times ? &(*times)[w] : nullptr;
    SpanCtx sp{spans, w, 0, i + 1};
    const double s0 = now_s();
    const u64 op_id = spans ? spans->open(w) : 0;
    sp.parent = op_id;
    auto src = pcs::make_workload_source(p.workload, p.trace_seed);
    auto sys = build_system(p.config, p.policy, p.chip_seed, t, sp);
    ok[i] = drive(*sys, *src, p.params, SourceKind::kSynthetic, t, sp) ==
            reps[i];
    if (spans) spans->close(w, op_id, "fig4.point", 0, i + 1, s0, now_s());
  });
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ops.attempt();
    if (!ok[i]) {
      ops.fail("piecewise report != sweep report at point " +
               std::to_string(i));
    }
  }
}

}  // namespace

Result run_fig4_sweep(const Options& o) {
  Result res;
  const std::vector<pcs::ExperimentPoint> pts =
      fig4_points(o.seed, kRefsPerPoint);
  const std::vector<pcs::ExperimentPoint> pts0 = fig4_points(o.seed, 0);
  const u64 n = pts.size();
  pcs::SweepOptions so;
  so.num_threads = o.threads;
  const pcs::SweepRunner runner(so);

  if (!o.trace) {
    std::vector<pcs::SimReport> first;
    const auto setup = [&] {
      const double t0 = now_s();
      runner.run(pts0);
      return now_s() - t0;
    };
    const Measured meas = measure(o.seconds, setup, [&](int i) {
      res.ops.attempt(n);
      std::vector<pcs::SimReport> reps;
      const double t0 = now_s();
      try {
        reps = runner.run(pts);
      } catch (const std::exception& e) {
        for (u64 k = 0; k < n; ++k) {
          res.ops.fail(std::string("sweep threw: ") + e.what());
        }
      }
      const double dt = now_s() - t0;
      if (i == 0) {
        first = std::move(reps);
      } else {
        for (u64 k = 0; k < n && k < reps.size() && k < first.size(); ++k) {
          if (!(reps[k] == first[k])) {
            res.ops.fail("pass " + std::to_string(i) + " differs at point " +
                         std::to_string(k));
          }
        }
      }
      return dt;
    });
    if (first.size() != n) {
      res.ops.fail("reference pass produced no reports");
      first.assign(n, pcs::SimReport{});
    } else {
      run_one_oracle(pts, first, o.seed, o.threads, res.ops);
    }
    const double pass_s = median(meas.pass_s);
    res.metrics["setup_s"] = median(meas.setup_s);
    res.metrics["ops_per_s"] = static_cast<double>(n) / pass_s;
    res.digest = digest_of(first);
    const double refs =
        static_cast<double>(n * (kRefsPerPoint + kRefsPerPoint / 4));
    std::map<std::string, double> model;
    report_metrics(first, model);
    res.info = {{"pass_s", json_list(meas.pass_s)},
                {"setup_runs_s", json_list(meas.setup_s)},
                {"sim_refs_per_s", json_num(refs / pass_s)}};
    for (const auto& [k, v] : model) res.info.emplace_back(k, json_num(v));
    return res;
  }

  // ---- traced run ----------------------------------------------------------
  auto& m = res.metrics;
  pcs::RunnerStats st;
  std::vector<pcs::SimReport> reps;
  double t0 = now_s();
  res.ops.attempt(n);
  reps = runner.run(pts, nullptr, &st);
  const double sweep_s = now_s() - t0;
  res.digest = digest_of(reps);
  run_one_oracle(pts, reps, o.seed, o.threads, res.ops);

  const auto [untraced_sweep_s, traced_sweep_s] = alternate(
      3,
      [&] {
        const double s0 = now_s();
        runner.run(pts);
        return now_s() - s0;
      },
      [&] {
        pcs::MemoryTraceSink sink;
        res.ops.attempt(n);
        const double s0 = now_s();
        const std::vector<pcs::SimReport> traced = runner.run(pts, &sink);
        const double dt = now_s() - s0;
        if (traced != reps) res.ops.fail("telemetry changed the sweep reports");
        return dt;
      });
  m["telemetry.overhead_pct"] = overhead_pct(traced_sweep_s, untraced_sweep_s);

  m["exp.task_ms_p50"] = quantile(st.task_wall_ms, 0.5);
  m["exp.task_ms_p90"] = quantile(st.task_wall_ms, 0.9);
  m["exp.steals"] = static_cast<double>(st.steals);
  m["exp.max_queue_depth"] = static_cast<double>(st.max_queue_depth);
  m["exp.parallel_efficiency"] =
      parallel_efficiency(st.wall_ms_total / 1e3, sweep_s, st.threads);
  m["exp.grid_other_share"] = 0.0;

  t0 = now_s();
  redrive(pts, reps, o.threads, nullptr, nullptr, res.ops);
  const double plain_s = now_s() - t0;
  std::vector<LayerTimes> times(o.threads);
  SpanLog spans(o.threads);
  t0 = now_s();
  redrive(pts, reps, o.threads, &times, &spans, res.ops);
  const double probed_s = now_s() - t0;
  m["bench.trace_overhead_pct"] = overhead_pct(probed_s, plain_s);
  LayerTimes t;
  for (const auto& w : times) t.merge(w);

  // Trace-layer numbers come from the probe: this surface decodes no .pcst.
  const auto probe = probe_sim_layers(o.seed, o.work_dir, res.ops);
  for (const char* k : {"trace.decode_ns_per_event", "trace.open_ms",
                        "trace.bytes_per_event"}) {
    m[k] = probe.at(k);
  }
  m["workload.gen_ns_per_event"] = t.gen_ns_per_event();
  m["cache.step_ns_per_ref"] = t.step_ns_per_ref();
  m["core.tick_ns_per_ref"] = t.tick_ns_per_ref();
  m["core.transitions"] = static_cast<double>(t.transitions);
  m["core.transition_us"] = t.transition_us();
  m["core.build_ms"] = median(t.build_ms);
  report_metrics(reps, m);
  fault_probe(o.seed, 64, res);

  const pcs::ExperimentPoint& p0 = pts[0];
  char line[512];
  std::snprintf(line, sizeof line,
                "{\"kind\":\"sim\",\"config\":\"%s\",\"policy\":\"%s\","
                "\"workload\":\"%s\",\"refs\":%llu,\"chip_seed\":%llu,"
                "\"trace_seed\":%llu,\"csv\":true,\"out\":\"point0.csv\"}",
                p0.config.name.c_str(), "baseline", p0.workload.c_str(),
                static_cast<unsigned long long>(kRefsPerPoint),
                static_cast<unsigned long long>(p0.chip_seed),
                static_cast<unsigned long long>(p0.trace_seed));
  m["exp.job_parse_us"] = job_parse_us(line, 2001);

  if (!o.spans_path.empty()) spans.write_jsonl(o.spans_path);
  res.info = {{"spans", std::to_string(spans.size())},
              {"sweep_s", json_num(sweep_s)},
              {"redrive_untimed_s", json_num(plain_s)},
              {"redrive_timed_s", json_num(probed_s)}};
  return res;
}

}  // namespace perfbench
