// serve_replay: a closed-loop batch of trace_replay jobs fed to
// JobService::serve through an in-memory stream. One .pcst per SPEC-like
// profile (L1-resident through L2-overflowing working sets) is recorded from
// the seed while inputs are generated; every file is replayed under both
// configs and all three policies, one PcsSystem per job fed by the .pcst
// decoder. Each job manufactures its own die, so fault and core.build cost
// counts against throughput here rather than only in set-up.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/job_service.hpp"
#include "layers.hpp"
#include "trace/encode.hpp"
#include "trace/workload_source.hpp"
#include "workload/spec_profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr u64 kRefsPerJob = 200'000;  ///< measured refs; warm-up = 1/4
constexpr u64 kTag = 0x5E7E;

struct JobDesc {
  std::string id;
  std::string profile;
  std::string file;
  u64 rec_seed = 0;
  pcs::SystemConfig config;
  pcs::PolicyKind kind = pcs::PolicyKind::kBaseline;
  u64 chip_seed = 0;
  std::string out;
};

struct Inputs {
  std::vector<std::string> files;
  std::vector<JobDesc> jobs;
  u64 events_per_file = 0;
};

const char* policy_key(pcs::PolicyKind k) {
  return k == pcs::PolicyKind::kBaseline ? "baseline"
         : k == pcs::PolicyKind::kStatic ? "spcs"
                                         : "dpcs";
}

Inputs make_inputs(u64 seed, const std::string& dir) {
  Inputs in;
  in.events_per_file = kRefsPerJob + kRefsPerJob / 4;
  const auto& profiles = pcs::spec_profile_names();
  const pcs::SystemConfig cfgs[2] = {pcs::SystemConfig::config_a(),
                                     pcs::SystemConfig::config_b()};
  for (u64 p = 0; p < profiles.size(); ++p) {
    const u64 rec_seed = input_seed(seed, kTag, p);
    const std::string file = dir + "/rec-" + profiles[p] + ".pcst";
    const auto src = pcs::make_workload_source(profiles[p], rec_seed);
    pcs::record_trace(*src, file, in.events_per_file, pcs::TraceFormat::kPcst);
    in.files.push_back(file);
    for (const auto& cfg : cfgs) {
      for (const auto kind : {pcs::PolicyKind::kBaseline,
                              pcs::PolicyKind::kStatic,
                              pcs::PolicyKind::kDynamic}) {
        JobDesc j;
        char id[32];
        std::snprintf(id, sizeof id, "j%03zu", in.jobs.size());
        j.id = id;
        j.profile = profiles[p];
        j.file = file;
        j.rec_seed = rec_seed;
        j.config = cfg;
        j.kind = kind;
        // The three policies of a (file, config) share a die, so their
        // energy comparison is like for like.
        j.chip_seed = input_seed(seed, kTag + 1, in.jobs.size() / 3);
        j.out = dir + "/" + j.id + ".csv";
        in.jobs.push_back(j);
      }
    }
  }
  return in;
}

/// The job stream: one trace_replay line per job. `refs` 0 gives the
/// zero-length set-up pass; `trace_dir` non-empty adds per-job telemetry.
std::string job_lines(const Inputs& in, u64 refs, const std::string& suffix,
                      const std::string& trace_dir = "") {
  std::string s;
  for (const JobDesc& j : in.jobs) {
    s += "{\"kind\":\"trace_replay\",\"id\":" + json_str(j.id) +
         ",\"file\":" + json_str(j.file) + ",\"config\":" +
         json_str(j.config.name) + ",\"policy\":\"" + policy_key(j.kind) +
         "\",\"refs\":" + std::to_string(refs) +
         ",\"chip_seed\":" + std::to_string(j.chip_seed) +
         ",\"csv\":true,\"out\":" + json_str(j.out + suffix);
    if (!trace_dir.empty()) {
      s += ",\"trace\":" + json_str(trace_dir + "/" + j.id + ".jsonl");
    }
    s += "}\n";
  }
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct Served {
  std::vector<pcs::JobOutcome> outcomes;
  double seconds = 0;  ///< host time of JobService::serve alone
};

/// Serves `lines`, counting every job as an operation and a job that is
/// not ok as a failed one; when `outputs` is set, collects each job's
/// output bytes. The output files are then removed, so the next pass
/// creates them afresh as a new batch would: rewriting them in place
/// trips ext4's flush-on-truncate and adds disk-dependent stalls that are
/// not the service's own cost.
Served serve(const Inputs& in, const std::string& lines, unsigned threads,
             const std::string& suffix, std::vector<std::string>* outputs,
             OpLedger& ops) {
  pcs::JobService svc(threads);
  std::istringstream is(lines);
  std::ostringstream log;
  Served s;
  const double t0 = now_s();
  s.outcomes = svc.serve(is, log);
  s.seconds = now_s() - t0;
  if (outputs) outputs->assign(in.jobs.size(), "");
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const bool ok = i < s.outcomes.size() && s.outcomes[i].ok;
    ops.attempt();
    const std::string path = in.jobs[i].out + suffix;
    if (outputs) (*outputs)[i] = read_file(path);
    std::filesystem::remove(path);
    if (!ok) {
      ops.fail("job " + in.jobs[i].id + " not ok: " +
               (i < s.outcomes.size() ? s.outcomes[i].error : "missing"));
    }
  }
  return s;
}

pcs::RunParams job_params() {
  pcs::RunParams rp;
  rp.max_refs = kRefsPerJob;
  rp.warmup_refs = kRefsPerJob / 4;
  return rp;
}

/// Every job's bytes must equal run_one on the synthetic profile with the
/// recording seed, rendered as the job renders. Returns the run_one reports.
std::vector<pcs::SimReport> run_one_oracle(
    const Inputs& in, const std::vector<std::string>& outputs,
    unsigned threads, OpLedger& ops) {
  std::vector<pcs::SimReport> reps(in.jobs.size());
  std::vector<char> ok(in.jobs.size(), 0);
  parallel_for(threads, in.jobs.size(), [&](u64 i, unsigned) {
    const JobDesc& j = in.jobs[i];
    reps[i] = pcs::run_one(j.config, j.profile, j.kind, j.chip_seed,
                           j.rec_seed, job_params());
    ok[i] = render_sim_csv({reps[i]}, j.config.clock_ghz) == outputs[i];
  });
  for (std::size_t i = 0; i < ok.size(); ++i) {
    if (!ok[i]) ops.fail("job " + in.jobs[i].id + " output != run_one");
  }
  return reps;
}

std::string digest_of(const std::vector<std::string>& outputs) {
  Digest d;
  for (const auto& s : outputs) d.s(s);
  return d.hex();
}

/// Piecewise re-drive of every job; each rendered report must equal the
/// job's output bytes.
void redrive(const Inputs& in, const std::vector<std::string>& outputs,
             unsigned threads, std::vector<LayerTimes>* times, SpanLog* spans,
             std::vector<pcs::SimReport>* reps, OpLedger& ops) {
  std::vector<char> ok(in.jobs.size(), 0);
  if (reps) reps->assign(in.jobs.size(), pcs::SimReport{});
  parallel_for(threads, in.jobs.size(), [&](u64 i, unsigned w) {
    const JobDesc& j = in.jobs[i];
    LayerTimes* t = times ? &(*times)[w] : nullptr;
    SpanCtx sp{spans, w, 0, i + 1};
    const double s0 = now_s();
    sp.parent = spans ? spans->open(w) : 0;
    auto sys = build_system(j.config, j.kind, j.chip_seed, t, sp);
    const auto src = pcs::open_trace_file(j.file);
    const pcs::SimReport r =
        drive(*sys, *src, job_params(), SourceKind::kPcst, t, sp);
    ok[i] = render_sim_csv({r}, j.config.clock_ghz) == outputs[i];
    if (reps) (*reps)[i] = r;
    if (spans) spans->close(w, sp.parent, "serve.job", 0, i + 1, s0, now_s());
  });
  for (std::size_t i = 0; i < ok.size(); ++i) {
    ops.attempt();
    if (!ok[i]) ops.fail("piecewise report != job output for " + in.jobs[i].id);
  }
}

}  // namespace

Result run_serve_replay(const Options& o) {
  Result res;
  const Inputs in = make_inputs(o.seed, o.work_dir);
  const std::string lines = job_lines(in, kRefsPerJob, "");
  const std::string setup_lines = job_lines(in, 0, ".setup");
  const u64 n = in.jobs.size();

  if (!o.trace) {
    std::vector<std::string> first;
    const Measured meas = measure(
        o.seconds,
        [&] {
          return serve(in, setup_lines, o.threads, ".setup", nullptr, res.ops)
              .seconds;
        },
        [&](int i) {
          std::vector<std::string> outputs;
          const double dt =
              serve(in, lines, o.threads, "", &outputs, res.ops).seconds;
          if (i == 0) {
            first = std::move(outputs);
          } else {
            for (u64 k = 0; k < n; ++k) {
              if (outputs[k] != first[k]) {
                res.ops.fail("pass " + std::to_string(i) + " differs for " +
                             in.jobs[k].id);
              }
            }
          }
          return dt;
        });
    const std::vector<pcs::SimReport> reps =
        run_one_oracle(in, first, o.threads, res.ops);
    const double pass_s = median(meas.pass_s);
    res.metrics["setup_s"] = median(meas.setup_s);
    res.metrics["ops_per_s"] = static_cast<double>(n) / pass_s;
    res.digest = digest_of(first);
    std::map<std::string, double> model;
    report_metrics(reps, model);
    res.info = {{"pass_s", json_list(meas.pass_s)},
                {"setup_runs_s", json_list(meas.setup_s)},
                {"sim_refs_per_s",
                 json_num(static_cast<double>(n * in.events_per_file) /
                          pass_s)}};
    for (const auto& [k, v] : model) res.info.emplace_back(k, json_num(v));
    return res;
  }

  // ---- traced run ----------------------------------------------------------
  auto& m = res.metrics;
  std::vector<std::string> outputs;
  const Served served = serve(in, lines, o.threads, "", &outputs, res.ops);
  const std::vector<pcs::JobOutcome>& outs = served.outcomes;
  const double serve_s = served.seconds;
  res.digest = digest_of(outputs);
  run_one_oracle(in, outputs, o.threads, res.ops);

  std::vector<double> job_ms;
  double busy_ms = 0;
  for (const auto& oc : outs) {
    job_ms.push_back(oc.wall_ms);
    busy_ms += oc.wall_ms;
  }
  m["exp.task_ms_p50"] = quantile(job_ms, 0.5);
  m["exp.task_ms_p90"] = quantile(job_ms, 0.9);
  m["exp.parallel_efficiency"] =
      parallel_efficiency(busy_ms / 1e3, serve_s, o.threads);
  m["exp.steals"] = 0;
  m["exp.max_queue_depth"] = 0;
  m["exp.grid_other_share"] = 0;

  // Per-job telemetry files vs none, alternated; outputs must not change.
  const std::string trace_dir = o.work_dir + "/telemetry";
  const std::string traced_lines =
      job_lines(in, kRefsPerJob, ".traced", trace_dir);
  const auto [untraced_s, traced_s] = alternate(
      3,
      [&] { return serve(in, lines, o.threads, "", nullptr, res.ops).seconds; },
      [&] {
        std::filesystem::create_directories(trace_dir);
        std::vector<std::string> traced_outputs;
        const double dt = serve(in, traced_lines, o.threads, ".traced",
                                &traced_outputs, res.ops)
                              .seconds;
        if (traced_outputs != outputs) {
          res.ops.fail("telemetry changed job outputs");
        }
        std::filesystem::remove_all(trace_dir);
        return dt;
      });
  m["telemetry.overhead_pct"] = overhead_pct(traced_s, untraced_s);

  std::vector<double> parse;
  for (std::size_t pos = 0; pos < lines.size();) {
    const std::size_t end = lines.find('\n', pos);
    parse.push_back(job_parse_us(lines.substr(pos, end - pos), 21));
    pos = end + 1;
  }
  m["exp.job_parse_us"] = median(parse);

  std::vector<double> open_ms;
  double bytes = 0;
  for (const auto& f : in.files) {
    open_ms.push_back(trace_open_ms(f, 3));
    bytes += static_cast<double>(std::filesystem::file_size(f));
  }
  m["trace.open_ms"] = median(open_ms);
  m["trace.bytes_per_event"] =
      bytes / static_cast<double>(in.files.size() * in.events_per_file);

  double t0 = now_s();
  redrive(in, outputs, o.threads, nullptr, nullptr, nullptr, res.ops);
  const double plain_s = now_s() - t0;
  std::vector<LayerTimes> times(o.threads);
  SpanLog spans(o.threads);
  std::vector<pcs::SimReport> reps;
  t0 = now_s();
  redrive(in, outputs, o.threads, &times, &spans, &reps, res.ops);
  const double probed_s = now_s() - t0;
  m["bench.trace_overhead_pct"] = overhead_pct(probed_s, plain_s);
  LayerTimes t;
  for (const auto& w : times) t.merge(w);
  // Input generation (the recording source) is timed apart: it is not on
  // this workload's measured path.
  for (std::size_t f = 0; f < in.files.size(); ++f) {
    const JobDesc& j = in.jobs[f * in.jobs.size() / in.files.size()];
    time_generation(j.profile, j.rec_seed, in.events_per_file, t);
  }
  m["workload.gen_ns_per_event"] = t.gen_ns_per_event();
  m["trace.decode_ns_per_event"] = t.decode_ns_per_event();
  m["cache.step_ns_per_ref"] = t.step_ns_per_ref();
  m["core.tick_ns_per_ref"] = t.tick_ns_per_ref();
  m["core.transitions"] = static_cast<double>(t.transitions);
  m["core.transition_us"] = t.transition_us();
  m["core.build_ms"] = median(t.build_ms);
  report_metrics(reps, m);
  fault_probe(o.seed, 64, res);

  if (!o.spans_path.empty()) spans.write_jsonl(o.spans_path);
  res.info = {{"spans", std::to_string(spans.size())},
              {"serve_s", json_num(serve_s)},
              {"redrive_untimed_s", json_num(plain_s)},
              {"redrive_timed_s", json_num(probed_s)}};
  return res;
}

}  // namespace perfbench
