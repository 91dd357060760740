#include <filesystem>

#include "core/config.hpp"
#include "exp/job_service.hpp"
#include "fault/ber_model.hpp"
#include "layers.hpp"
#include "trace/encode.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"
#include "workload/spec_profiles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Paper reference values (Fig. 4 averages over both configs and the 16
/// benchmarks) behind the model.*_err_pp metrics.
constexpr double kPaperSpcsSavingPct = 54.9;
constexpr double kPaperDpcsSavingPct = 69.6;

/// Cache-energy saving and execution-time overhead of one (config,
/// workload) triple, in percent of the baseline run.
struct PolicyDelta {
  double spcs_saving_pct = 0;
  double dpcs_saving_pct = 0;
  double dpcs_overhead_pct = 0;
};

PolicyDelta policy_delta(const pcs::SimReport& base,
                         const pcs::SimReport& spcs,
                         const pcs::SimReport& dpcs) {
  PolicyDelta p;
  const double eb = base.total_cache_energy();
  p.spcs_saving_pct = (1.0 - spcs.total_cache_energy() / eb) * 100.0;
  p.dpcs_saving_pct = (1.0 - dpcs.total_cache_energy() / eb) * 100.0;
  p.dpcs_overhead_pct = (static_cast<double>(dpcs.cycles) /
                             static_cast<double>(base.cycles) -
                         1.0) *
                        100.0;
  return p;
}

}  // namespace

Measured measure(double seconds, const std::function<double()>& setup,
                 const std::function<double(int)>& pass) {
  Measured m;
  int i = 0;
  const double warm0 = now_s();
  do {
    pass(i++);
  } while (now_s() - warm0 < kWarmupSeconds);
  for (int k = 0; k < kSetupRuns; ++k) m.setup_s.push_back(setup());
  const double start = now_s();
  while (m.pass_s.size() < kMinPasses || now_s() - start < seconds) {
    m.pass_s.push_back(pass(i++));
  }
  return m;
}

std::vector<double> time_runs(int reps, const std::function<void()>& fn) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    out.push_back(now_s() - t0);
  }
  return out;
}

std::pair<double, double> alternate(int reps, const std::function<double()>& a,
                                    const std::function<double()>& b) {
  std::vector<double> ta, tb;
  for (int i = 0; i < reps; ++i) {
    ta.push_back(a());
    tb.push_back(b());
  }
  return {median(ta), median(tb)};
}

u64 input_seed(u64 seed, u64 tag, u64 index) {
  return pcs::derive_seed(seed, tag, index) & ((u64{1} << 52) - 1);
}

std::map<std::string, double> probe_sim_layers(u64 seed,
                                              const std::string& dir,
                                              OpLedger& ops) {
  const auto& profiles = pcs::spec_profile_names();
  const std::string profile = profiles[seed % profiles.size()];
  const u64 trace_seed = input_seed(seed, 0x9B0BE, 1);
  const u64 chip_seed = input_seed(seed, 0x9B0BE, 2);
  pcs::RunParams rp;
  rp.max_refs = 160'000;
  rp.warmup_refs = rp.max_refs / 4;
  const u64 events = rp.max_refs + rp.warmup_refs;
  const std::string path = dir + "/probe.pcst";

  LayerTimes t;
  time_generation(profile, trace_seed, events, t);
  {
    const auto src = pcs::make_workload_source(profile, trace_seed);
    pcs::record_trace(*src, path, events, pcs::TraceFormat::kPcst);
  }
  std::map<std::string, double> m;
  m["trace.open_ms"] = trace_open_ms(path, 7);
  m["trace.bytes_per_event"] =
      static_cast<double>(std::filesystem::file_size(path)) /
      static_cast<double>(events);

  const pcs::SystemConfig cfg = pcs::SystemConfig::config_a();
  const pcs::PolicyKind kinds[3] = {pcs::PolicyKind::kBaseline,
                                    pcs::PolicyKind::kStatic,
                                    pcs::PolicyKind::kDynamic};
  std::vector<pcs::SimReport> reps;
  for (const pcs::PolicyKind kind : kinds) {
    ops.attempt();
    auto sys = build_system(cfg, kind, chip_seed, &t);
    const auto src = pcs::open_trace_file(path);
    reps.push_back(drive(*sys, *src, rp, SourceKind::kPcst, &t));
    const pcs::SimReport& r = reps.back();
    ops.expect("probe replay == run_one", [&] {
      return r == pcs::run_one(cfg, profile, kind, chip_seed, trace_seed, rp);
    });
  }
  std::filesystem::remove(path);

  report_metrics(reps, m);
  m["workload.gen_ns_per_event"] = t.gen_ns_per_event();
  m["trace.decode_ns_per_event"] = t.decode_ns_per_event();
  m["cache.step_ns_per_ref"] = t.step_ns_per_ref();
  m["core.tick_ns_per_ref"] = t.tick_ns_per_ref();
  m["core.transitions"] = static_cast<double>(t.transitions);
  m["core.transition_us"] = t.transition_us();
  m["core.build_ms"] = median(t.build_ms);
  return m;
}

void report_metrics(const std::vector<pcs::SimReport>& reps,
                    std::map<std::string, double>& m) {
  PolicyDelta sum;
  const std::size_t triples = reps.size() / 3;
  for (std::size_t t = 0; t < triples; ++t) {
    const PolicyDelta d =
        policy_delta(reps[3 * t], reps[3 * t + 1], reps[3 * t + 2]);
    sum.spcs_saving_pct += d.spcs_saving_pct;
    sum.dpcs_saving_pct += d.dpcs_saving_pct;
    sum.dpcs_overhead_pct += d.dpcs_overhead_pct;
  }
  u64 l1d_miss = 0, l1d_acc = 0, l2_miss = 0, l2_acc = 0;
  for (const auto& r : reps) {
    l1d_miss += r.l1d.misses;
    l1d_acc += r.l1d.accesses;
    l2_miss += r.l2.misses;
    l2_acc += r.l2.accesses;
  }
  const double n = static_cast<double>(triples);
  m["model.spcs_saving_err_pp"] =
      std::abs(sum.spcs_saving_pct / n - kPaperSpcsSavingPct);
  m["model.dpcs_saving_err_pp"] =
      std::abs(sum.dpcs_saving_pct / n - kPaperDpcsSavingPct);
  m["model.dpcs_overhead_pct"] = sum.dpcs_overhead_pct / n;
  m["cache.l1d_miss_rate"] =
      static_cast<double>(l1d_miss) / static_cast<double>(l1d_acc);
  m["cache.l2_miss_rate"] =
      static_cast<double>(l2_miss) / static_cast<double>(l2_acc);
}

double job_parse_us(const std::string& line, int reps) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    pcs::parse_job_line(line);
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

void fault_probe(u64 seed, u64 dies, Result& r) {
  const pcs::BerModel ber(pcs::Technology::soi45());
  const pcs::PopulationGridSpec spec =
      reference_grid(input_seed(seed, 0xFA017, 1), dies, dies);
  r.ops.attempt();
  const FaultKernelTimes k = fault_kernels(spec, ber, dies, true, true);
  if (k.mismatches) r.ops.fail("grid kernels != CellFaultField::sample_fast");
  r.metrics["fault.sample_ns_per_block"] = k.sample_ns_per_block();
  r.metrics["fault.fold_ns_per_point"] = k.fold_ns_per_point();
  r.metrics["fault.field_ms"] = fault_field_ms(seed, 5);
  r.metrics["fault.vecmath_fast"] = pcs::vecmath::fast_math_active() ? 1 : 0;
}

}  // namespace perfbench
