// perfbench: end-to-end simulator benchmark with per-layer attribution.
//
//   perfbench --workload fig4_sweep|fleet_grid|serve_replay [--seed N]
//             [--seconds S] [--trace 0|1] [--work-dir DIR] [--git-sha SHA]
//
// Prints an info line (host fingerprint, simulated-output digest, extra
// figures) and, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 re-drives the workload with per-call probes and
// reports the per-layer metrics. Exit code 0 iff the run completed (a
// failed oracle is reported as correct=false, not as an exit code).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "util/vecmath.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"}};

constexpr MetricDef kPerLayer[] = {
    {"workload.gen_ns_per_event", "ns"},
    {"trace.decode_ns_per_event", "ns"},
    {"trace.open_ms", "ms"},
    {"trace.bytes_per_event", "B"},
    {"cache.step_ns_per_ref", "ns"},
    {"cache.l1d_miss_rate", "ratio"},
    {"cache.l2_miss_rate", "ratio"},
    {"core.tick_ns_per_ref", "ns"},
    {"core.transitions", "count"},
    {"core.transition_us", "us"},
    {"core.build_ms", "ms"},
    {"fault.field_ms", "ms"},
    {"fault.sample_ns_per_block", "ns"},
    {"fault.fold_ns_per_point", "ns"},
    {"fault.vecmath_fast", "bool"},
    {"exp.parallel_efficiency", "ratio"},
    {"exp.task_ms_p50", "ms"},
    {"exp.task_ms_p90", "ms"},
    {"exp.steals", "count"},
    {"exp.max_queue_depth", "count"},
    {"exp.grid_other_share", "ratio"},
    {"exp.job_parse_us", "us"},
    {"telemetry.overhead_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
    {"model.spcs_saving_err_pp", "pp"},
    {"model.dpcs_saving_err_pp", "pp"},
    {"model.dpcs_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig4_sweep|fleet_grid|serve_replay [--seed N] [--seconds S] "
               "[--trace 0|1] [--work-dir DIR] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

u64 parse_u64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || v[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return x;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  o.threads = std::min(4u, host_threads());
  o.work_dir = ".bench_build/perfbench-work";
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_u64("--seed", v);
    } else if (a == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds >= 0.0)) {
        usage("bad value for --seconds");
      }
    } else if (a == "--trace") {
      const u64 t = parse_u64("--trace", v);
      if (t > 1) usage("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }

  Result (*run)(const Options&) = nullptr;
  if (o.workload == "fig4_sweep") run = run_fig4_sweep;
  if (o.workload == "fleet_grid") run = run_fleet_grid;
  if (o.workload == "serve_replay") run = run_serve_replay;
  if (run == nullptr) usage("unknown --workload");

  // Each run gets its own working directory, removed at exit.
  const std::string base = o.work_dir;
  o.work_dir = base + "/" + o.workload + "-" + std::to_string(o.seed) + "-" +
               (o.trace ? "t" : "u");
  std::filesystem::remove_all(o.work_dir);
  std::filesystem::create_directories(o.work_dir);
  if (o.trace) {
    o.spans_path = base + "/spans-" + o.workload + "-" +
                   std::to_string(o.seed) + ".jsonl";
  }

  Result r;
  try {
    r = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    std::filesystem::remove_all(o.work_dir);
    return 1;
  }
  std::filesystem::remove_all(o.work_dir);
  if (!o.trace) r.metrics["peak_rss_mb"] = peak_rss_mb();

  std::string info = "{\"perfbench\":{\"workload\":" + json_str(o.workload) +
                     ",\"seed\":" + std::to_string(o.seed) +
                     ",\"trace\":" + (o.trace ? "1" : "0") +
                     ",\"threads\":" + std::to_string(o.threads) +
                     ",\"seconds\":" + json_num(o.seconds) +
                     ",\"cpu\":" + json_str(cpu_model()) +
                     ",\"nproc\":" + std::to_string(host_threads()) +
                     ",\"glibc\":" + json_str(glibc_version()) +
                     ",\"vecmath_fast\":" +
                     (pcs::vecmath::fast_math_active() ? "true" : "false") +
                     ",\"git_sha\":" + json_str(git_sha) +
                     ",\"digest\":" + json_str(r.digest);
  for (const auto& [k, v] : r.info) info += "," + json_str(k) + ":" + v;
  info += ",\"failures\":[";
  for (std::size_t i = 0; i < r.ops.failures().size(); ++i) {
    if (i) info += ',';
    info += json_str(r.ops.failures()[i]);
  }
  info += "]}}";

  std::string metrics;
  bool complete = true;
  const auto emit = [&](const MetricDef& d) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", d.name);
      complete = false;
      return;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_str(d.name) + ": {\"value\": " + json_num(it->second) +
               ", \"unit\": " + json_str(d.unit) + "}";
  };
  if (o.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  if (!complete) return 1;

  const bool correct = r.ops.failed() == 0 && r.ops.attempted() > 0;
  std::cout << info << "\n"
            << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<u64>(1, r.ops.attempted())
            << ", \"failed\": " << r.ops.failed() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
