// Self-tests of the benchmark's own arithmetic and plumbing. Run with
// `ctest` in the benchmark's build directory or `python3 perfbench/run.py
// --selftest`.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "cache/trace_source.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "trace/workload_source.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using namespace perfbench;

void percentiles_interpolate_between_ranks() {
  CHECK(near(quantile({4, 1, 3, 2}, 0.5), 2.5));   // base: 4 samples
  CHECK(near(quantile({4, 1, 3, 2}, 0.0), 1.0));
  CHECK(near(quantile({4, 1, 3, 2}, 1.0), 4.0));
  CHECK(near(quantile({10, 20, 30, 40, 50}, 0.9), 46.0));  // pos 3.6
  CHECK(near(median({7}), 7.0));
  CHECK(near(median({}), 0.0));  // empty base
}

void efficiency_and_overheads_carry_their_base() {
  // 6 s of task time in 2 s on 4 workers = 75% of capacity.
  CHECK(near(parallel_efficiency(6.0, 2.0, 4), 0.75));
  CHECK(near(parallel_efficiency(1.0, 0.0, 4), 0.0));  // no base
  CHECK(near(overhead_pct(1.1, 1.0), 10.0));
  CHECK(near(overhead_pct(0.9, 1.0), -10.0));
  CHECK(near(overhead_pct(1.0, 0.0), 0.0));
  CHECK(near(uncovered_share(3.0, 4.0), 0.25));
  CHECK(near(uncovered_share(3.0, 0.0), 0.0));
}

std::string input_digest(u64 seed) {
  Digest d;
  const auto src = pcs::make_workload_source("gcc", input_seed(seed, 1, 2));
  pcs::TraceEvent ev;
  for (int i = 0; i < 4096 && src->next(ev); ++i) {
    d.u(ev.ref.addr);
    d.u(ev.gap_instructions);
    d.u(ev.ref.write);
  }
  return d.hex();
}

void seed_fixes_inputs_and_digest() {
  CHECK(input_seed(7, 3, 1) == input_seed(7, 3, 1));
  CHECK(input_seed(7, 3, 1) != input_seed(8, 3, 1));
  CHECK(input_seed(7, 3, 1) < (u64{1} << 52));
  CHECK(input_digest(7) == input_digest(7));
  CHECK(input_digest(7) != input_digest(8));
}

void traced_drive_equals_untraced() {
  pcs::RunParams rp;
  rp.max_refs = 20'000;
  rp.warmup_refs = 5'000;
  const pcs::SystemConfig cfg = pcs::SystemConfig::config_a();
  for (const auto kind :
       {pcs::PolicyKind::kBaseline, pcs::PolicyKind::kDynamic}) {
    const u64 trace_seed = input_seed(11, 5, 1);
    const pcs::SimReport oracle =
        pcs::run_one(cfg, "mcf", kind, 3, trace_seed, rp);
    LayerTimes t;
    SpanLog spans(1);
    for (LayerTimes* times : {static_cast<LayerTimes*>(nullptr), &t}) {
      auto sys = build_system(cfg, kind, 3, times, {&spans, 0, 0, 1});
      const auto src = pcs::make_workload_source("mcf", trace_seed);
      const pcs::SimReport r =
          drive(*sys, *src, rp, SourceKind::kSynthetic, times,
                {&spans, 0, 0, 1});
      CHECK(r == oracle);
      Digest a, b;
      digest_report(a, r);
      digest_report(b, oracle);
      CHECK(a.value() == b.value());
    }
    CHECK(t.refs == rp.max_refs + rp.warmup_refs);
    CHECK(t.gen_events == rp.max_refs + rp.warmup_refs);
    CHECK(spans.size() > 0);
  }
}

void failed_oracle_is_counted_not_thrown() {
  OpLedger ops;
  ops.attempt(3);
  bool threw = false;
  try {
    CHECK(!ops.expect("throws",
                      []() -> bool { throw std::runtime_error("x"); }));
    CHECK(!ops.expect("false", [] { return false; }));
    CHECK(ops.expect("true", [] { return true; }));
  } catch (...) {
    threw = true;
  }
  CHECK(!threw);
  CHECK(ops.attempted() == 3);
  CHECK(ops.failed() == 2);
  CHECK(ops.failures().size() == 2);
}

void fan_out_covers_every_index_and_rethrows() {
  std::vector<int> hits(100, 0);
  parallel_for(4, hits.size(), [&](u64 i, unsigned) { hits[i] += 1; });
  bool all_once = true;
  for (const int h : hits) all_once = all_once && h == 1;
  CHECK(all_once);
  bool threw = false;
  try {
    parallel_for(3, 10, [](u64 i, unsigned) {
      if (i == 5) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  percentiles_interpolate_between_ranks();
  efficiency_and_overheads_carry_their_base();
  seed_fixes_inputs_and_digest();
  traced_drive_equals_untraced();
  failed_oracle_is_counted_not_thrown();
  fan_out_covers_every_index_and_rethrows();
  if (g_failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
