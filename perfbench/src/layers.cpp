#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>

#include "cache/cpu_model.hpp"
#include "core/system_energy.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/cell_fault_field.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"

namespace perfbench {

using pcs::PcsSystem;
using pcs::RunParams;
using pcs::SimReport;
using pcs::TraceEvent;
using pcs::TraceSource;

void LayerTimes::merge(const LayerTimes& o) {
  gen_ticks += o.gen_ticks;
  gen_events += o.gen_events;
  decode_ticks += o.decode_ticks;
  decode_events += o.decode_events;
  step_ticks += o.step_ticks;
  tick_ticks += o.tick_ticks;
  refs += o.refs;
  transitions += o.transitions;
  transition_ticks += o.transition_ticks;
  build_ms.insert(build_ms.end(), o.build_ms.begin(), o.build_ms.end());
}

namespace {

double per(double ticks, u64 n, double scale) {
  return n ? ticks * probe_ns_per_tick() / static_cast<double>(n) / scale
           : 0.0;
}

u32 transitions_of(PcsSystem& sys) {
  return sys.l1i_controller().pcs_stats().transitions +
         sys.l1d_controller().pcs_stats().transitions +
         sys.l2_controller().pcs_stats().transitions;
}

/// Decoded events are pulled in blocks this big, as the sweep engine does.
constexpr u64 kBlockEvents = 256;
/// One next_block call in this many gets its own span.
constexpr u64 kSpanEveryBlocks = 64;

template <bool kTimed>
void retire(PcsSystem& sys, const TraceEvent* evs, u64 n, LayerTimes* t,
            u32& last_transitions) {
  pcs::CpuModel& cpu = sys.cpu();
  pcs::AccessOutcome out;
  if constexpr (!kTimed) {
    for (u64 i = 0; i < n; ++i) {
      cpu.step_decoded<pcs::kReplDynamic>(evs[i], out);
      sys.tick_all();
    }
  } else {
    const double cost = probe_read_cost_ticks();
    u64 a = probe_ticks();
    for (u64 i = 0; i < n; ++i) {
      cpu.step_decoded<pcs::kReplDynamic>(evs[i], out);
      const u64 b = probe_ticks();
      sys.tick_all();
      const u64 c = probe_ticks();
      t->step_ticks += std::max(0.0, static_cast<double>(b - a) - cost);
      const double tick = std::max(0.0, static_cast<double>(c - b) - cost);
      t->tick_ticks += tick;
      const u32 tr = transitions_of(sys);
      if (tr != last_transitions) {
        ++t->transitions;
        t->transition_ticks += tick;
        last_transitions = tr;
      }
      a = c;
    }
    t->refs += n;
  }
}

/// One window (warm-up or measured) of PcsSystem::run, block-clipped so no
/// block straddles the boundary; stops early when the trace ends.
template <bool kTimed>
void window(PcsSystem& sys, TraceSource& src, u64 limit, SourceKind kind,
            LayerTimes* t, const SpanCtx& sp, u64 parent, u64& blocks,
            u32& last_transitions) {
  TraceEvent buf[kBlockEvents];
  u64 done = 0;
  while (done < limit) {
    const u64 want = std::min<u64>(kBlockEvents, limit - done);
    u64 n = 0;
    if constexpr (kTimed) {
      const bool span = sp.log && blocks % kSpanEveryBlocks == 0;
      const double s0 = span ? now_s() : 0.0;
      const u64 a = probe_ticks();
      n = src.next_block(buf, want);
      const double dt = static_cast<double>(probe_ticks() - a);
      if (kind == SourceKind::kSynthetic) {
        t->gen_ticks += dt;
        t->gen_events += n;
      } else {
        t->decode_ticks += dt;
        t->decode_events += n;
      }
      if (span) {
        sp.log->add(sp.worker,
                    kind == SourceKind::kSynthetic ? "workload.next_block"
                                                   : "trace.next_block",
                    parent, sp.op, s0, now_s());
      }
    } else {
      n = src.next_block(buf, want);
    }
    ++blocks;
    retire<kTimed>(sys, buf, n, t, last_transitions);
    done += n;
    if (n < want) break;  // trace exhausted
  }
}

template <bool kTimed>
SimReport drive_impl(PcsSystem& sys, TraceSource& src, const RunParams& rp,
                     SourceKind kind, LayerTimes* t, const SpanCtx& sp) {
  u64 blocks = 0;
  u32 last = transitions_of(sys);
  const bool spans = kTimed && sp.log;
  double s0 = spans ? now_s() : 0.0;
  const u64 warm_id = spans ? sp.log->open(sp.worker) : 0;
  window<kTimed>(sys, src, rp.warmup_refs, kind, t, sp, warm_id, blocks, last);
  if (spans) {
    sp.log->close(sp.worker, warm_id, "drive.warmup", sp.parent, sp.op, s0,
                  now_s());
  }
  const PcsSystem::MeasureBaseline base = sys.begin_measurement();
  last = transitions_of(sys);
  s0 = spans ? now_s() : 0.0;
  const u64 meas_id = spans ? sp.log->open(sp.worker) : 0;
  window<kTimed>(sys, src, rp.max_refs, kind, t, sp, meas_id, blocks, last);
  if (spans) {
    sp.log->close(sp.worker, meas_id, "drive.measure", sp.parent, sp.op, s0,
                  now_s());
    s0 = now_s();
  }
  SimReport rep = sys.finish_measurement(base, src.name());
  if (spans) {
    sp.log->add(sp.worker, "core.finish_measurement", sp.parent, sp.op, s0,
                now_s());
  }
  return rep;
}

}  // namespace

double LayerTimes::gen_ns_per_event() const {
  return per(gen_ticks, gen_events, 1.0);
}
double LayerTimes::decode_ns_per_event() const {
  return per(decode_ticks, decode_events, 1.0);
}
double LayerTimes::step_ns_per_ref() const {
  return per(step_ticks, refs, 1.0);
}
double LayerTimes::tick_ns_per_ref() const {
  return per(tick_ticks, refs, 1.0);
}
double LayerTimes::transition_us() const {
  return per(transition_ticks, transitions, 1000.0);
}

SimReport drive(PcsSystem& sys, TraceSource& src, const RunParams& rp,
                SourceKind kind, LayerTimes* times, const SpanCtx& spans) {
  return times ? drive_impl<true>(sys, src, rp, kind, times, spans)
               : drive_impl<false>(sys, src, rp, kind, nullptr, spans);
}

std::unique_ptr<PcsSystem> build_system(const pcs::SystemConfig& cfg,
                                        pcs::PolicyKind kind, u64 chip_seed,
                                        LayerTimes* times,
                                        const SpanCtx& spans) {
  const double t0 = now_s();
  auto sys = std::make_unique<PcsSystem>(cfg, kind, chip_seed);
  const double t1 = now_s();
  if (times) times->build_ms.push_back((t1 - t0) * 1e3);
  if (times && spans.log) {
    spans.log->add(spans.worker, "core.build", spans.parent, spans.op, t0, t1);
  }
  return sys;
}

std::string render_sim_csv(const std::vector<SimReport>& reps,
                           double clock_ghz) {
  const pcs::SystemEnergyModel energy({}, clock_ghz * 1e9);
  std::string out =
      "config,workload,policy,refs,cycles,ipc,l1d_missrate,l2_missrate,"
      "cache_energy_j,system_energy_j,l2_avg_vdd,transitions\n";
  char line[1024];
  for (const SimReport& r : reps) {
    const u32 trans = r.l1i.transitions + r.l1d.transitions + r.l2.transitions;
    std::snprintf(line, sizeof line,
                  "%s,%s,%s,%llu,%llu,%.4f,%.6f,%.6f,%.6e,%.6e,%.3f,%u\n",
                  r.config_name.c_str(), r.workload.c_str(), r.policy.c_str(),
                  static_cast<unsigned long long>(r.refs),
                  static_cast<unsigned long long>(r.cycles), r.ipc,
                  r.l1d.miss_rate, r.l2.miss_rate, r.total_cache_energy(),
                  energy.evaluate(r).total(), r.l2.avg_vdd, trans);
    out += line;
  }
  return out;
}

void digest_report(Digest& d, const SimReport& r) {
  d.s(r.config_name);
  d.s(r.workload);
  d.s(r.policy);
  d.u(r.instructions);
  d.u(r.refs);
  d.u(r.cycles);
  d.d(r.seconds);
  d.d(r.ipc);
  d.u(r.mem_reads);
  d.u(r.mem_writes);
  for (const pcs::CacheEnergyReport* c : {&r.l1i, &r.l1d, &r.l2}) {
    d.s(c->name);
    d.d(c->static_energy);
    d.d(c->dynamic_energy);
    d.d(c->transition_energy);
    d.d(c->avg_power);
    d.d(c->avg_vdd);
    d.d(c->final_vdd);
    d.d(c->miss_rate);
    d.u(c->accesses);
    d.u(c->misses);
    d.u(c->transitions);
    d.u(c->transition_writebacks);
    d.d(c->effective_capacity);
  }
}

double fault_field_ms(u64 seed, int reps) {
  const pcs::BerModel ber(pcs::Technology::soi45());
  const pcs::SystemConfig cfgs[2] = {pcs::SystemConfig::config_a(),
                                     pcs::SystemConfig::config_b()};
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    double total = 0.0;
    for (u64 c = 0; c < 2; ++c) {
      const pcs::CacheLevelConfig* levels[3] = {&cfgs[c].l1i, &cfgs[c].l1d,
                                                &cfgs[c].l2};
      for (u64 l = 0; l < 3; ++l) {
        pcs::Rng rng(pcs::derive_seed(seed, c, l * 1000 + static_cast<u64>(r)));
        const pcs::CacheOrg& org = levels[l]->org;
        const double t0 = now_s();
        pcs::CellFaultField::sample_fast(ber, org.num_blocks(),
                                         org.bits_per_block(), rng);
        total += now_s() - t0;
      }
    }
    samples.push_back(total / 2.0 * 1e3);
  }
  return median(samples);
}

double FaultKernelTimes::sample_ns_per_block() const {
  return blocks ? sample_s * 1e9 / static_cast<double>(blocks) : 0.0;
}
double FaultKernelTimes::fold_ns_per_point() const {
  return folds ? fold_s * 1e9 / static_cast<double>(folds) : 0.0;
}

pcs::PopulationGridSpec reference_grid(u64 seed, u64 chips, u64 shard_chips) {
  pcs::PopulationGridSpec spec;
  spec.base.num_chips = chips;
  spec.base.seed = seed;
  spec.base.chips_per_shard = shard_chips;
  spec.sizes_kb = {32, 64};
  spec.assocs = {2, 4, 8, 16};
  spec.sigmas = {0.1426, 0.1585, 0.1823};
  return spec;
}

FaultKernelTimes fault_kernels(const pcs::PopulationGridSpec& spec,
                               const pcs::BerModel& ber, u64 dies, bool check,
                               bool timed, SpanLog* spans) {
  FaultKernelTimes t;
  const auto clock = [timed] { return timed ? now_s() : 0.0; };
  const std::vector<pcs::Volt> sigmas = spec.sigma_axis(ber.sigma());
  const double mu = ber.mu();
  std::vector<u64> blocks_of;
  for (const u64 kb : spec.sizes_kb) {
    blocks_of.push_back(spec.org_for(kb, spec.assocs[0]).num_blocks());
  }
  const u64 max_blocks = *std::max_element(blocks_of.begin(), blocks_of.end());
  const double nbits = static_cast<double>(spec.base.org.bits_per_block());
  constexpr u64 kChunk = 4096;  // sample_fast's draw-block size
  std::vector<double> u(static_cast<std::size_t>(std::min(max_blocks, kChunk)));
  std::vector<double> z(static_cast<std::size_t>(max_blocks));
  std::vector<float> vf(static_cast<std::size_t>(max_blocks));
  volatile float sink = 0.0f;
  for (u64 c = 0; c < dies; ++c) {
    const double die0 = clock();
    double t0 = die0;
    pcs::Rng rng(pcs::derive_seed(spec.base.seed, 0, c));
    for (u64 at = 0; at < max_blocks; at += kChunk) {
      const u64 todo = std::min(kChunk, max_blocks - at);
      rng.uniform_block(std::span<double>(u.data(), todo));
      pcs::vecmath::sample_z_block(u.data(), todo, nbits, z.data() + at);
    }
    double t1 = clock();
    t.sample_s += t1 - t0;
    t.blocks += max_blocks;
    for (const pcs::Volt sigma : sigmas) {
      t0 = clock();
      pcs::vecmath::vf_from_z_block(z.data(), max_blocks, mu, sigma,
                                    vf.data());
      t1 = clock();
      t.sample_s += t1 - t0;
      t.blocks += max_blocks;
      float acc = 0.0f;
      for (const u64 blocks : blocks_of) {
        for (const u32 assoc : spec.assocs) {
          acc += pcs::chip_fail_voltage(
              std::span<const float>(vf.data(), blocks), assoc);
          ++t.folds;
        }
      }
      t.fold_s += clock() - t1;
      sink = sink + acc;
      if (check) {
        pcs::Rng die_rng(pcs::derive_seed(spec.base.seed, 0, c));
        const pcs::CellFaultField field = pcs::CellFaultField::sample_fast(
            pcs::BerModel(mu, sigma), max_blocks,
            spec.base.org.bits_per_block(), die_rng);
        const auto ref = field.fail_voltages();
        if (ref.size() != vf.size() ||
            std::memcmp(ref.data(), vf.data(), vf.size() * sizeof(float)) !=
                0) {
          ++t.mismatches;
        }
      }
    }
    if (timed && spans) {
      spans->add(0, "fault.die_kernels", 0, c + 1, die0, clock());
    }
  }
  return t;
}

double trace_open_ms(const std::string& path, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    const auto src = pcs::open_trace_file(path);
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

u64 time_generation(const std::string& profile, u64 trace_seed, u64 events,
                    LayerTimes& times) {
  const auto src = pcs::make_workload_source(profile, trace_seed);
  TraceEvent buf[kBlockEvents];
  u64 done = 0;
  while (done < events) {
    const u64 want = std::min<u64>(kBlockEvents, events - done);
    const u64 a = probe_ticks();
    const u64 n = src->next_block(buf, want);
    times.gen_ticks += static_cast<double>(probe_ticks() - a);
    times.gen_events += n;
    done += n;
    if (n < want) break;
  }
  return done;
}

}  // namespace perfbench
