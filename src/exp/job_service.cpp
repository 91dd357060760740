// pcs-lint: allow-file(DET001) wall clock is quarantined to each job's
// trailing job_profile telemetry record; the service log and every job
// output file are rendered purely from simulation state (TELEMETRY.md,
// POPULATION.md).
#include "exp/job_service.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <variant>

#include "core/system.hpp"
#include "core/system_energy.hpp"
#include "exp/thread_pool.hpp"
#include "fault/ber_model.hpp"
#include "tech/technology.hpp"
#include "trace/workload_source.hpp"
#include "util/table.hpp"

namespace pcs {

namespace {

// ---- Flat JSON job lines ---------------------------------------------------
// The job file is one JSON object per line with string/number/bool values
// only -- flat on purpose, so the schema stays a table in POPULATION.md and
// a hand-rolled parser stays obviously correct. std::map keeps every key
// iteration ordered (determinism contract).

struct JsonValue {
  /// kToken is a CLI argument (set_job_key): text typed by its key.
  enum class Kind { kString, kNumber, kBool, kToken };
  Kind kind = Kind::kString;
  std::string str;
  double num = 0.0;
  bool b = false;
};

using JsonObj = std::map<std::string, JsonValue>;

[[noreturn]] void bad_job(const std::string& what) {
  throw std::invalid_argument(what);
}

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
}

std::string parse_json_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') bad_job("job line: expected '\"'");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) bad_job("job line: dangling escape");
      const char e = s[i++];
      switch (e) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        default:
          bad_job(std::string("job line: unsupported escape '\\") + e + "'");
      }
    }
    out.push_back(c);
  }
  if (i >= s.size()) bad_job("job line: unterminated string");
  ++i;  // closing quote
  return out;
}

JsonValue parse_json_value(std::string_view s, std::size_t& i) {
  skip_ws(s, i);
  if (i >= s.size()) bad_job("job line: missing value");
  JsonValue v;
  if (s[i] == '"') {
    v.kind = JsonValue::Kind::kString;
    v.str = parse_json_string(s, i);
    return v;
  }
  if (s.compare(i, 4, "true") == 0) {
    v.kind = JsonValue::Kind::kBool;
    v.b = true;
    i += 4;
    return v;
  }
  if (s.compare(i, 5, "false") == 0) {
    v.kind = JsonValue::Kind::kBool;
    v.b = false;
    i += 5;
    return v;
  }
  const std::size_t start = i;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
          s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
          s[i] == 'E')) {
    ++i;
  }
  if (i == start) bad_job("job line: expected string, number, or bool");
  const std::string tok(s.substr(start, i - start));
  char* end = nullptr;
  v.kind = JsonValue::Kind::kNumber;
  v.num = std::strtod(tok.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    bad_job("job line: malformed number '" + tok + "'");
  }
  return v;
}

JsonObj parse_flat_json(const std::string& line) {
  const std::string_view s(line);
  std::size_t i = 0;
  skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') bad_job("job line: expected '{'");
  ++i;
  JsonObj o;
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws(s, i);
      const std::string key = parse_json_string(s, i);
      skip_ws(s, i);
      if (i >= s.size() || s[i] != ':') bad_job("job line: expected ':'");
      ++i;
      if (!o.emplace(key, parse_json_value(s, i)).second) {
        bad_job("job line: duplicate key '" + key + "'");
      }
      skip_ws(s, i);
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == '}') {
        ++i;
        break;
      }
      bad_job("job line: expected ',' or '}'");
    }
  }
  skip_ws(s, i);
  if (i != s.size()) bad_job("job line: trailing characters after '}'");
  return o;
}

// ---- Key tables ------------------------------------------------------------
// Every job key is one JobKey entry: its name, the member it writes (whose
// type is the value type) and an optional check. Defaults are the spec
// structs' member initialisers. parse_job_line (JSON values) and set_job_key
// (CLI tokens) both assign through assign_key, so a job line and the
// equivalent CLI flag accept and reject exactly the same values.

template <class T>
using Field = T& (*)(Job&);

enum class Check {
  kNone,
  kConfig,    // string: "A" or "B"
  kPolicy,    // string: baseline | spcs | dpcs | all
  kRequired,  // string: present and non-empty
  kSigma,     // real: > 0, or 0 for the soi45 calibration
  kKilobytes, // u64: a size in KB, stored as bytes
  kAssoc,     // u32: an associativity, 1 .. 2^32-1
};

struct JobKey {
  const char* name;
  std::variant<Field<std::string>, Field<u64>, Field<u32>, Field<double>,
               Field<bool>, Field<std::vector<u64>>, Field<std::vector<u32>>,
               Field<std::vector<double>>>
      field;
  Check check = Check::kNone;
};

// The population and population_grid kinds share their fleet keys: each
// writes the same member of whichever spec the job's kind selects.
PopulationSpec& fleet(Job& j) {
  return j.kind == Job::Kind::kPopulation ? j.population.spec
                                          : j.population_grid.spec.base;
}
CheckpointJobSpec& checkpointing(Job& j) {
  if (j.kind == Job::Kind::kPopulation) return j.population;
  return j.population_grid;
}

const JobKey kJobKeys[] = {
    {"id", [](Job& j) -> auto& { return j.id; }},
    {"out", [](Job& j) -> auto& { return j.out; }},
    {"trace", [](Job& j) -> auto& { return j.trace; }},
};

// Shared by "sim" and "trace_replay".
const JobKey kRunKeys[] = {
    {"config", [](Job& j) -> auto& { return j.sim.config; }, Check::kConfig},
    {"policy", [](Job& j) -> auto& { return j.sim.policy; }, Check::kPolicy},
    {"refs", [](Job& j) -> auto& { return j.sim.refs; }},
    {"warmup", [](Job& j) -> auto& { return j.sim.warmup; }},
    {"chip_seed", [](Job& j) -> auto& { return j.sim.chip_seed; }},
    {"levels", [](Job& j) -> auto& { return j.sim.levels; }},
    {"csv", [](Job& j) -> auto& { return j.sim.csv; }},
};

const JobKey kSimKeys[] = {
    {"workload", [](Job& j) -> auto& { return j.sim.workload; }},
    {"trace_seed", [](Job& j) -> auto& { return j.sim.trace_seed; }},
};

// No trace_seed: the recorded file fully determines the event stream.
const JobKey kReplayKeys[] = {
    {"file", [](Job& j) -> auto& { return j.sim.workload; }, Check::kRequired},
};

// Shared by "population" and "population_grid".
const JobKey kFleetKeys[] = {
    {"chips", [](Job& j) -> auto& { return fleet(j).num_chips; }},
    {"seed", [](Job& j) -> auto& { return fleet(j).seed; }},
    {"shard_chips",
     [](Job& j) -> auto& { return fleet(j).chips_per_shard; }},
    {"grid_lo", [](Job& j) -> auto& { return fleet(j).grid_lo; }},
    {"grid_hi", [](Job& j) -> auto& { return fleet(j).grid_hi; }},
    {"grid_step", [](Job& j) -> auto& { return fleet(j).grid_step; }},
    {"min_capacity",
     [](Job& j) -> auto& { return fleet(j).spcs_min_capacity; }},
    {"checkpoint",
     [](Job& j) -> auto& { return checkpointing(j).checkpoint; }},
    {"checkpoint_shards",
     [](Job& j) -> auto& { return checkpointing(j).checkpoint_shards; }},
    {"resume", [](Job& j) -> auto& { return checkpointing(j).resume; }},
};

const JobKey kPopulationKeys[] = {
    {"size_kb",
     [](Job& j) -> auto& { return j.population.spec.org.size_bytes; },
     Check::kKilobytes},
    {"assoc", [](Job& j) -> auto& { return j.population.spec.org.assoc; },
     Check::kAssoc},
    {"sigma", [](Job& j) -> auto& { return j.population.sigma; },
     Check::kSigma},
};

const JobKey kGridKeys[] = {
    {"sizes_kb",
     [](Job& j) -> auto& { return j.population_grid.spec.sizes_kb; }},
    {"assocs", [](Job& j) -> auto& { return j.population_grid.spec.assocs; }},
    {"sigmas", [](Job& j) -> auto& { return j.population_grid.spec.sigmas; }},
};

/// Each kind's keys, in Job::Kind enumerator order.
struct KindKeys {
  const char* name;
  std::array<std::span<const JobKey>, 3> tables;
};
const KindKeys kKinds[] = {
    {"sim", {kJobKeys, kRunKeys, kSimKeys}},
    {"population", {kJobKeys, kFleetKeys, kPopulationKeys}},
    {"population_grid", {kJobKeys, kFleetKeys, kGridKeys}},
    {"trace_replay", {kJobKeys, kRunKeys, kReplayKeys}},
};
static_assert(std::size(kKinds) == 4);

const char* kind_name(Job::Kind kind) noexcept {
  return kKinds[static_cast<std::size_t>(kind)].name;
}

const JobKey* find_key(Job::Kind kind, std::string_view name) {
  for (const auto& table : kKinds[static_cast<std::size_t>(kind)].tables) {
    for (const JobKey& key : table) {
      if (name == key.name) return &key;
    }
  }
  return nullptr;
}

// ---- Value conversion ------------------------------------------------------
// A JSON value must have the key's type; a CLI token is text typed by the
// key it is assigned to, read with the strict util/parse.hpp parsers.

const std::string& text(const JsonValue& v, const std::string& what) {
  if (v.kind == JsonValue::Kind::kNumber || v.kind == JsonValue::Kind::kBool) {
    bad_job(what + ": expected a string");
  }
  return v.str;
}

u64 integer(const JsonValue& v, const std::string& what) {
  if (v.kind == JsonValue::Kind::kToken) return parse_u64_token(v.str, what);
  if (v.kind != JsonValue::Kind::kNumber || v.num < 0.0 ||
      std::floor(v.num) != v.num || v.num > 9.007199254740992e15) {
    bad_job(what + ": expected a non-negative integer");
  }
  return static_cast<u64>(v.num);
}

double real(const JsonValue& v, const std::string& what) {
  if (v.kind == JsonValue::Kind::kToken) return parse_real_token(v.str, what);
  if (v.kind != JsonValue::Kind::kNumber) bad_job(what + ": expected a number");
  return v.num;
}

bool boolean(const JsonValue& v, const std::string& what) {
  if (v.kind == JsonValue::Kind::kBool) return v.b;
  if (v.kind != JsonValue::Kind::kToken ||
      (v.str != "true" && v.str != "false")) {
    bad_job(what + ": expected true or false");
  }
  return v.str == "true";
}

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

void assign_key(Job& job, const JobKey& key, const JsonValue& v,
                const std::string& what) {
  const Check check = key.check;
  std::visit(
      Overloaded{
          [&](Field<std::string> f) {
            const std::string& s = text(v, what);
            if (check == Check::kConfig && s != "A" && s != "B") {
              bad_job(what + ": must be \"A\" or \"B\"");
            }
            if (check == Check::kPolicy && s != "baseline" && s != "spcs" &&
                s != "dpcs" && s != "all") {
              bad_job(what + ": must be baseline, spcs, dpcs, or all");
            }
            if (check == Check::kRequired && s.empty()) {
              bad_job(what + " is required for kind '" + kind_name(job.kind) +
                      "'");
            }
            f(job) = s;
          },
          [&](Field<u64> f) {
            const u64 x = integer(v, what);
            f(job) = check == Check::kKilobytes ? kb_to_bytes(x, what) : x;
          },
          [&](Field<u32> f) {
            const u64 x = integer(v, what);
            f(job) = check == Check::kAssoc ? checked_assoc(x, what)
                                            : checked_u32(x, what);
          },
          [&](Field<double> f) {
            const double x = real(v, what);
            if (check == Check::kSigma && x < 0.0) {
              bad_job(what + ": must be positive (or 0 for the soi45 default)");
            }
            f(job) = x;
          },
          [&](Field<bool> f) { f(job) = boolean(v, what); },
          [&](Field<std::vector<u64>> f) {
            f(job) = parse_u64_list(text(v, what), what);
          },
          [&](Field<std::vector<u32>> f) {
            std::vector<u32> ways;
            for (const u64 a : parse_u64_list(text(v, what), what)) {
              ways.push_back(checked_assoc(a, what));
            }
            f(job) = std::move(ways);
          },
          [&](Field<std::vector<double>> f) {
            // "" keeps the axis empty: the soi45 calibration sigma.
            const std::string& s = text(v, what);
            f(job) = s.empty() ? std::vector<double>{}
                               : parse_real_list(s, what);
          },
      },
      key.field);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Job parse_job_line(const std::string& line) {
  const JsonObj o = parse_flat_json(line);
  std::string kind = "sim";
  if (const auto it = o.find("kind"); it != o.end()) {
    kind = text(it->second, "job key 'kind'");
  }
  const auto k =
      std::find_if(std::begin(kKinds), std::end(kKinds),
                   [&](const KindKeys& e) { return kind == e.name; });
  if (k == std::end(kKinds)) {
    std::string known;
    for (const KindKeys& e : kKinds) {
      known += (known.empty() ? "" : ", ") + std::string(e.name);
    }
    bad_job("unknown job kind '" + kind + "' (known: " + known + ")");
  }
  Job job;
  job.kind = static_cast<Job::Kind>(k - std::begin(kKinds));
  job.sim.replay = job.kind == Job::Kind::kTraceReplay;
  for (const auto& table : k->tables) {
    for (const JobKey& key : table) {
      const std::string what = std::string("job key '") + key.name + "'";
      if (const auto it = o.find(key.name); it != o.end()) {
        assign_key(job, key, it->second, what);
      } else if (key.check == Check::kRequired) {
        bad_job(what + " is required for kind '" + kind + "'");
      }
    }
  }
  for (const auto& [key, value] : o) {
    if (key != "kind" && find_key(job.kind, key) == nullptr) {
      bad_job("unknown job key '" + key + "' for kind '" + kind + "'");
    }
  }
  if (job.kind == Job::Kind::kPopulationGrid) {
    job.population_grid.spec.validate();
  }
  return job;
}

void set_job_key(Job& job, const std::string& key, const std::string& token,
                 const std::string& what) {
  const JobKey* entry = find_key(job.kind, key);
  if (entry == nullptr) {
    bad_job(what + ": unknown job key '" + key + "' for kind '" +
            kind_name(job.kind) + "'");
  }
  JsonValue v;
  v.kind = JsonValue::Kind::kToken;
  v.str = token;
  assign_key(job, *entry, v, what);
}

bool take_job_flag(Job& job, std::span<const JobFlag> flags, int argc,
                   char** argv, int& i) {
  const std::string arg = argv[i];
  for (const JobFlag& flag : flags) {
    if (arg != flag.arg) continue;
    const JobKey* key = find_key(job.kind, flag.key);
    if (key != nullptr && std::holds_alternative<Field<bool>>(key->field)) {
      set_job_key(job, flag.key, "true", arg);
    } else if (i + 1 < argc) {
      set_job_key(job, flag.key, argv[++i], arg);
    } else {
      bad_job(arg + ": missing value");
    }
    return true;
  }
  return false;
}

std::vector<std::pair<std::string, std::vector<std::string>>> job_schema() {
  std::vector<std::pair<std::string, std::vector<std::string>>> schema;
  for (const KindKeys& kind : kKinds) {
    std::vector<std::string> keys = {"kind"};
    for (const auto& table : kind.tables) {
      for (const JobKey& key : table) keys.emplace_back(key.name);
    }
    schema.emplace_back(kind.name, std::move(keys));
  }
  return schema;
}

void run_sim_job(const SimJobSpec& o, std::ostream& out, u32 num_threads,
                 TraceSink* trace) {
  if (o.config != "A" && o.config != "B") {
    throw std::invalid_argument("unknown config '" + o.config + "'");
  }
  SystemConfig cfg =
      o.config == "B" ? SystemConfig::config_b() : SystemConfig::config_a();
  cfg.num_vdd_levels = o.levels;
  RunParams rp;
  rp.max_refs = o.refs;
  rp.warmup_refs = o.warmup ? o.warmup : o.refs / 4;

  std::vector<PolicyKind> kinds;
  if (o.policy == "baseline" || o.policy == "all") {
    kinds.push_back(PolicyKind::kBaseline);
  }
  if (o.policy == "spcs" || o.policy == "all") {
    kinds.push_back(PolicyKind::kStatic);
  }
  if (o.policy == "dpcs" || o.policy == "all") {
    kinds.push_back(PolicyKind::kDynamic);
  }
  if (kinds.empty()) {
    throw std::invalid_argument("unknown policy '" + o.policy + "'");
  }

  // Under "all" the SPCS and DPCS runs share one chip: manufacture it once,
  // up front, and give each system its own copy.
  std::optional<ManufacturedDie> die;
  if (o.policy == "all") die = PcsSystem::manufacture(cfg, o.chip_seed);

  // The policy runs are independent simulations; fan them across the
  // workers (each builds its own trace and system -- a file workload just
  // gets one FileTrace handle per task) and report in policy order,
  // identical to the serial loop at any thread count. Telemetry is
  // buffered per task and replayed in policy order below, so the trace
  // stream is byte-identical at any thread count too.
  const bool tracing = trace != nullptr;
  std::vector<MemoryTraceSink> task_traces(kinds.size());
  const std::vector<SimReport> reports = parallel_index_map(
      num_threads == 0 ? pcs_thread_count() : num_threads, kinds.size(),
      [&](u64 i) {
        auto src = o.replay ? open_trace_file(o.workload)
                            : make_workload_source(o.workload, o.trace_seed);
        PcsSystem sys = die ? PcsSystem(cfg, kinds[i], *die)
                            : PcsSystem(cfg, kinds[i], o.chip_seed);
        if (tracing) sys.set_trace(&task_traces[i]);
        return sys.run(*src, rp);
      });
  if (tracing) {
    for (const MemoryTraceSink& tr : task_traces) tr.replay_into(*trace);
  }

  const SystemEnergyModel sys_energy({}, cfg.clock_ghz * 1e9);
  TextTable t({"policy", "cycles", "IPC", "L1D miss", "L2 miss",
               "cache energy", "system energy", "L2 avg VDD", "transitions"});
  if (o.csv) {
    out << "config,workload,policy,refs,cycles,ipc,l1d_missrate,"
           "l2_missrate,cache_energy_j,system_energy_j,l2_avg_vdd,"
           "transitions\n";
  }
  char line[1024];
  for (u64 i = 0; i < kinds.size(); ++i) {
    const SimReport& r = reports[i];
    const auto se = sys_energy.evaluate(r);
    const u32 trans = r.l1i.transitions + r.l1d.transitions + r.l2.transitions;
    if (o.csv) {
      std::snprintf(line, sizeof line,
                    "%s,%s,%s,%llu,%llu,%.4f,%.6f,%.6f,%.6e,%.6e,%.3f,%u\n",
                    r.config_name.c_str(), r.workload.c_str(),
                    r.policy.c_str(), static_cast<unsigned long long>(r.refs),
                    static_cast<unsigned long long>(r.cycles), r.ipc,
                    r.l1d.miss_rate, r.l2.miss_rate, r.total_cache_energy(),
                    se.total(), r.l2.avg_vdd, trans);
      out << line;
    } else {
      t.add_row({r.policy, fmt_count(r.cycles), fmt_fixed(r.ipc, 3),
                 fmt_pct(r.l1d.miss_rate, 2), fmt_pct(r.l2.miss_rate, 2),
                 fmt_joules(r.total_cache_energy()), fmt_joules(se.total()),
                 fmt_fixed(r.l2.avg_vdd, 3) + " V", std::to_string(trans)});
    }
  }
  if (!o.csv) {
    std::snprintf(line, sizeof line,
                  "config %s, workload %s, %llu measured refs\n\n",
                  cfg.name.c_str(), o.workload.c_str(),
                  static_cast<unsigned long long>(o.refs));
    out << line;
    t.print(out);
  }
}

PopulationGridSpec population_job_grid(const PopulationJobSpec& j) {
  if (j.spec.org.size_bytes % 1024 != 0) {
    throw std::invalid_argument(
        "population job cache size must be a whole number of KB");
  }
  PopulationGridSpec grid;
  grid.base = j.spec;
  grid.sizes_kb = {j.spec.org.size_bytes / 1024};
  grid.assocs = {j.spec.org.assoc};
  // sigma == 0 keeps the full soi45 calibration; otherwise only sigma is
  // overridden (mu stays at the soi45 anchor).
  if (j.sigma != 0.0) grid.sigmas = {j.sigma};
  return grid;
}

namespace {

PopulationGridResult run_grid(const PopulationGridSpec& spec,
                              const std::string& checkpoint,
                              u64 checkpoint_shards, bool resume,
                              u32 num_threads, TraceSink* trace,
                              const CheckpointHook& on_checkpoint) {
  const BerModel ber(Technology::soi45());
  const PopulationGridEngine engine(ber, num_threads);
  CheckpointOptions ckpt;
  ckpt.path = checkpoint;
  ckpt.every_shards = checkpoint_shards;
  ckpt.resume = resume;
  ckpt.on_checkpoint = on_checkpoint;
  return engine.run(spec, trace, ckpt.path.empty() ? nullptr : &ckpt);
}

}  // namespace

PopulationResult run_population_job(const PopulationJobSpec& j,
                                    std::ostream& out, u32 num_threads,
                                    TraceSink* trace,
                                    const CheckpointHook& on_checkpoint) {
  const PopulationGridSpec grid = population_job_grid(j);
  PopulationResult result =
      std::move(run_grid(grid, j.checkpoint, j.checkpoint_shards, j.resume,
                         num_threads, trace, on_checkpoint)
                    .points.front()
                    .result);
  render_population_report(grid.point_spec(grid.sizes_kb[0], grid.assocs[0]),
                           result, out);
  return result;
}

PopulationGridResult run_population_grid_job(
    const PopulationGridJobSpec& j, std::ostream& out, u32 num_threads,
    TraceSink* trace, const CheckpointHook& on_checkpoint) {
  PopulationGridResult result =
      run_grid(j.spec, j.checkpoint, j.checkpoint_shards, j.resume,
               num_threads, trace, on_checkpoint);
  render_population_grid_report(j.spec, result, out);
  return result;
}

namespace {

/// Runs one job to completion: renders into a memory buffer first so a
/// failed job never leaves a partial output file, then appends the
/// wall-clock job_profile record to the job's own trace (the only place
/// timing is allowed to appear).
JobOutcome execute_job(const Job& job) {
  JobOutcome oc;
  oc.id = job.id;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    std::unique_ptr<TraceSink> sink;
    if (!job.trace.empty()) {
      sink = make_trace_sink(job.trace);
      emit_trace_header(*sink);
    }
    std::ostringstream body;
    if (job.kind == Job::Kind::kPopulation) {
      run_population_job(job.population, body, 1, sink.get());
    } else if (job.kind == Job::Kind::kPopulationGrid) {
      run_population_grid_job(job.population_grid, body, 1, sink.get());
    } else {
      run_sim_job(job.sim, body, 1, sink.get());
    }
    std::ofstream f(job.out, std::ios::binary | std::ios::trunc);
    if (!f) {
      throw std::runtime_error("cannot open output file '" + job.out + "'");
    }
    f << body.str();
    f.flush();
    if (!f) throw std::runtime_error("write failed for '" + job.out + "'");
    oc.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (sink) {
      sink->emit(TraceRecord("job_profile")
                     .field("job", oc.id)
                     .field("kind", kind_name(job.kind))
                     .field("wall_ms", oc.wall_ms));
    }
    oc.ok = true;
  } catch (const std::exception& e) {
    oc.ok = false;
    oc.error = e.what();
  }
  return oc;
}

}  // namespace

JobService::JobService(u32 num_threads)
    : num_threads_(num_threads == 0 ? pcs_thread_count() : num_threads) {}

std::vector<JobOutcome> JobService::serve(std::istream& in,
                                          std::ostream& log) {
  struct Slot {
    bool resolved = false;
    JobOutcome outcome;
    std::future<JobOutcome> fut;
  };
  std::vector<Slot> slots;
  // Jobs are submitted as their lines arrive (FIFO-friendly); with one
  // thread they run inline instead, producing the same artifacts and the
  // same log.
  std::optional<ThreadPool> pool;
  if (num_threads_ > 1) pool.emplace(num_threads_);

  // Duplicate ids would race on the same out/trace/checkpoint artifacts (and
  // duplicate out or checkpoint paths collide even under distinct ids), so
  // each claims its value at the line that first used it and later claimants
  // are rejected, pointing back at that line.
  std::map<std::string, u64> seen_ids, seen_outs, seen_ckpts;
  const auto claim = [](std::map<std::string, u64>& seen,
                        const std::string& value, u64 lineno) -> u64 {
    const auto [it, inserted] = seen.emplace(value, lineno);
    return inserted ? 0 : it->second;
  };

  std::string raw;
  u64 lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;

    Job job;
    bool accepted = true;
    std::string err;
    try {
      job = parse_job_line(std::string(line));
    } catch (const std::exception& e) {
      accepted = false;
      err = e.what();
    }
    std::string id;
    if (accepted) {
      if (job.id.empty()) job.id = "job" + std::to_string(slots.size() + 1);
      id = job.id;
      if (job.out.empty()) {
        accepted = false;
        err = "job key 'out' is required in serve mode";
      }
    } else {
      id = "line" + std::to_string(lineno);
    }
    if (accepted) {
      if (const u64 first = claim(seen_ids, id, lineno)) {
        accepted = false;
        err = "duplicate job id '" + id + "' (first submitted at line " +
              std::to_string(first) + ")";
      } else if (const u64 out_first = claim(seen_outs, job.out, lineno)) {
        accepted = false;
        err = "output path '" + job.out +
              "' already claimed by the job at line " +
              std::to_string(out_first);
      } else if (!job.checkpoint_path().empty()) {
        if (const u64 ck_first =
                claim(seen_ckpts, job.checkpoint_path(), lineno)) {
          accepted = false;
          err = "checkpoint path '" + job.checkpoint_path() +
                "' already claimed by the job at line " +
                std::to_string(ck_first);
        }
      }
    }

    Slot slot;
    if (!accepted) {
      log << "job " << id << ": rejected (line " << lineno << "): " << err
          << "\n";
      slot.resolved = true;
      slot.outcome.id = id;
      slot.outcome.error = err;
    } else {
      log << "job " << id << ": accepted (" << kind_name(job.kind) << " -> "
          << job.out << ")\n";
      if (pool) {
        slot.fut = pool->submit([job] { return execute_job(job); });
      } else {
        slot.resolved = true;
        slot.outcome = execute_job(job);
      }
    }
    slots.push_back(std::move(slot));
  }

  // Completion report in submission order, after the queue drains; no
  // wall-clock values (those live in each job's trace).
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(slots.size());
  u64 ok = 0;
  for (Slot& s : slots) {
    JobOutcome oc = s.resolved ? std::move(s.outcome) : s.fut.get();
    if (oc.ok) {
      ++ok;
      log << "job " << oc.id << ": ok\n";
    } else {
      log << "job " << oc.id << ": failed: " << oc.error << "\n";
    }
    outcomes.push_back(std::move(oc));
  }
  log << "served " << outcomes.size() << " jobs: " << ok << " ok, "
      << outcomes.size() - ok << " failed\n";
  return outcomes;
}

}  // namespace pcs
