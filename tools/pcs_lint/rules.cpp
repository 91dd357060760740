#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace pcs_lint {
namespace {

using std::size_t;

bool path_ends_with(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

const Token* at(const std::vector<Token>& toks, size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

void add(std::vector<Diagnostic>& diags, const char* rule,
         const std::string& file, int line, std::string message) {
  diags.push_back({rule, file, line, std::move(message)});
}

// ------------------------------------------------------------- flow glue --

// Witness chain when the function enclosing `line` sits in a serial context
// (its values plausibly reach serialized output); sets `*chain` and returns
// true. False when there is no index, no enclosing function, or no path to
// a sink.
bool flow_serial(const SymbolIndex* index, const std::string& path, int line,
                 std::string* chain) {
  if (index == nullptr) return false;
  const FunctionDef* fn = index->enclosing(path, line);
  if (fn == nullptr || !index->in_serial_context(fn->name)) return false;
  *chain = index->sink_chain(fn->name);
  return true;
}

// DET001/DET004 fire everywhere; the index only sharpens the message with
// the call chain that carries the value into serialized output.
std::string flow_suffix(const SymbolIndex* index, const std::string& path,
                        int line) {
  std::string chain;
  if (!flow_serial(index, path, line, &chain)) return std::string();
  return "; value reaches serialized output via " + chain;
}

// ---------------------------------------------------------------- DET001 --

// Direct identifiers that always mean a wall-clock read.
const std::set<std::string, std::less<>> kClockIdents = {
    "system_clock",   "steady_clock", "high_resolution_clock",
    "gettimeofday",   "clock_gettime", "timespec_get",
    "localtime",      "gmtime",        "mktime",
    "ctime",          "asctime",       "utc_clock",
    "file_clock",
};

// Bare functions flagged only when called: `time(`, `clock(`. Member access
// (`x.time()`) and non-std qualification (`foo::clock()`) are left alone.
const std::set<std::string, std::less<>> kClockCalls = {"time", "clock"};

void rule_det001(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Diagnostic>& diags, const SymbolIndex* index) {
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (kClockIdents.count(t.text) != 0) {
      add(diags, "DET001", path, t.line,
          "wall-clock source '" + t.text +
              "' breaks replay determinism; quarantine profiling code with "
              "'pcs-lint: allow-file(DET001) <reason>'" +
              flow_suffix(index, path, t.line));
      continue;
    }
    if (kClockCalls.count(t.text) == 0) continue;
    const Token* next = at(toks, i + 1);
    if (next == nullptr || !is_punct(*next, "(")) continue;
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (is_punct(prev, ".") || is_punct(prev, "->")) continue;
      if (is_punct(prev, "::") &&
          !(i >= 2 && is_ident(toks[i - 2], "std"))) {
        continue;
      }
    }
    add(diags, "DET001", path, t.line,
        "call to wall-clock function '" + t.text +
            "()' breaks replay determinism" +
            flow_suffix(index, path, t.line));
  }
}

// ---------------------------------------------------------------- DET002 --

// A file counts as "serializing" when it writes trace records or any other
// byte-compared output (figure text, JSONL, CSV); iteration order over
// unordered containers would leak hash-table layout into those bytes.
const std::set<std::string, std::less<>> kSerializeMarkers = {
    "TraceRecord", "TraceSink", "ofstream", "fstream", "cout",
    "printf",      "fprintf",   "fputs",    "puts",    "to_json",
    "serialize",
};

const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// Skips a balanced template-argument list starting at toks[i] == "<";
// returns the index one past the closing ">". Max-munch lexes ">>" as one
// token, which in this context closes two levels.
size_t skip_template_args(const std::vector<Token>& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ">")) {
      if (--depth == 0) return i + 1;
    } else if (is_punct(t, ">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (is_punct(t, ";")) {
      return i;  // malformed; bail out
    }
  }
  return i;
}

void rule_det002(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Diagnostic>& diags, const SymbolIndex* index) {
  // v1 firing condition: the file itself serializes. The index adds the
  // flow-aware condition per site: the enclosing function's values reach a
  // sink through helper calls even when this file never writes a byte.
  bool file_serializing = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && kSerializeMarkers.count(t.text) != 0) {
      file_serializing = true;
      break;
    }
  }
  if (!file_serializing && index == nullptr) return;

  // Pass 1: names with an unordered type. Covers direct declarations and
  // one level of `using Alias = std::unordered_map<...>;`.
  std::set<std::string> unordered_types(kUnorderedTypes.begin(),
                                        kUnorderedTypes.end());
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "using") || toks[i + 1].kind != TokKind::kIdent ||
        !is_punct(toks[i + 2], "=")) {
      continue;
    }
    for (size_t j = i + 3; j < toks.size() && !is_punct(toks[j], ";"); ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          unordered_types.count(toks[j].text) != 0) {
        unordered_types.insert(toks[i + 1].text);
        break;
      }
    }
  }
  std::set<std::string> unordered_vars;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        unordered_types.count(toks[i].text) == 0) {
      continue;
    }
    size_t j = i + 1;
    if (j < toks.size() && is_punct(toks[j], "<")) {
      j = skip_template_args(toks, j);
    }
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      unordered_vars.insert(toks[j].text);
    }
  }
  // Pass 1b: `auto m = std::unordered_map<...>{...};` -- the deduced type
  // never names the variable next to the template, so the declaration pass
  // above misses it (this was the structured-binding-range-for hole: the
  // subsequent `for (auto& [k, v] : m)` sailed through).
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "auto") || toks[i + 1].kind != TokKind::kIdent ||
        !is_punct(toks[i + 2], "=")) {
      continue;
    }
    for (size_t j = i + 3; j < toks.size() && !is_punct(toks[j], ";"); ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          unordered_types.count(toks[j].text) != 0) {
        unordered_vars.insert(toks[i + 1].text);
        break;
      }
    }
  }
  if (unordered_vars.empty()) return;

  // One site = one diagnostic: legacy wording when the file serializes,
  // flow wording (with the witness chain) when only the call graph reaches
  // a sink, nothing when neither holds.
  const auto report = [&](int line, const std::string& var,
                          const char* how) {
    if (file_serializing) {
      add(diags, "DET002", path, line,
          std::string(how) + " over unordered container '" + var +
              "' in a serializing file leaks hash-table order into "
              "output; copy into a sorted vector first");
      return;
    }
    std::string chain;
    if (!flow_serial(index, path, line, &chain)) return;
    add(diags, "DET002", path, line,
        std::string(how) + " over unordered container '" + var +
            "' leaks hash-table order into serialized output via " + chain +
            "; copy into a sorted vector first");
  };

  // Pass 2a: range-for whose range expression names an unordered variable
  // (structured-binding loop variables are irrelevant here: only the range
  // expression after ':' is inspected).
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    int depth = 0;
    size_t colon = 0;
    size_t close = toks.size();
    bool classic = false;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      if (is_punct(toks[j], "(")) {
        ++depth;
      } else if (is_punct(toks[j], ")")) {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (depth == 1 && is_punct(toks[j], ";")) {
        classic = true;  // classic for-loop, not a range-for
      } else if (depth == 1 && colon == 0 && is_punct(toks[j], ":")) {
        colon = j;
      }
    }
    if (classic || colon == 0) continue;
    for (size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          unordered_vars.count(toks[j].text) != 0) {
        report(toks[i].line, toks[j].text, "range-for");
        break;
      }
    }
  }

  // Pass 2b: explicit iterator loops: name.begin() / name.cbegin() / ...
  const std::set<std::string, std::less<>> kBegin = {"begin", "cbegin",
                                                     "rbegin", "crbegin"};
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent &&
        unordered_vars.count(toks[i].text) != 0 &&
        is_punct(toks[i + 1], ".") && toks[i + 2].kind == TokKind::kIdent &&
        kBegin.count(toks[i + 2].text) != 0 && is_punct(toks[i + 3], "(")) {
      report(toks[i].line, toks[i].text, "iterator");
    }
  }
}

// ---------------------------------------------------------------- DET003 --

const std::set<std::string, std::less<>> kRawEngines = {
    "random_device", "mt19937",        "mt19937_64",
    "minstd_rand",   "minstd_rand0",   "default_random_engine",
    "ranlux24",      "ranlux48",       "ranlux24_base",
    "ranlux48_base", "knuth_b",
};

const std::set<std::string, std::less<>> kRandCalls = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "srandom", "random"};

bool det003_exempt(const std::string& path) {
  return path_ends_with(path, "src/util/rng.hpp") ||
         path_ends_with(path, "src/util/rng.cpp");
}

void rule_det003(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Diagnostic>& diags) {
  if (det003_exempt(path)) return;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (kRawEngines.count(t.text) != 0) {
      add(diags, "DET003", path, t.line,
          "raw random engine '" + t.text +
              "' outside src/util/rng.*; all randomness must flow through "
              "derive_seed/Rng");
      continue;
    }
    if (kRandCalls.count(t.text) == 0) continue;
    const Token* next = at(toks, i + 1);
    if (next == nullptr || !is_punct(*next, "(")) continue;
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (is_punct(prev, ".") || is_punct(prev, "->")) continue;
      if (is_punct(prev, "::") &&
          !(i >= 2 && is_ident(toks[i - 2], "std"))) {
        continue;
      }
    }
    add(diags, "DET003", path, t.line,
        "call to unseeded/global RNG '" + t.text +
            "()'; all randomness must flow through derive_seed/Rng");
  }
}

// ---------------------------------------------------------------- DET005 --

// Scalar Rng draw methods. The batched fault pipeline (PR 5) draws through
// Rng::uniform_block/gaussian_block so the transcendental chain runs over
// contiguous arrays; a stray scalar draw in the fault hot path silently
// serializes it again. fork() and the *_block entry points stay allowed.
const std::set<std::string, std::less<>> kScalarDrawCalls = {
    "uniform", "gaussian", "next_u64", "uniform_int", "bernoulli"};

bool det005_hot_path(const std::string& path) {
  return path.find("src/fault/") != std::string::npos;
}

void rule_det005(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Diagnostic>& diags) {
  if (!det005_hot_path(path)) return;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_punct(toks[i], ".") && !is_punct(toks[i], "->")) continue;
    const Token& method = toks[i + 1];
    if (method.kind != TokKind::kIdent ||
        kScalarDrawCalls.count(method.text) == 0) {
      continue;
    }
    if (!is_punct(toks[i + 2], "(")) continue;
    add(diags, "DET005", path, method.line,
        "scalar Rng draw '" + method.text +
            "()' in the fault hot path; draw through uniform_block/"
            "gaussian_block (or annotate a reference implementation with "
            "'pcs-lint: allow(DET005) <reason>')");
  }
}

// ---------------------------------------------------------------- DET004 --

bool det004_exempt(const std::string& path) {
  return path_ends_with(path, "src/exp/experiment_runner.hpp") ||
         path_ends_with(path, "src/exp/experiment_runner.cpp");
}

void rule_det004(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Diagnostic>& diags, const SymbolIndex* index) {
  if (det004_exempt(path)) return;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "atomic") || !is_punct(toks[i + 1], "<")) continue;
    const size_t end = skip_template_args(toks, i + 1);
    for (size_t j = i + 2; j < end; ++j) {
      if (is_ident(toks[j], "float") || is_ident(toks[j], "double")) {
        add(diags, "DET004", path, toks[i].line,
            "std::atomic<" + toks[j].text +
                "> accumulation is order-dependent (float addition is not "
                "associative); reduce via RunAggregator instead" +
                flow_suffix(index, path, toks[i].line));
        break;
      }
    }
  }
}

// ---------------------------------------------------------------- DET006 --

// Thread-id and pointer-address values are scheduler/ASLR-dependent: two
// byte-identical replays differ the moment one lands in a report. Sites:
// this_thread::get_id() (or any get_id() call), reinterpret_cast to
// uintptr_t/intptr_t, and "%p" printf formats. With an index the rule fires
// only when the enclosing function is in a serial context; without one it
// degrades to the v1-style file-level serializing check.
void rule_det006(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Diagnostic>& diags, const SymbolIndex* index) {
  bool file_serializing = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && kSerializeMarkers.count(t.text) != 0) {
      file_serializing = true;
      break;
    }
  }
  // True when a nondeterministic identity value produced at `line` can
  // land in serialized bytes; fills `*chain` with the witness when the
  // index provides one.
  const auto serial_at = [&](int line, std::string* chain) {
    if (index != nullptr) {
      const FunctionDef* fn = index->enclosing(path, line);
      if (fn != nullptr) {
        if (!index->in_serial_context(fn->name)) return false;
        *chain = index->sink_chain(fn->name);
        return true;
      }
      // Namespace-scope token: no flow info, fall through to file level.
    }
    return file_serializing;
  };
  const auto report = [&](int line, const std::string& what) {
    std::string chain;
    if (!serial_at(line, &chain)) return;
    std::string msg = what +
                      " is scheduler/ASLR-dependent and must not reach "
                      "serialized output";
    if (!chain.empty()) msg += " (flows via " + chain + ")";
    msg += "; derive a stable id (shard index, lane number) instead";
    add(diags, "DET006", path, line, msg);
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kString && t.text.find("%p") != std::string::npos) {
      report(t.line, "pointer-address format \"%p\"");
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "get_id" && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      report(t.line, "thread-id value 'get_id()'");
      continue;
    }
    if (t.text == "reinterpret_cast" && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "<")) {
      const size_t end = skip_template_args(toks, i + 1);
      for (size_t j = i + 2; j < end; ++j) {
        if (is_ident(toks[j], "uintptr_t") || is_ident(toks[j], "intptr_t")) {
          report(t.line,
                 "pointer-address cast 'reinterpret_cast<" + toks[j].text +
                     ">'");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------- INV001 --

bool inv001_exempt(const std::string& path) {
  return path_ends_with(path, "src/core/mechanism.cpp") ||
         path_ends_with(path, "src/cache/cache_level.cpp");
}

const std::set<std::string, std::less<>> kAssignOps = {
    "=", "+=", "-=", "|=", "&=", "^=", "<<=", ">>="};

const std::set<std::string, std::less<>> kMutatingMethods = {
    "assign", "clear",        "resize", "push_back", "pop_back",
    "insert", "emplace_back", "erase",  "swap",      "shrink_to_fit"};

void rule_inv001(const std::string& path, const std::vector<Token>& toks,
                 std::vector<Diagnostic>& diags) {
  if (inv001_exempt(path)) return;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent ||
        (t.text != "faulty_bits_" && t.text != "faulty_bits")) {
      continue;
    }
    size_t j = i + 1;
    bool indexed = false;
    if (j < toks.size() && is_punct(toks[j], "[")) {
      indexed = true;
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (is_punct(toks[j], "[")) ++depth;
        if (is_punct(toks[j], "]") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    const Token* next = at(toks, j);
    if (next == nullptr) continue;
    bool mutation = false;
    if (next->kind == TokKind::kPunct && kAssignOps.count(next->text) != 0) {
      mutation = true;
    } else if (is_punct(*next, "++") || is_punct(*next, "--")) {
      mutation = true;
    } else if (!indexed &&
               (is_punct(*next, "(") || is_punct(*next, "{"))) {
      mutation = true;  // constructor-init-list write
    } else if (is_punct(*next, ".") || is_punct(*next, "->")) {
      const Token* method = at(toks, j + 1);
      const Token* paren = at(toks, j + 2);
      if (method != nullptr && method->kind == TokKind::kIdent &&
          kMutatingMethods.count(method->text) != 0 && paren != nullptr &&
          is_punct(*paren, "(")) {
        mutation = true;
      }
    }
    if (mutation) {
      add(diags, "INV001", path, t.line,
          "fault-map write to '" + t.text +
              "' outside the single-writer set (src/core/mechanism.cpp, "
              "src/cache/cache_level.cpp) breaks fault-inclusion");
    }
  }
}

}  // namespace

// -------------------------------------------------------------- registry --

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"DET001", "no wall-clock/time sources (replay determinism)"},
      {"DET002",
       "no unordered-container iteration in serializing files "
       "(ordering determinism)"},
      {"DET003", "all randomness flows through derive_seed/Rng"},
      {"DET004",
       "no float/double atomic accumulation outside RunAggregator "
       "(associativity determinism)"},
      {"DET005",
       "no scalar Rng draws in the fault hot path (src/fault/*); use the "
       "block draw APIs"},
      {"DET006",
       "no thread-id / pointer-address values flowing into serialized "
       "output (scheduler/ASLR determinism)"},
      {"INV001",
       "faulty-bits writes only in mechanism.cpp/cache_level.cpp "
       "(single-writer fault inclusion)"},
      {"INV002",
       "every PopulationSpec/PopulationGridSpec field appears in its "
       "canonical fingerprint string (checkpoint validity)"},
      {"SCHEMA001", "telemetry emissions match the TELEMETRY.md schema"},
      {"BUDGET001",
       "per-rule suppression counts match the committed .pcs-lint-budget "
       "ratchet"},
      {"LINT001", "malformed pcs-lint suppression annotation"},
  };
  return kRules;
}

bool is_known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_registry()) {
    if (id == r.id) return true;
  }
  return false;
}

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " + d.rule + ": " +
         d.message;
}

// ---------------------------------------------------------- suppressions --

bool Suppressions::active(const std::string& rule, int line) const {
  return file_rules.count(rule) != 0 ||
         line_rules.count({line, rule}) != 0;
}

namespace {

std::string trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

// The next line at or after `line` that holds a code token; annotations on
// their own line suppress that line.
int next_code_line(const std::vector<Token>& toks, int line) {
  int best = line;
  bool found = false;
  for (const Token& t : toks) {
    if (t.line >= line && (!found || t.line < best)) {
      best = t.line;
      found = true;
    }
  }
  return best;
}

}  // namespace

Suppressions collect_suppressions(const LexResult& lx, const std::string& file,
                                  std::vector<Diagnostic>& diags) {
  Suppressions sup;
  for (const Comment& c : lx.comments) {
    const size_t tag = c.text.find("pcs-lint:");
    if (tag == std::string::npos) continue;
    const std::string body = trim(c.text.substr(tag + 9));
    bool file_scope = false;
    std::string_view rest;
    if (body.rfind("fix(", 0) == 0) {
      // Scaffold marker left by --fix: suppresses nothing, but the rule ID
      // must be real so stale markers cannot rot unnoticed.
      const std::string_view marker = std::string_view(body).substr(4);
      const size_t mclose = marker.find(')');
      const std::string id =
          mclose == std::string_view::npos
              ? std::string(trim(marker))
              : trim(marker.substr(0, mclose));
      if (mclose == std::string_view::npos || !is_known_rule(id)) {
        add(diags, "LINT001", file, c.line,
            "malformed fix(RULE) scaffold marker; expected a known rule ID");
      }
      continue;
    }
    if (body.rfind("allow-file(", 0) == 0) {
      file_scope = true;
      rest = std::string_view(body).substr(11);
    } else if (body.rfind("allow(", 0) == 0) {
      rest = std::string_view(body).substr(6);
    } else {
      add(diags, "LINT001", file, c.line,
          "unknown pcs-lint directive '" + body.substr(0, body.find(' ')) +
              "'; expected allow(RULE) or allow-file(RULE)");
      continue;
    }
    const size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      add(diags, "LINT001", file, c.line,
          "unterminated rule list in pcs-lint annotation");
      continue;
    }
    const std::string reason = trim(rest.substr(close + 1));
    if (reason.empty()) {
      add(diags, "LINT001", file, c.line,
          "pcs-lint suppression requires a written reason after the rule "
          "list");
      continue;
    }
    // Comma-separated rule IDs.
    std::string rule_list(rest.substr(0, close));
    bool ok = true;
    std::vector<std::string> rules;
    size_t start = 0;
    while (start <= rule_list.size()) {
      const size_t comma = rule_list.find(',', start);
      const std::string id =
          trim(std::string_view(rule_list)
                   .substr(start, comma == std::string::npos
                                      ? std::string::npos
                                      : comma - start));
      if (!is_known_rule(id)) {
        add(diags, "LINT001", file, c.line,
            "unknown rule ID '" + id + "' in pcs-lint annotation");
        ok = false;
      } else {
        rules.push_back(id);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (!ok || rules.empty()) continue;
    for (const std::string& id : rules) {
      ++sup.counts[id];  // feeds the BUDGET001 ratchet
      if (file_scope) {
        sup.file_rules.insert(id);
      } else if (c.trailing) {
        sup.line_rules.insert({c.line, id});
      } else {
        sup.line_rules.insert(
            {next_code_line(lx.tokens, c.end_line + 1), id});
      }
    }
  }
  return sup;
}

// ----------------------------------------------------------- rule driver --

void lint_tokens(const std::string& rel_path, const LexResult& lx,
                 const std::set<std::string>& rules,
                 std::vector<Diagnostic>& diags, const SymbolIndex* index) {
  const auto want = [&rules](const char* id) {
    return rules.empty() || rules.count(id) != 0;
  };
  if (want("DET001")) rule_det001(rel_path, lx.tokens, diags, index);
  if (want("DET002")) rule_det002(rel_path, lx.tokens, diags, index);
  if (want("DET003")) rule_det003(rel_path, lx.tokens, diags);
  if (want("DET004")) rule_det004(rel_path, lx.tokens, diags, index);
  if (want("DET005")) rule_det005(rel_path, lx.tokens, diags);
  if (want("DET006")) rule_det006(rel_path, lx.tokens, diags, index);
  if (want("INV001")) rule_inv001(rel_path, lx.tokens, diags);
}

}  // namespace pcs_lint
