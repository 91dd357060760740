// Pass 1 of the v2 flow engine: a token-level symbol index. From each
// scanned file it records (a) function definitions with their body spans,
// (b) the bare names each body calls, (c) whether the body holds a
// serializing marker (so the function is a *sink*), and (d) the struct
// fields / fingerprint-function identifiers INV002 compares. finalize_index
// then closes the call graph both ways: a function is "in a serial context"
// when a value computed in it can plausibly reach serialized output --
// either it transitively calls a sink, or a transitive caller of it does
// (its return value / side effects feed a function that serializes).
//
// The parser is deliberately AST-lite: it recognizes the definition shape
// `name ( params ) [qualifiers] [-> type] [: init-list] {`, skips whole
// function bodies while harvesting calls, and treats everything it cannot
// classify conservatively. Collisions on bare names merge their call edges,
// which can only widen reachability -- a linter-appropriate bias.

#include <algorithm>
#include <cstddef>
#include <string_view>

#include "lint.hpp"

namespace pcs_lint {
namespace {

using std::size_t;

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// Identifiers that look like calls (`name (`) but never are.
const std::set<std::string, std::less<>> kNotCalls = {
    "if",          "for",           "while",    "switch",   "catch",
    "return",      "sizeof",        "alignof",  "alignas",  "decltype",
    "noexcept",    "static_assert", "assert",   "defined",  "throw",
    "new",         "delete",        "co_await", "co_yield", "co_return",
    "constexpr",   "requires",      "typeid",   "explicit", "operator",
};

// Identifiers whose presence in a body marks it as a serializing sink:
// trace emission, stream/file writers, stdio, the checkpoint writer, the
// binary .pcst trace encoder. A function *taking* an ostream counts --
// that is exactly the report renderers' shape.
const std::set<std::string, std::less<>> kSinkMarkers = {
    "TraceRecord", "TraceSink", "ofstream",   "fstream", "ostream",
    "cout",        "printf",    "fprintf",    "fputs",   "puts",
    "to_json",     "serialize", "PcstWriter",
};

// Callee names treated as sinks even when their definition is not in the
// scanned set (cross-tree robustness for the canonical entry points).
const std::set<std::string, std::less<>> kSinkCalls = {
    "emit", "save_population_checkpoint"};

bool is_contract_struct(std::string_view name) {
  for (const auto& c : kFingerprintContracts) {
    if (name == c.struct_name) return true;
  }
  return false;
}

bool is_contract_fn(std::string_view name) {
  for (const auto& c : kFingerprintContracts) {
    if (name == c.canonical_fn) return true;
  }
  return false;
}

// Index one past the punctuator matching toks[i] (an `open`), honoring
// nesting of the same pair. Returns toks.size() when unbalanced.
size_t match_group(const std::vector<Token>& toks, size_t i,
                   std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], open)) ++depth;
    if (is_punct(toks[i], close) && --depth == 0) return i + 1;
  }
  return toks.size();
}

// Skips a balanced template-argument list starting at toks[i] == "<";
// max-munch lexes ">>" as one token, which closes two levels here.
size_t skip_angles(const std::vector<Token>& toks, size_t i) {
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
    } else if (is_punct(t, ";") || is_punct(t, "{")) {
      return i;  // not template args after all; bail out
    }
  }
  return i;
}

// Given toks[close_paren] == ")" ending a parameter list, walks the
// qualifier tail (`const noexcept override`, a trailing return, a ctor
// init list) and returns the index of the body's `{`, or npos when the
// shape is a declaration/expression instead of a definition.
constexpr size_t npos = static_cast<size_t>(-1);

size_t find_body_brace(const std::vector<Token>& toks, size_t after_params) {
  size_t j = after_params;
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (is_punct(t, "{")) return j;
    if (is_punct(t, ";") || is_punct(t, "=") || is_punct(t, ",") ||
        is_punct(t, ")")) {
      return npos;
    }
    if (is_ident(t, "const") || is_ident(t, "mutable") ||
        is_ident(t, "override") || is_ident(t, "final") ||
        is_ident(t, "try")) {
      ++j;
      continue;
    }
    if (is_ident(t, "noexcept") || is_ident(t, "requires")) {
      ++j;
      if (j < toks.size() && is_punct(toks[j], "(")) {
        j = match_group(toks, j, "(", ")");
      }
      continue;
    }
    if (is_punct(t, "&") || is_punct(t, "&&") || is_punct(t, "*") ||
        is_punct(t, "::") || t.kind == TokKind::kIdent ||
        is_punct(t, "->")) {
      ++j;  // trailing-return type tokens and qualifiers
      continue;
    }
    if (is_punct(t, "<")) {
      j = skip_angles(toks, j);
      continue;
    }
    if (is_punct(t, ":")) {
      // Constructor init list: `: member(args), member{args}, ... {`.
      ++j;
      while (j < toks.size()) {
        while (j < toks.size() && (toks[j].kind == TokKind::kIdent ||
                                   is_punct(toks[j], "::"))) {
          ++j;
        }
        if (j < toks.size() && is_punct(toks[j], "<")) {
          j = skip_angles(toks, j);
        }
        if (j >= toks.size()) return npos;
        if (is_punct(toks[j], "(")) {
          j = match_group(toks, j, "(", ")");
        } else if (is_punct(toks[j], "{")) {
          j = match_group(toks, j, "{", "}");
        } else {
          return npos;
        }
        if (j < toks.size() && is_punct(toks[j], "...")) ++j;  // pack expand
        if (j < toks.size() && is_punct(toks[j], ",")) {
          ++j;
          continue;
        }
        break;
      }
      continue;
    }
    return npos;
  }
  return npos;
}

// Harvests call edges, sink markers, and (for fingerprint functions) the
// full identifier set out of a body token range [begin, end).
void harvest_body(const std::vector<Token>& toks, size_t begin, size_t end,
                  FunctionDef& def, std::set<std::string>* idents) {
  std::set<std::string> calls;
  for (size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (idents != nullptr) idents->insert(t.text);
    if (def.direct_sink.empty() && kSinkMarkers.count(t.text) != 0) {
      def.direct_sink = t.text;
    }
    if (i + 1 < end && is_punct(toks[i + 1], "(") &&
        kNotCalls.count(t.text) == 0) {
      if (kSinkCalls.count(t.text) != 0 && def.direct_sink.empty()) {
        def.direct_sink = t.text;
      }
      calls.insert(t.text);
    }
  }
  def.calls.assign(calls.begin(), calls.end());
}

// Parses the body of a contract struct starting at its `{` (index `open`),
// recording instance-field names. Methods (any `(` before the terminating
// `;`), nested types, and static/using members are skipped.
size_t harvest_struct_fields(const std::string& rel_path,
                             const std::vector<Token>& toks, size_t open,
                             std::vector<IndexedField>& fields) {
  const size_t close = match_group(toks, open, "{", "}");
  size_t i = open + 1;
  while (i + 1 < close) {
    // One member statement at class depth 1.
    bool method = false;
    bool skip = false;
    std::string cand;
    int cand_line = 0;
    std::string last_ident;
    int last_line = 0;
    bool first = true;
    while (i + 1 < close) {
      const Token& t = toks[i];
      if (t.kind == TokKind::kIdent) {
        if (first && (t.text == "using" || t.text == "typedef" ||
                      t.text == "friend" || t.text == "static" ||
                      t.text == "struct" || t.text == "class" ||
                      t.text == "enum" || t.text == "union" ||
                      t.text == "public" || t.text == "private" ||
                      t.text == "protected" || t.text == "template")) {
          skip = true;
        }
        first = false;
        if (t.text != "const" && t.text != "constexpr" &&
            t.text != "inline" && t.text != "volatile") {
          last_ident = t.text;
          last_line = t.line;
        }
        ++i;
        continue;
      }
      first = false;
      if (is_punct(t, "<")) {
        i = skip_angles(toks, i);
        continue;
      }
      if (is_punct(t, "(")) {
        method = true;
        i = match_group(toks, i, "(", ")");
        continue;
      }
      if (is_punct(t, "=") && cand.empty()) {
        cand = last_ident;
        cand_line = last_line;
        ++i;
        continue;
      }
      if (is_punct(t, "{")) {
        // Brace initializer of a field, or a method/nested-type body.
        if (!method && !skip && cand.empty()) {
          cand = last_ident;
          cand_line = last_line;
        }
        i = match_group(toks, i, "{", "}");
        if (method || skip) break;  // inline body ends the member
        continue;
      }
      if (is_punct(t, ";")) {
        ++i;
        break;
      }
      ++i;  // punctuation inside the declarator (::, &, *, labels, ...)
    }
    if (!method && !skip) {
      if (cand.empty()) {
        cand = last_ident;
        cand_line = last_line;
      }
      if (!cand.empty()) fields.push_back({cand, rel_path, cand_line});
    }
  }
  return close;
}

}  // namespace

void index_file(const std::string& rel_path, const LexResult& lx,
                SymbolIndex& index) {
  const std::vector<Token>& toks = lx.tokens;
  size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    // Contract struct definition: `struct Name ... {`.
    if ((is_ident(t, "struct") || is_ident(t, "class")) &&
        i + 1 < toks.size() && toks[i + 1].kind == TokKind::kIdent &&
        is_contract_struct(toks[i + 1].text)) {
      size_t j = i + 2;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";")) {
        ++j;
      }
      if (j < toks.size() && is_punct(toks[j], "{")) {
        i = harvest_struct_fields(rel_path, toks, j,
                                  index.struct_fields[toks[i + 1].text]);
        continue;
      }
    }
    // Function definition: bare name, `(`, matched `)`, then a body brace.
    if (t.kind == TokKind::kIdent && kNotCalls.count(t.text) == 0 &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      const size_t after_params = match_group(toks, i + 1, "(", ")");
      const size_t body = after_params < toks.size()
                              ? find_body_brace(toks, after_params)
                              : npos;
      if (body != npos) {
        const size_t body_end = match_group(toks, body, "{", "}");
        FunctionDef def;
        def.name = t.text;
        def.file = rel_path;
        def.line = t.line;
        def.body_end_line =
            body_end > 0 && body_end <= toks.size()
                ? toks[body_end - 1].line
                : t.line;
        std::set<std::string>* idents = nullptr;
        if (is_contract_fn(def.name)) {
          idents = &index.fingerprint_idents[def.name];
          index.fingerprint_sites[def.name] = {def.name, rel_path, t.line};
        }
        harvest_body(toks, body + 1, body_end, def, idents);
        index.defs.push_back(std::move(def));
        i = body_end;
        continue;
      }
    }
    ++i;
  }
}

void finalize_index(SymbolIndex& index) {
  // Merge defs by bare name into call edges + direct-sink labels.
  std::map<std::string, std::set<std::string>> calls;
  std::map<std::string, std::string> direct;
  std::map<std::string, std::set<std::string>> callers;
  for (const FunctionDef& def : index.defs) {
    auto& edge = calls[def.name];
    edge.insert(def.calls.begin(), def.calls.end());
    if (!def.direct_sink.empty() && direct[def.name].empty()) {
      direct[def.name] = def.direct_sink;
    }
    for (const std::string& callee : def.calls) {
      callers[callee].insert(def.name);
    }
  }

  // Forward closure: toward_sink[f] = next hop on a witness chain from f
  // to a sink. Deterministic worklist (ordered sets, sorted seeds).
  index.toward_sink.clear();
  std::vector<std::string> work;
  for (const auto& [name, marker] : direct) {
    if (marker.empty()) continue;
    index.toward_sink[name] = marker;
    work.push_back(name);
  }
  std::sort(work.begin(), work.end());
  for (size_t w = 0; w < work.size(); ++w) {
    const std::string reached = work[w];
    const auto it = callers.find(reached);
    if (it == callers.end()) continue;
    for (const std::string& caller : it->second) {
      if (index.toward_sink.emplace(caller, reached).second) {
        work.push_back(caller);
      }
    }
  }
  // Calls to the canonical sink names count even without a definition.
  for (const auto& [name, edge] : calls) {
    if (index.toward_sink.count(name) != 0) continue;
    for (const std::string& callee : edge) {
      if (index.toward_sink.count(callee) != 0) {
        index.toward_sink[callee.empty() ? name : name] = callee;
        work.push_back(name);
        break;
      }
    }
  }
  for (size_t w = 0; w < work.size(); ++w) {
    const auto it = callers.find(work[w]);
    if (it == callers.end()) continue;
    for (const std::string& caller : it->second) {
      if (index.toward_sink.emplace(caller, work[w]).second) {
        work.push_back(caller);
      }
    }
  }

  // Caller closure: serial_caller[f] = a caller of f that is itself in a
  // serial context (its values reach output, so f's results may too).
  index.serial_caller.clear();
  std::vector<std::string> cwork;
  for (const auto& [name, hop] : index.toward_sink) {
    (void)hop;
    cwork.push_back(name);
  }
  std::sort(cwork.begin(), cwork.end());
  for (size_t w = 0; w < cwork.size(); ++w) {
    const auto it = calls.find(cwork[w]);
    if (it == calls.end()) continue;
    for (const std::string& callee : it->second) {
      if (index.toward_sink.count(callee) != 0) continue;  // already forward
      if (index.serial_caller.emplace(callee, cwork[w]).second) {
        cwork.push_back(callee);
      }
    }
  }
}

bool SymbolIndex::in_serial_context(const std::string& fn) const {
  return toward_sink.count(fn) != 0 || serial_caller.count(fn) != 0;
}

std::string SymbolIndex::sink_chain(const std::string& fn) const {
  // Forward chain: fn -> callee -> ... -> marker.
  const auto forward = [this](const std::string& from) {
    std::string chain = from;
    std::string cur = from;
    for (int hops = 0; hops < 16; ++hops) {
      const auto it = toward_sink.find(cur);
      if (it == toward_sink.end()) break;
      chain += " -> " + it->second;
      if (toward_sink.count(it->second) == 0) break;  // reached the marker
      cur = it->second;
    }
    return chain;
  };
  if (toward_sink.count(fn) != 0) return forward(fn);
  const auto it = serial_caller.find(fn);
  if (it == serial_caller.end()) return std::string();
  // Walk up to a caller with a forward chain, then print it.
  std::string cur = it->second;
  for (int hops = 0; hops < 16; ++hops) {
    if (toward_sink.count(cur) != 0) {
      return "caller " + forward(cur);
    }
    const auto up = serial_caller.find(cur);
    if (up == serial_caller.end()) break;
    cur = up->second;
  }
  return "caller " + cur;
}

const FunctionDef* SymbolIndex::enclosing(const std::string& file,
                                          int line) const {
  const FunctionDef* best = nullptr;
  for (const FunctionDef& def : defs) {
    if (def.file != file || line < def.line || line > def.body_end_line) {
      continue;
    }
    if (best == nullptr ||
        def.body_end_line - def.line < best->body_end_line - best->line) {
      best = &def;
    }
  }
  return best;
}

}  // namespace pcs_lint
