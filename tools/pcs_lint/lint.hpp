#pragma once

// pcs-lint: determinism & invariant static analysis for the pcs-cache tree.
//
// v2 is a two-pass, cross-translation-unit flow analysis. Pass 1 (index.cpp)
// builds a symbol index over every scanned file: function definitions, call
// edges, which functions hold a *serializing sink* (telemetry emit, JSONL/CSV
// writers, checkpoint saves, job-service reply lines), plus the struct-field
// and fingerprint-function shapes INV002 compares. Pass 2 (rules.cpp) re-runs
// the token rules flow-aware: a wall-clock read, unordered iteration, or
// atomic-float reduction is reported with (or because of) the call chain that
// carries its value into serialized output, not just when it textually sits
// in a serializing file.
//
// Each rule has a stable ID, reports `file:line: ID: message` diagnostics,
// and can be silenced per line or per file with an annotation that must
// carry a written reason:
//
//   // pcs-lint: allow(DET001) reason why this line is exempt
//   // pcs-lint: allow-file(DET001) reason why the whole file is exempt
//
// A trailing annotation suppresses its own line; an annotation on a line of
// its own suppresses the next line that holds code. Annotations with an
// unknown rule ID or no reason are themselves diagnosed (LINT001). A
// `// pcs-lint: fix(RULE) ...` comment is a scaffold marker left by --fix;
// it suppresses nothing and is legal with any known rule ID.
//
// Rules (see DESIGN.md §10 for the contract they enforce):
//   DET001    no wall-clock/time sources (system_clock, steady_clock, time(),
//             ...) -- replay determinism; flow-aware: the diagnostic names
//             the call chain to the sink when one exists
//   DET002    no iteration over unordered containers whose order can reach
//             trace records or serialized output -- directly in a
//             serializing file, or through helper calls (flow-aware)
//   DET003    no std::rand / random_device / local std::mt19937 outside
//             src/util/rng.* -- all randomness flows through derive_seed/Rng
//   DET004    no float/double std::atomic accumulation outside RunAggregator
//             (src/exp/experiment_runner.*) -- associativity determinism;
//             flow-aware like DET001
//   DET005    no scalar Rng draws in the fault hot path (src/fault/*)
//   DET006    no thread-id / pointer-address values flowing into serialized
//             output (this_thread::get_id, reinterpret_cast<uintptr_t>,
//             "%p" format strings) -- scheduler/ASLR-dependent bytes
//   INV001    faulty-bits writes only in src/core/mechanism.cpp and
//             src/cache/cache_level.cpp -- single-writer fault inclusion
//   INV002    every field of PopulationSpec / PopulationGridSpec must appear
//             in the canonical fingerprint string (grid_canonical; the
//             kFingerprintContracts table) -- a forgotten field lets a stale
//             checkpoint resume under a changed spec
//   SCHEMA001 telemetry record/field string literals in src/ must match the
//             TELEMETRY.md schema appendix, both directions, and the
//             documented schema version must match kTelemetrySchemaVersion
//   BUDGET001 the committed per-rule suppression budget (.pcs-lint-budget)
//             must equal the tree's actual suppression counts -- the budget
//             is a ratchet: any change to it shows up in review
//   LINT001   malformed pcs-lint suppression annotation

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace pcs_lint {

struct Diagnostic {
  std::string rule;
  std::string file;  // path relative to the scan root
  int line = 0;
  std::string message;
};

std::string format(const Diagnostic& d);

struct RuleInfo {
  const char* id;
  const char* summary;
};

const std::vector<RuleInfo>& rule_registry();
bool is_known_rule(const std::string& id);

// -- Suppressions ----------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_rules;
  std::set<std::pair<int, std::string>> line_rules;
  // Annotations successfully parsed, per rule (line + file scope); feeds
  // the BUDGET001 ratchet.
  std::map<std::string, int> counts;

  bool active(const std::string& rule, int line) const;
};

// Parses `pcs-lint:` annotations out of the comment stream. Malformed
// annotations append LINT001 diagnostics (which are never suppressible).
Suppressions collect_suppressions(const LexResult& lx, const std::string& file,
                                  std::vector<Diagnostic>& diags);

// -- Symbol index (pass 1, index.cpp) --------------------------------------

// One function definition found by the indexer (token-level heuristic:
// `name ( ... ) [qualifiers] [-> type] [: init-list] {`).
struct FunctionDef {
  std::string name;  // bare name, last ::-qualified component
  std::string file;
  int line = 0;           // line of the name token
  int body_end_line = 0;  // line of the closing brace
  std::vector<std::string> calls;  // bare callee names, deduped, sorted
  // Non-empty when the body holds a serializing marker directly (the
  // marker/callee identifier, e.g. "printf", "ostream", "emit").
  std::string direct_sink;
};

// INV002 contract: spec struct -> the canonical fingerprint function that
// must mention every one of its fields, or a stale checkpoint can resume
// under a silently-changed spec (DESIGN.md §10). Pass 1 indexes exactly
// these structs and functions; pass 2 compares them. PopulationSpec is the
// base of every PopulationGridSpec, so grid_canonical covers both.
struct FingerprintContract {
  const char* struct_name;
  const char* canonical_fn;
};
inline constexpr FingerprintContract kFingerprintContracts[] = {
    {"PopulationSpec", "grid_canonical"},
    {"PopulationGridSpec", "grid_canonical"},
};

// Struct field or canonical-function shape captured for INV002.
struct IndexedField {
  std::string name;
  std::string file;
  int line = 0;
};

struct SymbolIndex {
  std::vector<FunctionDef> defs;
  // Contract structs (PopulationSpec, ...) -> fields, in declaration order.
  std::map<std::string, std::vector<IndexedField>> struct_fields;
  // Canonical fingerprint functions -> every identifier in the body.
  std::map<std::string, std::set<std::string>> fingerprint_idents;
  std::map<std::string, IndexedField> fingerprint_sites;

  // Derived by finalize_index():
  // name -> next hop toward a sink ("" = none): either a callee name or,
  // for direct sinks, the marker identifier.
  std::map<std::string, std::string> toward_sink;
  // name -> a caller on a witness path into serialized output, for values
  // that flow *out* of a function into a serializing caller.
  std::map<std::string, std::string> serial_caller;

  // Does a value computed in `fn` plausibly reach serialized output --
  // either because fn transitively calls a sink, or because a transitive
  // caller of fn does?
  bool in_serial_context(const std::string& fn) const;
  // "fn -> helper -> printf" (or "called from caller -> ... -> sink" for
  // the caller direction); "" when fn is not in a serial context.
  std::string sink_chain(const std::string& fn) const;
  // Innermost indexed function span covering file:line, or nullptr.
  const FunctionDef* enclosing(const std::string& file, int line) const;
};

// Pass 1 over one lexed file: records function definitions, call edges,
// sink markers, and the INV002 struct/fingerprint shapes.
void index_file(const std::string& rel_path, const LexResult& lx,
                SymbolIndex& index);

// Computes sink reachability (both directions) over the accumulated call
// graph. Call once, after every file has been indexed.
void finalize_index(SymbolIndex& index);

// -- Token rules (DET001..DET006, INV001) ----------------------------------

// Runs every token rule in `rules` (empty set = all) over one lexed file.
// `rel_path` uses forward slashes relative to the scan root; path-based
// exemptions (rng.*, mechanism.cpp, ...) key off it. Diagnostics are
// appended unfiltered; the caller applies suppressions. `index` (nullable)
// enables the flow-aware firing conditions and call-chain messages; without
// it the rules degrade to the v1 token-only behavior.
void lint_tokens(const std::string& rel_path, const LexResult& lx,
                 const std::set<std::string>& rules,
                 std::vector<Diagnostic>& diags,
                 const SymbolIndex* index = nullptr);

// -- INV002 (flow.cpp) -----------------------------------------------------

// Compares every contract struct's fields against its canonical fingerprint
// function over the finalized index. Full-tree scans only (a partial scan
// cannot see both sides).
void check_fingerprints(const SymbolIndex& index,
                        std::vector<Diagnostic>& diags);

// -- BUDGET001 (flow.cpp) --------------------------------------------------

// Compares the committed budget file (content in `budget_text`, reported as
// `budget_rel_path`) against the actual per-rule suppression counts. The
// budget is an exact ratchet: over OR under budget is a diagnostic, so any
// suppression change forces a reviewed budget-file edit.
void check_suppression_budget(const std::string& budget_text,
                              const std::string& budget_rel_path,
                              const std::map<std::string, int>& counts,
                              std::vector<Diagnostic>& diags);

// -- SCHEMA001 -------------------------------------------------------------

struct SchemaUse {
  std::string name;
  std::string file;
  int line = 0;
};

// Telemetry emissions accumulated over every scanned src/ file.
struct SchemaScan {
  std::vector<SchemaUse> types;   // TraceRecord rec("type") literals
  std::vector<SchemaUse> fields;  // .field("name") literals
  long version = -1;              // kTelemetrySchemaVersion = N
  std::string version_file;
  int version_line = 0;
};

void scan_schema_uses(const std::string& rel_path, const LexResult& lx,
                      SchemaScan& scan);

// Compares the accumulated emissions against the ```schema-fields appendix
// of TELEMETRY.md (content in `telemetry_md`, reported as `md_rel_path`).
// `both_directions` additionally reports documented-but-never-emitted
// entries; it is disabled when only an explicit subset of files was scanned.
void check_schema(const std::string& telemetry_md,
                  const std::string& md_rel_path, const SchemaScan& scan,
                  bool both_directions, std::vector<Diagnostic>& diags);

// -- Driver ----------------------------------------------------------------

struct LintOptions {
  std::string root = ".";
  // Explicit files to scan (relative to root). Empty = walk the default
  // directories (src, bench, tests, examples) under root.
  std::vector<std::string> files;
  // Rule filter; empty = all rules.
  std::set<std::string> rules;
  // Suppression-budget file, relative to root; "" = the committed default
  // (.pcs-lint-budget). A missing file disables BUDGET001.
  std::string budget_path;
};

struct LintResult {
  std::vector<Diagnostic> diags;
  int files_scanned = 0;
  std::vector<std::string> io_errors;  // unreadable paths
  // Successfully parsed suppression annotations per rule, tree-wide.
  std::map<std::string, int> suppression_counts;
};

LintResult run_lint(const LintOptions& opts);

// One scanned file, as resolved by the driver's file walk.
struct LintFile {
  std::string abs;  // readable path (root-joined or absolute as given)
  std::string rel;  // forward-slash path relative to root (diagnostic key)
};

// Resolves opts.root/opts.files to the sorted, deduplicated file list that
// run_lint scans. Shared with the --fix engine.
std::vector<LintFile> collect_lint_files(const LintOptions& opts);

// Renders a LintResult as stable machine-readable JSON (--format=json):
// {"version":1,"files_scanned":N,"diagnostics":[{"rule","file","line",
// "message"},...],"suppressions":{"RULE":N,...}}.
std::string render_json(const LintResult& result);

// -- --fix (fix.cpp) -------------------------------------------------------

struct FixEdit {
  std::string file;  // path relative to the scan root
  int line = 0;      // line the edit anchors to (pre-edit numbering)
  std::string kind;  // "LINT001 normalization" or "DET002 scaffold"
};

struct FixResult {
  std::vector<std::string> changed_files;  // rel paths, sorted
  std::vector<FixEdit> edits;
  std::vector<std::string> io_errors;
};

// Applies the mechanically safe rewrites in place and idempotently (a
// second run is a no-op): canonicalizes misspelt-but-unambiguous
// suppression annotations (LINT001: directive case, stray spacing), and
// inserts a commented sorted-drain scaffold above each DET002 range-for.
// Unfixable diagnostics (unknown rules, missing reasons) are left alone.
FixResult apply_fixes(const LintOptions& opts);

}  // namespace pcs_lint
