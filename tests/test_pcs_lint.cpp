// pcs-lint engine tests: runs the linter against the fixture corpus under
// tools/pcs_lint/fixtures and asserts exact diagnostic IDs and lines,
// including suppression-annotation handling, the v2 flow analysis
// (cross-file sink reachability), INV002 fingerprint completeness, the
// BUDGET001 suppression ratchet, --fix idempotency, and JSON rendering.
// The corpus has at least one true positive (bad_tree) and one clean case
// (good_tree) per rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using pcs_lint::Diagnostic;
using pcs_lint::LintOptions;
using pcs_lint::LintResult;

std::vector<std::string> keys(const LintResult& result) {
  std::vector<std::string> out;
  out.reserve(result.diags.size());
  for (const Diagnostic& d : result.diags) {
    out.push_back(d.rule + "@" + d.file + ":" + std::to_string(d.line));
  }
  return out;
}

LintResult lint_tree(const std::string& tree) {
  LintOptions opts;
  opts.root = std::string(PCS_LINT_FIXTURES) + "/" + tree;
  return pcs_lint::run_lint(opts);
}

TEST(PcsLint, BadTreeReportsExactDiagnostics) {
  const LintResult result = lint_tree("bad_tree");
  EXPECT_EQ(result.files_scanned, 13);
  EXPECT_TRUE(result.io_errors.empty());
  const std::vector<std::string> expected = {
      "BUDGET001@.pcs-lint-budget:1",      // stale DET001 budget entry
      "BUDGET001@.pcs-lint-budget:4",      // unknown rule DET999
      "DET002@src/det002_unordered.cpp:20",  // auto-declared u-map range-for
      "INV002@src/exp/inv002_fingerprint.cpp:10",  // drift_mv not in canon
      "DET006@src/flow/det006_identity.cpp:10",  // get_id -> sink
      "DET006@src/flow/det006_identity.cpp:15",  // "%p" in a direct sink
      "DET006@src/flow/det006_identity.cpp:19",  // uintptr_t cast -> sink
      "DET001@src/flow/helpers.cpp:11",    // clock read, sink via caller
      "DET002@src/flow/helpers.cpp:21",    // u-map range-for, sink via caller
      "DET004@src/flow/helpers.cpp:30",    // atomic<double> feeding a sink
      "DET001@src/flow/pcst_record.cpp:16",  // clock -> PcstWriter sink
      "SCHEMA001@TELEMETRY.md:3",          // version mismatch (doc 1, src 2)
      "SCHEMA001@TELEMETRY.md:6",          // field 'spooky' never emitted
      "SCHEMA001@TELEMETRY.md:6",          // type 'ghost' never emitted
      "DET001@src/det001_clock.cpp:6",     // steady_clock
      "DET001@src/det001_clock.cpp:7",     // system_clock
      "DET001@src/det001_clock.cpp:10",    // time(nullptr)
      "DET002@src/det002_unordered.cpp:8",   // range-for over u-map
      "DET002@src/det002_unordered.cpp:11",  // .begin() on u-set
      "DET003@src/det003_rng.cpp:6",       // local mt19937
      "DET003@src/det003_rng.cpp:7",       // random_device
      "DET003@src/det003_rng.cpp:9",       // std::rand()
      "DET004@src/det004_atomic.cpp:4",    // atomic<double>
      "DET005@src/fault/det005_scalar_draw.cpp:5",   // rng.uniform()
      "DET005@src/fault/det005_scalar_draw.cpp:6",   // rng.gaussian(mu, s)
      "DET005@src/fault/det005_scalar_draw.cpp:7",   // prng->next_u64()
      "DET005@src/fault/det005_scalar_draw.cpp:8",   // rng.uniform_int(8)
      "DET005@src/fault/det005_scalar_draw.cpp:9",   // rng.bernoulli(0.5)
      "INV001@src/inv001_writer.cpp:7",    // faulty_bits_[set] |=
      "INV001@src/inv001_writer.cpp:8",    // faulty_bits_.clear()
      "LINT001@src/lint001_suppress.cpp:5",   // allow() without reason
      "DET001@src/lint001_suppress.cpp:6",    // ... so nothing suppressed
      "LINT001@src/lint001_suppress.cpp:8",   // unknown rule ID
      "DET001@src/lint001_suppress.cpp:9",
      "LINT001@src/lint001_suppress.cpp:11",  // unknown directive
      "DET001@src/lint001_suppress.cpp:12",
      "SCHEMA001@src/telemetry/emit.cpp:8",  // undocumented record type
      "SCHEMA001@src/telemetry/emit.cpp:9",  // undocumented field
  };
  std::vector<std::string> want = expected;
  std::sort(want.begin(), want.end());
  std::vector<std::string> got = keys(result);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  for (const Diagnostic& d : result.diags) {
    EXPECT_FALSE(d.message.empty()) << d.rule << " at " << d.file;
  }
}

TEST(PcsLint, GoodTreeIsClean) {
  // One clean case per rule: quarantined wall clock (file and line scoped),
  // sorted-drain of an unordered map in a serializing file, Rng facade use
  // plus raw engines inside src/util/rng.*, atomic<double> inside the
  // RunAggregator home, faulty-bits writes inside the single-writer set,
  // block/fork Rng use (plus an annotated scalar reference) in the fault hot
  // path, and fully documented telemetry emissions.
  const LintResult result = lint_tree("good_tree");
  EXPECT_EQ(result.files_scanned, 12);
  EXPECT_TRUE(result.io_errors.empty());
  EXPECT_EQ(keys(result), std::vector<std::string>{});
  // The suppression counts the budget file ratchets against.
  EXPECT_EQ(result.suppression_counts.at("DET001"), 3);
  EXPECT_EQ(result.suppression_counts.at("DET005"), 1);
}

TEST(PcsLint, RuleFilterRestrictsDiagnostics) {
  LintOptions opts;
  opts.root = std::string(PCS_LINT_FIXTURES) + "/bad_tree";
  opts.rules = {"INV001"};
  const LintResult result = pcs_lint::run_lint(opts);
  const std::vector<std::string> want = {"INV001@src/inv001_writer.cpp:7",
                                         "INV001@src/inv001_writer.cpp:8"};
  EXPECT_EQ(keys(result), want);
}

TEST(PcsLint, SchemaOnlyModeMatchesLegacyDocsGate) {
  LintOptions opts;
  opts.root = std::string(PCS_LINT_FIXTURES) + "/bad_tree";
  opts.rules = {"SCHEMA001"};
  const LintResult result = pcs_lint::run_lint(opts);
  const std::vector<std::string> want = {
      "SCHEMA001@TELEMETRY.md:3", "SCHEMA001@TELEMETRY.md:6",
      "SCHEMA001@TELEMETRY.md:6", "SCHEMA001@src/telemetry/emit.cpp:8",
      "SCHEMA001@src/telemetry/emit.cpp:9"};
  EXPECT_EQ(keys(result), want);
}

// Token-level properties of the scanner itself: rule matching must key off
// identifier tokens, never comment or string-literal text.
TEST(PcsLint, CommentsAndStringsDoNotTrip) {
  const char* src =
      "// chosen over std::mt19937_64 for reproducibility\n"
      "/* steady_clock would be wrong here */\n"
      "const char* kName = \"random_device\";\n"
      "int faulty_bits_doc = 0;  // mentions faulty_bits_ in a comment\n";
  const pcs_lint::LexResult lx = pcs_lint::lex(src);
  std::vector<Diagnostic> diags;
  pcs_lint::lint_tokens("src/sample.cpp", lx, {}, diags);
  EXPECT_TRUE(diags.empty());
}

TEST(PcsLint, IncludeDirectivesDoNotLeakHeaderNames) {
  const pcs_lint::LexResult lx =
      pcs_lint::lex("#include <ctime>\n#include <random>\nint x = 0;\n");
  std::vector<Diagnostic> diags;
  pcs_lint::lint_tokens("src/sample.cpp", lx, {}, diags);
  EXPECT_TRUE(diags.empty());
}

TEST(PcsLint, RegistryListsAllRules) {
  const std::vector<std::string> want = {
      "DET001", "DET002", "DET003",    "DET004",    "DET005", "DET006",
      "INV001", "INV002", "SCHEMA001", "BUDGET001", "LINT001"};
  std::vector<std::string> got;
  for (const pcs_lint::RuleInfo& r : pcs_lint::rule_registry()) {
    got.push_back(r.id);
  }
  EXPECT_EQ(got, want);
  for (const std::string& id : want) {
    EXPECT_TRUE(pcs_lint::is_known_rule(id));
  }
  EXPECT_FALSE(pcs_lint::is_known_rule("DET999"));
}

TEST(PcsLint, FormatIsFileLineRuleMessage) {
  const Diagnostic d{"DET001", "src/a.cpp", 12, "no clocks"};
  EXPECT_EQ(pcs_lint::format(d), "src/a.cpp:12: DET001: no clocks");
}

// -- v2 flow engine --------------------------------------------------------

// Find the one diagnostic with the given rule@file:line key.
const Diagnostic& diag_at(const LintResult& result, const std::string& rule,
                          const std::string& file, int line) {
  for (const Diagnostic& d : result.diags) {
    if (d.rule == rule && d.file == file && d.line == line) return d;
  }
  static const Diagnostic missing{};
  ADD_FAILURE() << "no " << rule << " at " << file << ":" << line;
  return missing;
}

TEST(PcsLint, FlowDiagnosticsNameTheWitnessChain) {
  const LintResult result = lint_tree("bad_tree");
  // Forward direction: the flagged function itself reaches the sink.
  EXPECT_NE(diag_at(result, "DET004", "src/flow/helpers.cpp", 30)
                .message.find("reduce_tasks -> write_summary_line -> printf"),
            std::string::npos);
  // Caller direction: the flagged helper's return value is serialized by
  // its (transitive) caller.
  EXPECT_NE(diag_at(result, "DET001", "src/flow/helpers.cpp", 11)
                .message.find(
                    "caller report_helpers -> write_summary_line -> printf"),
            std::string::npos);
  EXPECT_NE(diag_at(result, "DET002", "src/flow/helpers.cpp", 21)
                .message.find(
                    "caller report_partials -> write_summary_line -> printf"),
            std::string::npos);
  EXPECT_NE(diag_at(result, "DET006", "src/flow/det006_identity.cpp", 10)
                .message.find(
                    "tag_shard_with_thread -> write_summary_line -> printf"),
            std::string::npos);
  // PcstWriter is a sink marker: the binary trace encoder serializes.
  EXPECT_NE(
      diag_at(result, "DET001", "src/flow/pcst_record.cpp", 16)
          .message.find(
              "caller record_session -> append_session_meta -> PcstWriter"),
      std::string::npos);
}

TEST(PcsLint, Det002CatchesAutoDeclaredStructuredBindingLoop) {
  LintOptions opts;
  opts.root = std::string(PCS_LINT_FIXTURES) + "/bad_tree";
  opts.rules = {"DET002"};
  const LintResult result = pcs_lint::run_lint(opts);
  const std::vector<std::string> want = {
      "DET002@src/det002_unordered.cpp:8",
      "DET002@src/det002_unordered.cpp:11",
      "DET002@src/det002_unordered.cpp:20",  // for (auto& [k, v] : m)
      "DET002@src/flow/helpers.cpp:21"};
  EXPECT_EQ(keys(result), want);
  EXPECT_NE(
      diag_at(result, "DET002", "src/det002_unordered.cpp", 20)
          .message.find("range-for over unordered container 'm'"),
      std::string::npos);
}

TEST(PcsLint, Inv002FiresOnMissingFieldOnly) {
  const LintResult bad = lint_tree("bad_tree");
  const Diagnostic& d =
      diag_at(bad, "INV002", "src/exp/inv002_fingerprint.cpp", 10);
  EXPECT_NE(d.message.find("'drift_mv'"), std::string::npos);
  EXPECT_NE(d.message.find("grid_canonical"), std::string::npos);
  // good_tree carries the same struct with a complete canonical string and
  // is asserted clean in GoodTreeIsClean.
}

TEST(PcsLint, SuppressionBudgetIsAnExactRatchet) {
  using pcs_lint::check_suppression_budget;
  const std::map<std::string, int> counts = {{"DET001", 3}};
  {
    std::vector<Diagnostic> diags;
    check_suppression_budget("DET001 3\n", ".pcs-lint-budget", counts, diags);
    EXPECT_TRUE(diags.empty());
  }
  {  // over budget: a suppression was added without review
    std::vector<Diagnostic> diags;
    check_suppression_budget("DET001 2\n", ".pcs-lint-budget", counts, diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "BUDGET001");
    EXPECT_NE(diags[0].message.find("exceed budget"), std::string::npos);
  }
  {  // under budget: the ratchet must be tightened to match
    std::vector<Diagnostic> diags;
    check_suppression_budget("DET001 4\n", ".pcs-lint-budget", counts, diags);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("stale"), std::string::npos);
  }
  {  // comments and blank lines are fine; junk and unknown rules are not
    std::vector<Diagnostic> diags;
    check_suppression_budget(
        "# header\n\nDET001 3  # inline comment\nDET999 1\nDET001 oops\n",
        ".pcs-lint-budget", counts, diags);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].line, 4);  // unknown rule
    EXPECT_EQ(diags[1].line, 5);  // unparsable line
  }
}

TEST(PcsLint, RenderJsonIsStable) {
  LintResult result;
  result.files_scanned = 2;
  result.diags.push_back({"DET001", "src/a.cpp", 7, "say \"hi\"\n"});
  result.suppression_counts = {{"DET001", 3}, {"DET005", 1}};
  EXPECT_EQ(pcs_lint::render_json(result),
            "{\"version\":1,\"files_scanned\":2,\"diagnostics\":["
            "{\"rule\":\"DET001\",\"file\":\"src/a.cpp\",\"line\":7,"
            "\"message\":\"say \\\"hi\\\"\\n\"}],"
            "\"suppressions\":{\"DET001\":3,\"DET005\":1}}");
}

// -- --fix -----------------------------------------------------------------

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(PcsLint, FixIsIdempotentAndMatchesExpectedTree) {
  namespace fs = std::filesystem;
  const fs::path fixtures(PCS_LINT_FIXTURES);
  const fs::path work =
      fs::temp_directory_path() / "pcs_lint_fix_round_trip";
  fs::remove_all(work);
  fs::copy(fixtures / "fix_tree", work, fs::copy_options::recursive);

  LintOptions opts;
  opts.root = work.string();
  const pcs_lint::FixResult first = pcs_lint::apply_fixes(opts);
  EXPECT_TRUE(first.io_errors.empty());
  EXPECT_EQ(first.changed_files,
            std::vector<std::string>{"src/fixit.cpp"});
  ASSERT_EQ(first.edits.size(), 3u);
  EXPECT_EQ(first.edits[0].kind, "LINT001 normalization");
  EXPECT_EQ(first.edits[0].line, 6);
  EXPECT_EQ(first.edits[1].kind, "LINT001 normalization");
  EXPECT_EQ(first.edits[1].line, 9);
  EXPECT_EQ(first.edits[2].kind, "DET002 scaffold");
  EXPECT_EQ(first.edits[2].line, 13);

  EXPECT_EQ(slurp(work / "src/fixit.cpp"),
            slurp(fixtures / "fix_tree_expected/src/fixit.cpp"));

  // Second run: a strict no-op.
  const pcs_lint::FixResult second = pcs_lint::apply_fixes(opts);
  EXPECT_TRUE(second.changed_files.empty());
  EXPECT_TRUE(second.edits.empty());
  EXPECT_EQ(slurp(work / "src/fixit.cpp"),
            slurp(fixtures / "fix_tree_expected/src/fixit.cpp"));
  fs::remove_all(work);
}

}  // namespace
