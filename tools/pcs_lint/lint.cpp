#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace pcs_lint {
namespace {

namespace fs = std::filesystem;

// Directories scanned when no explicit file list is given. tools/pcs_lint
// is deliberately excluded: its fixture corpus contains intentional
// violations, and its rule tables name the very identifiers they hunt.
constexpr const char* kDefaultDirs[] = {"src", "bench", "tests", "examples"};

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh";
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// Forward-slash path relative to root, for stable diagnostics and the
// path-keyed exemptions.
std::string rel_path(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

// Rules whose diagnostics come from lint_tokens (vs. the whole-tree and
// schema passes); drives the "did the filter select any token rule" check.
const std::set<std::string> kTokenRules = {
    "DET001", "DET002", "DET003", "DET004",
    "DET005", "DET006", "INV001"};

}  // namespace

std::vector<LintFile> collect_lint_files(const LintOptions& opts) {
  const fs::path root(opts.root);
  std::vector<fs::path> files;
  if (opts.files.empty()) {
    for (const char* dir : kDefaultDirs) {
      const fs::path base = root / dir;
      std::error_code ec;
      if (!fs::is_directory(base, ec)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base, ec)) {
        if (entry.is_regular_file() && lintable_extension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    }
  } else {
    for (const std::string& f : opts.files) {
      fs::path p(f);
      files.push_back(p.is_absolute() ? p : root / p);
    }
  }
  // Deterministic scan order regardless of directory-entry order.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<LintFile> out;
  out.reserve(files.size());
  for (const fs::path& file : files) {
    out.push_back({file.string(), rel_path(root, file)});
  }
  return out;
}

LintResult run_lint(const LintOptions& opts) {
  LintResult result;
  const fs::path root(opts.root);
  const std::vector<LintFile> files = collect_lint_files(opts);
  const bool full_tree = opts.files.empty();

  const auto want = [&opts](const char* id) {
    return opts.rules.empty() || opts.rules.count(id) != 0;
  };
  const bool want_schema = want("SCHEMA001");
  bool want_tokens = opts.rules.empty();
  for (const std::string& r : opts.rules) {
    if (kTokenRules.count(r) != 0) want_tokens = true;
  }

  // Pass 1: lex every file once, harvest suppressions, and build the symbol
  // index (function definitions, call edges, sink reachability, the INV002
  // struct/fingerprint shapes).
  struct Lexed {
    LintFile file;
    LexResult lx;
  };
  std::vector<Lexed> lexed;
  SymbolIndex index;
  std::map<std::string, Suppressions> suppressions;
  for (const LintFile& file : files) {
    std::string content;
    if (!read_file(file.abs, content)) {
      result.io_errors.push_back(file.abs);
      continue;
    }
    ++result.files_scanned;
    lexed.push_back({file, lex(content)});
    const LexResult& lx = lexed.back().lx;
    // LINT001 diagnostics about malformed annotations bypass suppression.
    auto [it, inserted] =
        suppressions.emplace(file.rel,
                             collect_suppressions(lx, file.rel, result.diags));
    if (inserted) {
      for (const auto& [rule, n] : it->second.counts) {
        result.suppression_counts[rule] += n;
      }
    }
    index_file(file.rel, lx, index);
  }
  finalize_index(index);

  // Pass 2: the flow-aware token rules plus the accumulated schema scans.
  SchemaScan schema_scan;
  std::vector<Diagnostic> raw;
  for (const Lexed& l : lexed) {
    if (want_tokens) {
      lint_tokens(l.file.rel, l.lx, opts.rules, raw, &index);
    }
    if (want_schema && l.file.rel.rfind("src/", 0) == 0) {
      scan_schema_uses(l.file.rel, l.lx, schema_scan);
    }
  }

  if (want_schema) {
    const fs::path md = root / "TELEMETRY.md";
    std::string content;
    if (read_file(md, content)) {
      check_schema(content, "TELEMETRY.md", schema_scan, full_tree, raw);
    } else if (full_tree) {
      result.diags.push_back({"SCHEMA001", "TELEMETRY.md", 1,
                              "TELEMETRY.md not found under lint root '" +
                                  opts.root + "'"});
    }
  }

  // Whole-tree invariants only make sense when the whole tree was scanned:
  // a partial scan sees neither both sides of a fingerprint contract nor
  // every suppression annotation.
  if (full_tree && want("INV002")) {
    check_fingerprints(index, raw);
  }
  if (full_tree && want("BUDGET001")) {
    const std::string budget_rel =
        opts.budget_path.empty() ? ".pcs-lint-budget" : opts.budget_path;
    std::string budget_text;
    if (read_file(root / budget_rel, budget_text)) {
      check_suppression_budget(budget_text, budget_rel,
                               result.suppression_counts, raw);
    }
  }

  for (Diagnostic& d : raw) {
    const auto it = suppressions.find(d.file);
    if (it != suppressions.end() && it->second.active(d.rule, d.line)) {
      continue;
    }
    result.diags.push_back(std::move(d));
  }
  // The rule filter is authoritative: annotation-hygiene diagnostics
  // (LINT001) are also dropped when not selected.
  if (!opts.rules.empty()) {
    std::erase_if(result.diags, [&opts](const Diagnostic& d) {
      return opts.rules.count(d.rule) == 0;
    });
  }
  std::sort(result.diags.begin(), result.diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return result;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string render_json(const LintResult& result) {
  std::ostringstream out;
  out << "{\"version\":1,\"files_scanned\":" << result.files_scanned
      << ",\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : result.diags) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":\"" << json_escape(d.rule) << "\",\"file\":\""
        << json_escape(d.file) << "\",\"line\":" << d.line
        << ",\"message\":\"" << json_escape(d.message) << "\"}";
  }
  out << "],\"suppressions\":{";
  first = true;
  for (const auto& [rule, n] : result.suppression_counts) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(rule) << "\":" << n;
  }
  out << "}}";
  return out.str();
}

}  // namespace pcs_lint
