// Pass-2 whole-tree checks that only make sense over the finalized symbol
// index: INV002 (spec fields vs. the canonical fingerprint string) and
// BUDGET001 (the committed suppression budget as an exact ratchet).

#include <sstream>

#include "lint.hpp"

namespace pcs_lint {

void check_fingerprints(const SymbolIndex& index,
                        std::vector<Diagnostic>& diags) {
  for (const auto& contract : kFingerprintContracts) {
    const auto fields_it = index.struct_fields.find(contract.struct_name);
    if (fields_it == index.struct_fields.end()) continue;  // struct unseen
    const auto idents_it = index.fingerprint_idents.find(contract.canonical_fn);
    if (idents_it == index.fingerprint_idents.end()) {
      // The struct exists but its fingerprint function was never indexed:
      // that is itself a contract break when the struct has fields.
      if (!fields_it->second.empty()) {
        const IndexedField& first = fields_it->second.front();
        diags.push_back(
            {"INV002", first.file, first.line,
             std::string("struct '") + contract.struct_name +
                 "' has no indexed canonical fingerprint function '" +
                 contract.canonical_fn +
                 "()'; checkpoint sidecars cannot validate this spec"});
      }
      continue;
    }
    const std::set<std::string>& idents = idents_it->second;
    for (const IndexedField& field : fields_it->second) {
      if (idents.count(field.name) != 0) continue;
      std::ostringstream msg;
      msg << "field '" << field.name << "' of " << contract.struct_name
          << " does not appear in " << contract.canonical_fn << "() (";
      const auto site = index.fingerprint_sites.find(contract.canonical_fn);
      if (site != index.fingerprint_sites.end()) {
        msg << site->second.file << ":" << site->second.line;
      } else {
        msg << "unknown site";
      }
      msg << "); a checkpoint written before this field changed would still "
             "pass the fingerprint check -- add it to the canonical string";
      diags.push_back({"INV002", field.file, field.line, msg.str()});
    }
  }
}

void check_suppression_budget(const std::string& budget_text,
                              const std::string& budget_rel_path,
                              const std::map<std::string, int>& counts,
                              std::vector<Diagnostic>& diags) {
  // Budget file format: one `RULE N` per line; `#` starts a comment; blank
  // lines ignored. Unknown rules and unparsable lines are diagnosed so the
  // file cannot silently rot.
  std::map<std::string, int> budget;
  std::istringstream in(budget_text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string rule;
    if (!(fields >> rule)) continue;  // blank / comment-only
    long n = -1;
    std::string extra;
    if (!(fields >> n) || n < 0 || (fields >> extra)) {
      diags.push_back({"BUDGET001", budget_rel_path, lineno,
                       "unparsable budget line; expected 'RULE N'"});
      continue;
    }
    if (!is_known_rule(rule)) {
      diags.push_back({"BUDGET001", budget_rel_path, lineno,
                       "unknown rule '" + rule + "' in suppression budget"});
      continue;
    }
    if (!budget.emplace(rule, static_cast<int>(n)).second) {
      diags.push_back({"BUDGET001", budget_rel_path, lineno,
                       "duplicate budget entry for '" + rule + "'"});
    }
  }

  // Exact ratchet, both directions: an over-budget tree means a suppression
  // was added without review; an under-budget tree means the budget should
  // shrink to match (so it cannot quietly accumulate headroom).
  for (const auto& [rule, actual] : counts) {
    const auto it = budget.find(rule);
    const int budgeted = it == budget.end() ? 0 : it->second;
    if (actual > budgeted) {
      std::ostringstream msg;
      msg << "suppressions for " << rule << " exceed budget: " << actual
          << " annotated, " << budgeted << " budgeted; remove suppressions "
          << "or raise the budget in " << budget_rel_path
          << " with reviewer sign-off";
      diags.push_back({"BUDGET001", budget_rel_path, 1, msg.str()});
    }
  }
  for (const auto& [rule, budgeted] : budget) {
    const auto it = counts.find(rule);
    const int actual = it == counts.end() ? 0 : it->second;
    if (actual < budgeted) {
      std::ostringstream msg;
      msg << "suppression budget for " << rule << " is stale: " << budgeted
          << " budgeted, " << actual << " annotated; ratchet the budget in "
          << budget_rel_path << " down to " << actual;
      diags.push_back({"BUDGET001", budget_rel_path, 1, msg.str()});
    }
  }
}

}  // namespace pcs_lint
