// Strict numeric text shared by the job-line keys, the CLI arguments and the
// integer environment knobs (PCS_THREADS, PCS_REFS, PCS_TRIALS).
//
// Each parser takes a whole token or rejects it: no sign on integers, no
// surrounding whitespace, no trailing characters, no overflow, no inf/nan.
// Failures throw std::invalid_argument whose message starts with `what` (a
// job key, a CLI argument or an environment variable) and quotes the
// offending item.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace pcs {

u64 parse_u64_token(const std::string& text, const std::string& what);
double parse_real_token(const std::string& text, const std::string& what);

/// Comma-separated lists of the tokens above ("32,64"); items may carry
/// surrounding spaces, empty items and trailing commas are rejected.
std::vector<u64> parse_u64_list(const std::string& text,
                                const std::string& what);
std::vector<double> parse_real_list(const std::string& text,
                                    const std::string& what);

/// Narrows to u32, rejecting anything above 2^32 - 1 ("integer '...' out
/// of range", naming `what`).
u32 checked_u32(u64 value, const std::string& what);

/// Narrows an associativity to u32, rejecting 0 and anything above
/// 2^32 - 1 (std::invalid_argument naming `what`).
u32 checked_assoc(u64 ways, const std::string& what);

/// A cache size in KB as bytes, rejecting a size whose byte count does not
/// fit in 64 bits (std::invalid_argument naming `what` and the size).
u64 kb_to_bytes(u64 kb, const std::string& what);

}  // namespace pcs
