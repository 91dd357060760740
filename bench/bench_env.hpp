// Numeric environment knobs of the figure benches (PCS_REFS, PCS_TRIALS).
//
// A knob goes through the same whole-token parser as the CLI arguments and
// job keys (parse_u64_token): digits only, no sign, no trailing characters,
// no overflow. A malformed value is a usage error, never a silent 0.
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "exp/job_service.hpp"
#include "util/types.hpp"

namespace pcs {

/// Value of the integer environment variable `name`, or `fallback` when it
/// is unset. A malformed value prints the error (which names `name`) and
/// `usage: <usage>` to stderr, then exits 2.
inline u64 env_u64_or_exit(const char* name, u64 fallback,
                           const char* usage) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  try {
    return parse_u64_token(env, name);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\nusage: " << usage << "\n";
    std::exit(2);
  }
}

}  // namespace pcs
