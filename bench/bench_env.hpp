// Environment knobs of the figure benches (PCS_REFS, PCS_TRIALS,
// PCS_THREADS).
//
// A knob goes through the same whole-token parser as the CLI arguments and
// job keys (parse_u64_token): digits only, no sign, no trailing characters,
// no overflow. A malformed value is a usage error, reported before the
// bench prints anything, never a silent 0 or default.
#pragma once

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "exp/thread_pool.hpp"
#include "util/parse.hpp"
#include "util/types.hpp"

namespace pcs {

/// Returns read(); a std::invalid_argument from it (whose message names the
/// knob) prints the message and `usage: <usage>` to stderr, then exits 2.
template <class Read>
auto knob_or_exit(Read read, const char* usage) {
  try {
    return read();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\nusage: " << usage << "\n";
    std::exit(2);
  }
}

/// Value of the integer environment variable `name`, or `fallback` when it
/// is unset; a malformed value exits as knob_or_exit.
inline u64 env_u64_or_exit(const char* name, u64 fallback,
                           const char* usage) {
  return knob_or_exit(
      [&] {
        const char* env = std::getenv(name);
        return env == nullptr ? fallback : parse_u64_token(env, name);
      },
      usage);
}

/// pcs_thread_count(); a malformed PCS_THREADS exits as knob_or_exit.
inline u32 threads_or_exit(const char* usage) {
  return knob_or_exit([] { return pcs_thread_count(); }, usage);
}

}  // namespace pcs
