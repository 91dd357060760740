// DET001 clean case: wall clock quarantined with a file-scope annotation.
// pcs-lint: allow-file(DET001) profiling-only wall clock, stripped from
// determinism checks just like the sweep_*profile records
#include <chrono>

double wall_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t0.time_since_epoch())
      .count();
}
