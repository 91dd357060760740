// Benchmark plumbing shared by the three workloads: statistics, the
// simulated-output digest, the operation ledger that turns failed oracles
// into counted failures, a small worker fan-out, the per-call probe clock
// and the in-memory span log of the traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

using pcs::u32;
using pcs::u64;

// ---- statistics ------------------------------------------------------------

/// Quantile q in [0, 1] with linear interpolation between closest ranks
/// (position q * (n - 1); numpy's default). Returns 0 for empty input.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Busy time summed over tasks / (elapsed wall time * worker threads): the
/// share of the workers' capacity that went into tasks. 0 when the base is 0.
double parallel_efficiency(double busy_s, double elapsed_s, unsigned threads);

/// (with - without) / without, in percent. 0 when the base is 0.
double overhead_pct(double with_s, double without_s);

/// 1 - covered / total: the share of `total` not covered by the measured
/// parts. 0 when the base is 0.
double uncovered_share(double covered_s, double total_s);

// ---- digest ----------------------------------------------------------------

/// FNV-1a 64 over a byte stream. Doubles are hashed by bit pattern, strings
/// with a length prefix, so two digests agree only on identical outputs.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void u(u64 v);
  void d(double v);
  void s(const std::string& v);
  u64 value() const noexcept { return h_; }
  std::string hex() const;

 private:
  u64 h_ = 0xcbf29ce484222325ull;
};

// ---- operations ------------------------------------------------------------

/// Counts operations attempted and failed. A failed oracle is recorded as a
/// failed operation; nothing here throws.
class OpLedger {
 public:
  void attempt(u64 n = 1) { attempted_ += n; }
  void fail(const std::string& why);
  /// Runs `check`; a false result or an exception counts one failure.
  bool expect(const std::string& what, const std::function<bool()>& check);

  u64 attempted() const noexcept { return attempted_; }
  u64 failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> failures_;  ///< first few reasons, for the log
};

// ---- clocks and fan-out ----------------------------------------------------

/// Host seconds on the steady clock.
double now_s();

/// Calls fn(i, worker) for i in [0, n) on `threads` std::threads that take
/// indices from a shared counter; joins all of them before returning and
/// then rethrows the first exception any call raised.
void parallel_for(unsigned threads, u64 n,
                  const std::function<void(u64 i, unsigned worker)>& fn);

/// Cheap per-call clock for the traced run: the time-stamp counter on
/// x86-64 (converted with a rate measured against the steady clock at
/// start-up), the steady clock elsewhere.
u64 probe_ticks() noexcept;
double probe_ns_per_tick();
/// Ticks one probe_ticks() read costs, subtracted from each timed call.
double probe_read_cost_ticks();

// ---- spans -----------------------------------------------------------------

/// One timed interval of the traced run. Spans of one operation share its
/// `op`; `parent` is the id of the enclosing span (0 = root).
struct Span {
  const char* name = "";
  u64 id = 0;
  u64 parent = 0;
  u64 op = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Per-worker span buffers, kept in memory and written once at exit.
class SpanLog {
 public:
  explicit SpanLog(unsigned workers = 1);
  /// Records a finished span on `worker`'s buffer and returns its id.
  u64 add(unsigned worker, const char* name, u64 parent, u64 op,
          double start_s, double end_s);
  /// Reserves an id for a span whose end is recorded later with close().
  u64 open(unsigned worker);
  void close(unsigned worker, u64 id, const char* name, u64 parent, u64 op,
             double start_s, double end_s);
  std::size_t size() const;
  /// Writes one JSON object per line; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> per_worker_;
  std::vector<u64> next_;
};

// ---- host ------------------------------------------------------------------

/// Peak resident set size of this process, MB.
double peak_rss_mb();
/// CPU model name from /proc/cpuinfo ("unknown" when unreadable).
std::string cpu_model();
std::string glibc_version();
unsigned host_threads();

/// JSON string literal for `s` (quotes included).
std::string json_str(const std::string& s);
/// Finite number formatted with all its digits (non-finite becomes 0).
std::string json_num(double v);
/// JSON array of json_num values.
std::string json_list(const std::vector<double>& v);

}  // namespace perfbench
