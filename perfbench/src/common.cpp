#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>

#include <gnu/libc-version.h>
#include <sys/resource.h>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double parallel_efficiency(double busy_s, double elapsed_s, unsigned threads) {
  const double capacity = elapsed_s * static_cast<double>(threads);
  return capacity > 0.0 ? busy_s / capacity : 0.0;
}

double overhead_pct(double with_s, double without_s) {
  return without_s > 0.0 ? (with_s - without_s) / without_s * 100.0 : 0.0;
}

double uncovered_share(double covered_s, double total_s) {
  return total_s > 0.0 ? 1.0 - covered_s / total_s : 0.0;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::u(u64 v) { bytes(&v, sizeof v); }

void Digest::d(double v) { u(std::bit_cast<u64>(v)); }

void Digest::s(const std::string& v) {
  u(v.size());
  bytes(v.data(), v.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void OpLedger::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(why);
}

bool OpLedger::expect(const std::string& what,
                      const std::function<bool()>& check) {
  bool ok = false;
  std::string why = what;
  try {
    ok = check();
  } catch (const std::exception& e) {
    why += ": ";
    why += e.what();
  } catch (...) {
    why += ": unknown exception";
  }
  if (!ok) fail(why);
  return ok;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void parallel_for(unsigned threads, u64 n,
                  const std::function<void(u64, unsigned)>& fn) {
  threads = std::max(1u, threads);
  std::atomic<u64> next{0};
  std::mutex mu;
  std::exception_ptr first;
  const auto work = [&](unsigned worker) {
    for (u64 i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i, worker);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    }
  };
  if (threads == 1 || n <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w) pool.emplace_back(work, w);
    work(0);
    for (auto& t : pool) t.join();
  }
  if (first) std::rethrow_exception(first);
}

u64 probe_ticks() noexcept {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<u64>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

namespace {

struct ProbeCalibration {
  double ns_per_tick = 1.0;
  double read_cost = 0.0;

  ProbeCalibration() {
#if defined(__x86_64__)
    const double t0 = now_s();
    const u64 c0 = probe_ticks();
    while (now_s() - t0 < 0.02) {
    }
    const double t1 = now_s();
    const u64 c1 = probe_ticks();
    ns_per_tick = (t1 - t0) * 1e9 / static_cast<double>(c1 - c0);
#else
    using period = std::chrono::steady_clock::period;
    ns_per_tick = 1e9 * static_cast<double>(period::num) /
                  static_cast<double>(period::den);
#endif
    // Cheapest of a few batches of back-to-back reads: the fixed cost
    // every timed call carries.
    double best = 1e300;
    for (int batch = 0; batch < 8; ++batch) {
      const u64 a = probe_ticks();
      u64 b = a;
      for (int i = 0; i < 256; ++i) b = probe_ticks();
      best = std::min(best, static_cast<double>(b - a) / 256.0);
    }
    read_cost = best;
  }
};

const ProbeCalibration& calibration() {
  static const ProbeCalibration c;
  return c;
}

}  // namespace

double probe_ns_per_tick() { return calibration().ns_per_tick; }
double probe_read_cost_ticks() { return calibration().read_cost; }

SpanLog::SpanLog(unsigned workers)
    : per_worker_(std::max(1u, workers)), next_(std::max(1u, workers), 1) {}

u64 SpanLog::open(unsigned worker) {
  return (static_cast<u64>(worker) << 48) | next_[worker]++;
}

void SpanLog::close(unsigned worker, u64 id, const char* name, u64 parent,
                    u64 op, double start_s, double end_s) {
  per_worker_[worker].push_back(
      Span{name, id, parent, op, start_s * 1e6, end_s * 1e6});
}

u64 SpanLog::add(unsigned worker, const char* name, u64 parent, u64 op,
                 double start_s, double end_s) {
  const u64 id = open(worker);
  close(worker, id, name, parent, op, start_s, end_s);
  return id;
}

std::size_t SpanLog::size() const {
  std::size_t n = 0;
  for (const auto& v : per_worker_) n += v.size();
  return n;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  for (std::size_t w = 0; w < per_worker_.size(); ++w) {
    for (const Span& s : per_worker_[w]) {
      f << "{\"name\":" << json_str(s.name) << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"worker\":" << w << ",\"start_us\":" << json_num(s.start_us)
        << ",\"end_us\":" << json_num(s.end_us) << "}\n";
    }
  }
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KB
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string glibc_version() { return gnu_get_libc_version(); }

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_num(v[i]);
  }
  return out + "]";
}

}  // namespace perfbench
