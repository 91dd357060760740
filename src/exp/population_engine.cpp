#include "exp/population_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/sweep_engine.hpp"
#include "tech/leakage_model.hpp"
#include "util/table.hpp"

namespace pcs {

std::vector<Volt> PopulationSpec::grid() const {
  if (grid_step <= 0.0) {
    throw std::invalid_argument("population grid_step must be positive");
  }
  std::vector<Volt> g;
  // Half-step tolerance so the accumulated sum still lands on grid_hi.
  for (Volt v = grid_lo; v <= grid_hi + grid_step * 0.5; v += grid_step) {
    g.push_back(v);
  }
  if (g.empty()) {
    throw std::invalid_argument("population grid is empty (grid_lo > grid_hi)");
  }
  return g;
}

ChipBinPoint bin_chip(const CellFaultField& field, const CacheOrg& org,
                      std::span<const Volt> grid, double min_capacity) {
  // One scalar encodes the die's viability at every ladder voltage: level l
  // is viable iff grid[l-1] > vf_chip (max over sets of min over ways).
  const float vf_chip = chip_fail_voltage(field, org);
  const auto chip_rung = static_cast<u32>(
      std::upper_bound(grid.begin(), grid.end(), static_cast<Volt>(vf_chip)) -
      grid.begin());
  if (chip_rung == grid.size()) {
    return {};  // unusable: faulty even at the top level; skip the histogram
  }

  // Per-level faulty counts in one pass of O(1) work per block (the rung
  // bucketing in count_fail_rungs, exact for any ladder). The field's sweep
  // index would answer the same queries, but its std::sort over a fresh
  // random permutation per die costs far more than this pass; counts are
  // integers either way, so the results are bit-identical.
  const u32 n = static_cast<u32>(grid.size());
  std::vector<u64> faulty_at(n + 2, 0);
  count_fail_rungs(field.fail_voltages(), grid, faulty_at);
  for (u32 l = n; l >= 1; --l) faulty_at[l] += faulty_at[l + 1];
  return bin_from_fail_summary(chip_rung, faulty_at, field.num_blocks(), grid,
                               min_capacity);
}

void count_fail_rungs(std::span<const float> vf, std::span<const Volt> grid,
                      std::span<u64> rung_counts) {
  // Block b is faulty at level l iff grid[l-1] <= vf[b], so bucketing each
  // block by how many ladder rungs sit at or below its fail voltage (and
  // later suffix-summing) gives every level's count at once.
  //
  // The bucket is upper_bound(grid, v): the first k with v < grid[k], or n.
  // Instead of a binary search (~6 unpredictable branches per block on the
  // default ladder), guess k from the ladder's endpoints and walk the guess
  // to the answer against the real rungs. The walk is exact from ANY start
  // in [0, n]: the first loop stops only at n or at a rung above v, the
  // second backs off only past rungs above v, and "v < grid[k]" is monotone
  // in k on a sorted ladder. So the arithmetic sets only the cost, never the
  // result: grid() accumulates v += step, so its rungs are not exactly
  // lo + k*step and the guess can be one off near a rung; a non-uniform
  // ladder just walks further. The guess is clamped in double before the
  // integer conversion, so no NaN or out-of-range value is converted:
  // below the ladder and -inf guess 0; above it, +inf and NaN guess n (NaN
  // stays there, as in upper_bound, since NaN < grid[k] is never true).
  const std::size_t n = grid.size();
  const double lo = grid.front();
  const double span = grid.back() - lo;
  const double top = static_cast<double>(n);
  const double scale = span > 0.0 ? static_cast<double>(n - 1) / span : 0.0;
  for (const float v : vf) {
    const double d = static_cast<double>(v);
    double t = (d - lo) * scale + 1.0;
    t = t < top ? t : top;  // also NaN and +inf
    t = t > 0.0 ? t : 0.0;  // also -inf
    std::size_t k = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(t));
    while (k < n && !(d < grid[k])) ++k;
    while (k > 0 && d < grid[k - 1]) --k;
    ++rung_counts[k];
  }
}

ChipBinPoint bin_from_fail_summary(u32 chip_rung,
                                   std::span<const u64> faulty_at,
                                   u64 num_blocks, std::span<const Volt> grid,
                                   double min_capacity) {
  ChipBinPoint p;
  if (chip_rung >= grid.size()) return p;
  p.floor_level = chip_rung + 1;

  const u32 n = static_cast<u32>(grid.size());
  const double blocks = static_cast<double>(num_blocks);
  const auto capacity_at = [&](u32 level) {
    if (num_blocks == 0) return 1.0;
    return 1.0 - static_cast<double>(faulty_at[level]) / blocks;
  };

  const double cap_floor = capacity_at(p.floor_level);
  u32 bin = static_cast<u32>(cap_floor *
                             static_cast<double>(kPopulationCapacityBins));
  p.capacity_bin = std::min(bin, kPopulationCapacityBins - 1);

  // Effective capacity is non-decreasing in VDD (fault inclusion), so the
  // first level at/above the floor that meets the target is the SPCS bin.
  for (u32 l = p.floor_level; l <= n; ++l) {
    if (capacity_at(l) >= min_capacity) {
      p.spcs_level = l;
      break;
    }
  }
  return p;
}

PopulationResult make_empty_population_result(std::vector<Volt> grid) {
  PopulationResult r;
  const std::size_t n = grid.size();
  r.grid = std::move(grid);
  r.floor_hist.assign(n, 0);
  r.spcs_hist.assign(n, 0);
  r.capacity_hist.assign(kPopulationCapacityBins, 0);
  r.bin_floor_hist.assign(n * n, 0);
  return r;
}

void accumulate_chip(PopulationResult& r, const ChipBinPoint& p) {
  ++r.num_chips;
  if (p.floor_level == 0) {
    ++r.unusable;
    return;
  }
  const std::size_t n = r.grid.size();
  ++r.floor_hist[p.floor_level - 1];
  ++r.capacity_hist[p.capacity_bin];
  if (p.spcs_level == 0) {
    ++r.no_spcs;
  } else {
    ++r.spcs_hist[p.spcs_level - 1];
    ++r.bin_floor_hist[(p.spcs_level - 1) * n + (p.floor_level - 1)];
  }
}

namespace {

/// Count-rank quantile over a per-level histogram: the level holding the
/// ceil(q * total)-th die (1-based rank, clamped to [1, total]). Integer
/// logic end to end, so every platform agrees on the chosen level.
u64 quantile_rank(u64 total, double q) {
  const double raw = std::ceil(q * static_cast<double>(total));
  if (raw <= 1.0) return 1;
  if (raw >= static_cast<double>(total)) return total;
  return static_cast<u64>(raw);
}

}  // namespace

u64 PopulationResult::viable_at(u32 level) const noexcept {
  u64 cum = 0;
  for (u32 l = 1; l <= level && l <= num_levels(); ++l) {
    cum += floor_hist[l - 1];
  }
  return cum;
}

double PopulationResult::yield_at(u32 level) const noexcept {
  if (num_chips == 0) return 0.0;
  return static_cast<double>(viable_at(level)) /
         static_cast<double>(num_chips);
}

Volt PopulationResult::mean_vdd(
    const std::vector<u64>& level_hist) const noexcept {
  u64 total = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < level_hist.size() && i < grid.size(); ++i) {
    total += level_hist[i];
    sum += grid[i] * static_cast<double>(level_hist[i]);
  }
  if (total == 0) return 0.0;
  return sum / static_cast<double>(total);
}

Volt PopulationResult::quantile_vdd(const std::vector<u64>& level_hist,
                                    double q) const noexcept {
  u64 total = 0;
  for (const u64 c : level_hist) total += c;
  if (total == 0) return 0.0;
  const u64 rank = quantile_rank(total, q);
  u64 cum = 0;
  for (std::size_t i = 0; i < level_hist.size() && i < grid.size(); ++i) {
    cum += level_hist[i];
    if (cum >= rank) return grid[i];
  }
  return grid.back();
}

void PopulationResult::merge(const PopulationResult& shard) {
  if (shard.grid != grid) {
    throw std::invalid_argument("population shard grid mismatch");
  }
  num_chips += shard.num_chips;
  unusable += shard.unusable;
  no_spcs += shard.no_spcs;
  for (std::size_t i = 0; i < floor_hist.size(); ++i) {
    floor_hist[i] += shard.floor_hist[i];
  }
  for (std::size_t i = 0; i < spcs_hist.size(); ++i) {
    spcs_hist[i] += shard.spcs_hist[i];
  }
  for (std::size_t i = 0; i < capacity_hist.size(); ++i) {
    capacity_hist[i] += shard.capacity_hist[i];
  }
  for (std::size_t i = 0; i < bin_floor_hist.size(); ++i) {
    bin_floor_hist[i] += shard.bin_floor_hist[i];
  }
}

// ---- Checkpoint sidecars ---------------------------------------------------

u64 population_fingerprint(std::string_view canonical) {
  u64 h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

[[noreturn]] void bad_checkpoint(const std::string& path,
                                 const std::string& what) {
  throw std::runtime_error("population checkpoint '" + path + "': " + what);
}

void write_hist(std::ostream& f, const char* label,
                const std::vector<u64>& hist) {
  f << label;
  for (const u64 v : hist) f << ' ' << v;
  f << '\n';
}

u64 read_labeled_u64(std::istream& f, const char* label,
                     const std::string& path) {
  std::string got;
  u64 v = 0;
  if (!(f >> got) || got != label || !(f >> v)) {
    bad_checkpoint(path, std::string("expected '") + label + " <count>'");
  }
  return v;
}

void read_hist(std::istream& f, const char* label, std::vector<u64>& hist,
               const std::string& path) {
  std::string got;
  if (!(f >> got) || got != label) {
    bad_checkpoint(path, std::string("expected '") + label + "' section");
  }
  for (u64& v : hist) {
    if (!(f >> v)) bad_checkpoint(path, std::string(label) + " truncated");
  }
}

}  // namespace

void save_population_checkpoint(const std::string& path, u64 fingerprint,
                                u64 shards_done,
                                std::span<const PopulationResult> parts) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) bad_checkpoint(path, "cannot open '" + tmp + "' for writing");
    f << "pcs-population-checkpoint v1\n";
    f << "fingerprint " << fingerprint << '\n';
    f << "shards_done " << shards_done << '\n';
    f << "points " << parts.size() << '\n';
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const PopulationResult& r = parts[i];
      f << "point " << i << '\n';
      f << "num_chips " << r.num_chips << '\n';
      f << "unusable " << r.unusable << '\n';
      f << "no_spcs " << r.no_spcs << '\n';
      write_hist(f, "floor_hist", r.floor_hist);
      write_hist(f, "spcs_hist", r.spcs_hist);
      write_hist(f, "capacity_hist", r.capacity_hist);
      write_hist(f, "bin_floor_hist", r.bin_floor_hist);
    }
    f << "end\n";
    f.flush();
    if (!f) bad_checkpoint(path, "write failed for '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    bad_checkpoint(path, "rename from '" + tmp + "' failed");
  }
}

bool load_population_checkpoint(const std::string& path, u64 fingerprint,
                                u64& shards_done,
                                std::vector<PopulationResult>& parts) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;  // no sidecar yet: fresh start
  std::string magic, version;
  if (!(f >> magic >> version) || magic != "pcs-population-checkpoint" ||
      version != "v1") {
    bad_checkpoint(path, "not a v1 checkpoint file");
  }
  const u64 fp = read_labeled_u64(f, "fingerprint", path);
  if (fp != fingerprint) {
    bad_checkpoint(path,
                   "fingerprint mismatch (sidecar belongs to a different "
                   "run spec/model; delete it or fix the spec)");
  }
  shards_done = read_labeled_u64(f, "shards_done", path);
  const u64 npoints = read_labeled_u64(f, "points", path);
  if (npoints != parts.size()) {
    bad_checkpoint(path, "point count mismatch");
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    PopulationResult& r = parts[i];
    if (read_labeled_u64(f, "point", path) != i) {
      bad_checkpoint(path, "points out of order");
    }
    r.num_chips = read_labeled_u64(f, "num_chips", path);
    r.unusable = read_labeled_u64(f, "unusable", path);
    r.no_spcs = read_labeled_u64(f, "no_spcs", path);
    read_hist(f, "floor_hist", r.floor_hist, path);
    read_hist(f, "spcs_hist", r.spcs_hist, path);
    read_hist(f, "capacity_hist", r.capacity_hist, path);
    read_hist(f, "bin_floor_hist", r.bin_floor_hist, path);
  }
  std::string tail;
  if (!(f >> tail) || tail != "end") bad_checkpoint(path, "truncated file");
  return true;
}

bool try_load_population_checkpoint(const std::string& path, u64 fingerprint,
                                    u64& shards_done,
                                    std::vector<PopulationResult>& parts,
                                    bool strict) {
  try {
    return load_population_checkpoint(path, fingerprint, shards_done, parts);
  } catch (const std::exception& e) {
    if (strict) throw;
    std::fprintf(stderr,
                 "pcs: checkpoint sidecar rejected, starting fresh: %s\n",
                 e.what());
    return false;
  }
}

void render_population_report(const PopulationSpec& spec,
                              const PopulationResult& r, std::ostream& out) {
  const u32 n = r.num_levels();
  char line[256];
  // chips_per_shard is deliberately absent: it must not change a single
  // byte of the report (shard-size invariance, tested by cmp in CI).
  std::snprintf(line, sizeof line,
                "chip population: %s dies of %llu KB %u-way "
                "(seed %llu, grid %.3f..%.3f V step %.3f)\n\n",
                fmt_count(r.num_chips).c_str(),
                static_cast<unsigned long long>(spec.org.size_bytes / 1024),
                spec.org.assoc, static_cast<unsigned long long>(spec.seed),
                r.grid.front(), r.grid.back(), spec.grid_step);
  out << line;

  // Yield curve over the support of the min-VDD distribution (the CDF is
  // flat outside it: 0 below, saturated at usable/num_chips above).
  u32 lmin = 0, lmax = 0;
  for (u32 l = 1; l <= n; ++l) {
    if (r.floor_hist[l - 1] != 0) {
      if (lmin == 0) lmin = l;
      lmax = l;
    }
  }
  out << "fleet yield vs VDD:\n";
  if (lmin == 0) {
    out << "  (no usable dies)\n";
  } else {
    TextTable yield_table({"VDD (V)", "viable dies", "yield"});
    u64 cum = 0;
    for (u32 l = lmin; l <= lmax; ++l) {
      cum += r.floor_hist[l - 1];
      yield_table.add_row({fmt_fixed(r.grid[l - 1], 3), fmt_count(cum),
                           fmt_pct(static_cast<double>(cum) /
                                       static_cast<double>(r.num_chips),
                                   3)});
    }
    yield_table.print(out);
  }

  out << "\nper-die distributions:\n";
  TextTable dist({"metric", "mean", "min", "max", "p50", "p95", "p99"});
  auto dist_row = [&](const char* name, const std::vector<u64>& hist) {
    dist.add_row({name, fmt_fixed(r.mean_vdd(hist), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.0), 3),
                  fmt_fixed(r.quantile_vdd(hist, 1.0), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.5), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.95), 3),
                  fmt_fixed(r.quantile_vdd(hist, 0.99), 3)});
  };
  dist_row("per-die min-VDD (viable floor)", r.floor_hist);
  dist_row("per-die SPCS VDD (capacity bin)", r.spcs_hist);
  dist.print(out);

  // Effective capacity at the per-die floor, from the fixed [0,1) binning.
  u64 cap_total = 0;
  double cap_sum = 0.0;
  for (u32 b = 0; b < kPopulationCapacityBins; ++b) {
    cap_total += r.capacity_hist[b];
    cap_sum += (static_cast<double>(b) + 0.5) /
               static_cast<double>(kPopulationCapacityBins) *
               static_cast<double>(r.capacity_hist[b]);
  }
  if (cap_total != 0) {
    const u64 rank = quantile_rank(cap_total, 0.05);
    u64 cum = 0;
    double cap_p05 = 0.0;
    for (u32 b = 0; b < kPopulationCapacityBins; ++b) {
      cum += r.capacity_hist[b];
      if (cum >= rank) {
        cap_p05 = (static_cast<double>(b) + 0.5) /
                  static_cast<double>(kPopulationCapacityBins);
        break;
      }
    }
    std::snprintf(line, sizeof line,
                  "\neffective capacity at the per-die floor: mean %s, "
                  "p05 %s (bin width %.0f%%)\n",
                  fmt_pct(cap_sum / static_cast<double>(cap_total), 1).c_str(),
                  fmt_pct(cap_p05, 1).c_str(),
                  100.0 / static_cast<double>(kPopulationCapacityBins));
    out << line;
  }

  std::snprintf(line, sizeof line,
                "unusable dies (faulty even at nominal): %s / %s\n",
                fmt_count(r.unusable).c_str(), fmt_count(r.num_chips).c_str());
  out << line;
  std::snprintf(line, sizeof line,
                "usable dies below the %.0f%%-capacity SPCS target at every "
                "level: %s\n",
                spec.spcs_min_capacity * 100.0, fmt_count(r.no_spcs).c_str());
  out << line;

  // Per-bin DPCS ladder tuning: each SPCS bin (VDD1 candidate) with the
  // floor distribution of its own dies (VDD2 candidates) and the cell
  // leakage at the bin voltage relative to nominal (soi45 calibration).
  const LeakageModel leak(Technology::soi45());
  out << "\nSPCS bins (per-bin DPCS ladder tuning):\n";
  TextTable bins({"bin VDD1 (V)", "dies", "share", "floor p50", "floor max",
                  "cell leakage vs nominal"});
  for (u32 s = 1; s <= n; ++s) {
    const u64 dies = r.spcs_hist[s - 1];
    if (dies == 0) continue;
    const std::size_t row0 = static_cast<std::size_t>(s - 1) * n;
    std::vector<u64> floor_row(r.bin_floor_hist.begin() +
                                   static_cast<std::ptrdiff_t>(row0),
                               r.bin_floor_hist.begin() +
                                   static_cast<std::ptrdiff_t>(row0 + n));
    bins.add_row(
        {fmt_fixed(r.grid[s - 1], 3), fmt_count(dies),
         fmt_pct(static_cast<double>(dies) / static_cast<double>(r.num_chips),
                 2),
         fmt_fixed(r.quantile_vdd(floor_row, 0.5), 3),
         fmt_fixed(r.quantile_vdd(floor_row, 1.0), 3),
         fmt_pct(leak.scale_factor(r.grid[s - 1]), 1)});
  }
  if (bins.rows() == 0) {
    out << "  (no SPCS-binnable dies)\n";
  } else {
    bins.print(out);
  }

  out << "\ndesign-time VDD1 (fleet-wide yield target) sits at the ~p99 of "
         "the per-die distribution;\nper-bin tuning recovers the margin "
         "between each bin's own VDD and that guardband.\n";
}

}  // namespace pcs
