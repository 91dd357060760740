// Randomized differential suite: the SoA/devirtualized CacheLevel against
// the pre-optimization AoS reference implementation.
//
// ReferenceCache below is the original CacheLevel access engine, kept
// verbatim (per-line structs, virtual ReplacementPolicy dispatch, O(assoc)
// allowed-mask rescan per miss). Both models replay the same random mix of
// demand accesses, incoming writebacks, faulty-bit flips, and invalidations;
// every per-operation outcome (hit/fill/victim writeback address/bypass),
// every counter in CacheLevelStats, and the final per-block state must match
// exactly -- for both replacement policies. This is the proof that the
// hot-path rebuild (DESIGN.md section 9) changed no observable behavior.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cache/cache_level.hpp"
#include "cache/replacement.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

/// The pre-SoA CacheLevel, reduced to its simulation semantics.
class ReferenceCache {
 public:
  using AccessResult = CacheLevel::AccessResult;

  ReferenceCache(const CacheOrg& org, const char* replacement)
      : org_(org),
        lines_(org.num_blocks()),
        repl_(make_replacement(replacement, org.num_sets(), org.assoc)) {}

  AccessResult access(u64 addr, bool write) {
    ++stats_.accesses;
    if (write) {
      ++stats_.writes;
    } else {
      ++stats_.reads;
    }

    const u64 set = set_of(addr);
    const u64 tag = tag_of(addr);

    AccessResult res;
    for (u32 w = 0; w < org_.assoc; ++w) {
      Line& l = line(set, w);
      if (l.valid && l.tag == tag) {
        ++stats_.hits;
        ++stats_.hits_by_rank[repl_->rank_of(set, w)];
        res.hit = true;
        if (write) l.dirty = true;
        repl_->touch(set, w);
        return res;
      }
    }

    ++stats_.misses;

    const u32 mask = allowed_mask(set);
    const u32 victim = repl_->victim(set, mask);
    if (victim >= org_.assoc) {
      ++stats_.bypasses;
      res.bypassed = true;
      return res;
    }

    Line& v = line(set, victim);
    if (v.valid) {
      ++stats_.evictions;
      if (v.dirty) {
        res.writeback = true;
        res.writeback_addr =
            (v.tag << (org_.offset_bits() + org_.index_bits())) |
            (set << org_.offset_bits());
        ++stats_.writebacks_out;
      }
    }
    v.valid = true;
    v.dirty = write;
    v.tag = tag;
    ++stats_.fills;
    res.filled = true;
    repl_->touch(set, victim);
    return res;
  }

  /// Lowest valid way holding `addr`'s block, or -1 (CacheLevel::find_way).
  int find_way(u64 addr) const {
    const u64 set = set_of(addr);
    for (u32 w = 0; w < org_.assoc; ++w) {
      const Line& l = lines_[set * org_.assoc + w];
      if (l.valid && l.tag == tag_of(addr)) return static_cast<int>(w);
    }
    return -1;
  }

  AccessResult receive_writeback(u64 addr) {
    ++stats_.writebacks_in;
    const u64 set = set_of(addr);
    const u64 tag = tag_of(addr);

    AccessResult res;
    for (u32 w = 0; w < org_.assoc; ++w) {
      Line& l = line(set, w);
      if (l.valid && l.tag == tag) {
        res.hit = true;
        l.dirty = true;
        repl_->touch(set, w);
        return res;
      }
    }

    const u32 mask = allowed_mask(set);
    const u32 victim = repl_->victim(set, mask);
    if (victim >= org_.assoc) {
      res.bypassed = true;
      return res;
    }
    Line& v = line(set, victim);
    if (v.valid) {
      ++stats_.evictions;
      if (v.dirty) {
        res.writeback = true;
        res.writeback_addr =
            (v.tag << (org_.offset_bits() + org_.index_bits())) |
            (set << org_.offset_bits());
        ++stats_.writebacks_out;
      }
    }
    v.valid = true;
    v.dirty = true;
    v.tag = tag;
    ++stats_.fills;
    res.filled = true;
    repl_->touch(set, victim);
    return res;
  }

  bool set_block_faulty(u64 set, u32 way, bool faulty) {
    Line& l = line(set, way);
    bool needs_writeback = false;
    if (faulty && !l.faulty) {
      needs_writeback = l.valid && l.dirty;
      if (l.valid) ++stats_.invalidations;
      l.valid = false;
      l.dirty = false;
      l.faulty = true;
      ++faulty_count_;
    } else if (!faulty && l.faulty) {
      l.faulty = false;
      --faulty_count_;
    }
    return needs_writeback;
  }

  bool invalidate(u64 set, u32 way) {
    Line& l = line(set, way);
    const bool dirty = l.valid && l.dirty;
    if (l.valid) ++stats_.invalidations;
    l.valid = false;
    l.dirty = false;
    return dirty;
  }

  bool is_valid(u64 set, u32 way) const { return line(set, way).valid; }
  bool is_dirty(u64 set, u32 way) const { return line(set, way).dirty; }
  bool is_faulty(u64 set, u32 way) const { return line(set, way).faulty; }
  u64 tag(u64 set, u32 way) const { return line(set, way).tag; }
  u64 faulty_block_count() const { return faulty_count_; }
  const CacheLevelStats& stats() const { return stats_; }
  const CacheOrg& org() const { return org_; }

 private:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    bool dirty = false;
    bool faulty = false;
  };

  u64 set_of(u64 addr) const {
    return (addr >> org_.offset_bits()) & (org_.num_sets() - 1);
  }
  u64 tag_of(u64 addr) const {
    return addr >> (org_.offset_bits() + org_.index_bits());
  }
  Line& line(u64 set, u32 way) { return lines_[set * org_.assoc + way]; }
  const Line& line(u64 set, u32 way) const {
    return lines_[set * org_.assoc + way];
  }
  u32 allowed_mask(u64 set) const {
    u32 mask = 0;
    for (u32 w = 0; w < org_.assoc; ++w) {
      if (!line(set, w).faulty) mask |= 1u << w;
    }
    return mask;
  }

  CacheOrg org_;
  std::vector<Line> lines_;
  std::unique_ptr<ReplacementPolicy> repl_;
  CacheLevelStats stats_;
  u64 faulty_count_ = 0;
};

void expect_results_equal(const CacheLevel::AccessResult& a,
                          const CacheLevel::AccessResult& b, u64 op) {
  ASSERT_EQ(a.hit, b.hit) << "op " << op;
  ASSERT_EQ(a.filled, b.filled) << "op " << op;
  ASSERT_EQ(a.writeback, b.writeback) << "op " << op;
  ASSERT_EQ(a.writeback_addr, b.writeback_addr) << "op " << op;
  ASSERT_EQ(a.bypassed, b.bypassed) << "op " << op;
}

void expect_stats_equal(const CacheLevelStats& a, const CacheLevelStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.fills, b.fills);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks_out, b.writebacks_out);
  EXPECT_EQ(a.writebacks_in, b.writebacks_in);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.bypasses, b.bypasses);
  EXPECT_EQ(a.transition_writebacks, b.transition_writebacks);
  for (std::size_t r = 0; r < a.hits_by_rank.size(); ++r) {
    EXPECT_EQ(a.hits_by_rank[r], b.hits_by_rank[r]) << "rank " << r;
  }
}

/// Replays `ops` random operations through both models and checks every
/// observable outcome. The mix keeps sets under pressure (address span 4x
/// the cache) and drives enough faulty-bit churn that some sets go fully
/// faulty, exercising the bypass path.
void run_differential(const CacheOrg& org, const char* policy, u64 seed,
                      u64 ops) {
  SCOPED_TRACE(policy);
  CacheLevel opt("diff", org, 1, policy);
  ReferenceCache ref(org, policy);
  Rng rng(seed);

  const u64 span = 4 * org.size_bytes;
  for (u64 op = 0; op < ops; ++op) {
    const u64 kind = rng.uniform_int(100);
    if (kind < 70) {
      const u64 addr = rng.uniform_int(span) & ~7ULL;
      const bool write = rng.bernoulli(0.3);
      ASSERT_EQ(opt.find_way(addr), ref.find_way(addr)) << "op " << op;
      expect_results_equal(opt.access(addr, write), ref.access(addr, write),
                           op);
    } else if (kind < 80) {
      const u64 addr = rng.uniform_int(span) & ~63ULL;
      expect_results_equal(opt.receive_writeback(addr),
                           ref.receive_writeback(addr), op);
    } else if (kind < 95) {
      const u64 set = rng.uniform_int(org.num_sets());
      const u32 way = static_cast<u32>(rng.uniform_int(org.assoc));
      const bool faulty = rng.bernoulli(0.5);
      ASSERT_EQ(opt.set_block_faulty(set, way, faulty),
                ref.set_block_faulty(set, way, faulty))
          << "op " << op;
    } else {
      const u64 set = rng.uniform_int(org.num_sets());
      const u32 way = static_cast<u32>(rng.uniform_int(org.assoc));
      ASSERT_EQ(opt.invalidate(set, way), ref.invalidate(set, way))
          << "op " << op;
    }
  }

  expect_stats_equal(opt.stats(), ref.stats());
  EXPECT_EQ(opt.faulty_block_count(), ref.faulty_block_count());
  for (u64 set = 0; set < org.num_sets(); ++set) {
    for (u32 way = 0; way < org.assoc; ++way) {
      ASSERT_EQ(opt.is_valid(set, way), ref.is_valid(set, way))
          << set << "/" << way;
      ASSERT_EQ(opt.is_dirty(set, way), ref.is_dirty(set, way))
          << set << "/" << way;
      ASSERT_EQ(opt.is_faulty(set, way), ref.is_faulty(set, way))
          << set << "/" << way;
      if (opt.is_valid(set, way)) {
        ASSERT_EQ(opt.block_addr(set, way),
                  (ref.tag(set, way)
                   << (org.offset_bits() + org.index_bits())) |
                      (set << org.offset_bits()))
            << set << "/" << way;
      }
    }
  }
}

TEST(CacheEquivalence, LruMillionMixedOps) {
  run_differential(CacheOrg{8 * 1024, 4, 64, 31}, "lru", 0xA11CE, 600'000);
  run_differential(CacheOrg{32 * 1024, 8, 64, 31}, "lru", 0xB0B, 400'000);
}

TEST(CacheEquivalence, TreePlruMillionMixedOps) {
  run_differential(CacheOrg{8 * 1024, 4, 64, 31}, "tree-plru", 0xC4FE,
                   600'000);
  run_differential(CacheOrg{32 * 1024, 8, 64, 31}, "tree-plru", 0xD00D,
                   400'000);
}

/// Edge associativities: direct-mapped, 16-way (the packed permutation's
/// top nibble, rank 15), and 32-way (the wide byte-rank LRU fallback).
TEST(CacheEquivalence, EdgeAssociativities) {
  run_differential(CacheOrg{4 * 1024, 1, 64, 31}, "lru", 0xE55, 100'000);
  run_differential(CacheOrg{16 * 1024, 16, 64, 31}, "lru", 0xF00, 150'000);
  run_differential(CacheOrg{32 * 1024, 32, 64, 31}, "lru", 0xAB1, 150'000);
  run_differential(CacheOrg{16 * 1024, 16, 64, 31}, "tree-plru", 0xBEE,
                   150'000);
  run_differential(CacheOrg{32 * 1024, 32, 64, 31}, "tree-plru", 0xCAB,
                   150'000);
}

/// Non-power-of-two associativities; sets stay a power of two and tag rows
/// are padded to the next power of two. 17 and 24 ways pad to 32 (the
/// byte-rank LRU path with a partial top row); 3 ways pad to 4, 5 and 6 to
/// 8, and 12 to 16 -- the unrolled way-match widths. The padding is
/// zero-filled, so the 4x span keeps tag-0 addresses (equal to a padded
/// entry) in the stream and the match mask must drop them via the valid
/// bits. Only "lru" is legal here: tree-PLRU rejects odd widths.
TEST(CacheEquivalence, NonPowerOfTwoAssociativities) {
  run_differential(CacheOrg{64 * 17 * 64, 17, 64, 31}, "lru", 0x171,
                   150'000);
  run_differential(CacheOrg{32 * 24 * 64, 24, 64, 31}, "lru", 0x242,
                   150'000);
  run_differential(CacheOrg{64 * 3 * 64, 3, 64, 31}, "lru", 0x303, 150'000);
  run_differential(CacheOrg{64 * 5 * 64, 5, 64, 31}, "lru", 0x505, 150'000);
  run_differential(CacheOrg{64 * 6 * 64, 6, 64, 31}, "lru", 0x606, 150'000);
  run_differential(CacheOrg{32 * 12 * 64, 12, 64, 31}, "lru", 0xC0C,
                   150'000);
  EXPECT_THROW(CacheLevel("bad", CacheOrg{64 * 17 * 64, 17, 64, 31}, 1,
                          "tree-plru"),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcs
