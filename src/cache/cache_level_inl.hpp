// Template bodies of CacheLevel's devirtualized access paths.
//
// These are the K-specialized implementations behind access() and
// receive_writeback(). They live in their own header, included by exactly
// two TUs: cache_level.cpp, which instantiates the three ReplKinds behind
// the per-call dispatch switch (every other caller links against those),
// and core/system.cpp, whose PcsSystem::replay -- the one per-event loop,
// behind PcsSystem::run and every sweep lane -- binds the ReplKind once
// per system so the whole access path can inline into the loop. The
// per-call access()/receive_writeback() stay the reference the bound
// paths must match bit for bit (the per-event oracle in
// tests/system_reference.hpp runs through them).
#pragma once

#include <bit>

#include "cache/cache_level.hpp"

namespace pcs {

// ---- Devirtualized replacement operations ---------------------------------

/// Hit path: recency rank *before* promotion (the DPCS utility monitor's
/// stack distance), then promote.
template <CacheLevel::ReplKind K>
u32 CacheLevel::hit_rank_and_touch(u64 set, u32 way) {
  if constexpr (K == ReplKind::kLruPacked) {
    u64& perm = lru_perm_[set];
    const u32 rank = packed_lru::rank_of(perm, way);
    perm = packed_lru::touch(perm, rank, way);
    return rank;
  } else if constexpr (K == ReplKind::kLruWide) {
    u8* r = &lru_rank_wide_[set << assoc_shift_];
    const u8 old = r[way];
    for (u32 w = 0; w < org_.assoc; ++w) {
      if (r[w] < old) ++r[w];
    }
    r[way] = 0;
    return old;
  } else {
    plru_bits_[set] = packed_plru::touch(plru_bits_[set], org_.assoc, way);
    return 0;  // tree-PLRU has no exact recency order
  }
}

template <CacheLevel::ReplKind K>
void CacheLevel::repl_touch(u64 set, u32 way) {
  if constexpr (K == ReplKind::kLruPacked) {
    u64& perm = lru_perm_[set];
    perm = packed_lru::touch(perm, packed_lru::rank_of(perm, way), way);
  } else if constexpr (K == ReplKind::kLruWide) {
    u8* r = &lru_rank_wide_[set << assoc_shift_];
    const u8 old = r[way];
    for (u32 w = 0; w < org_.assoc; ++w) {
      if (r[w] < old) ++r[w];
    }
    r[way] = 0;
  } else {
    plru_bits_[set] = packed_plru::touch(plru_bits_[set], org_.assoc, way);
  }
}

template <CacheLevel::ReplKind K>
u32 CacheLevel::repl_victim(u64 set, u32 allowed) const {
  if constexpr (K == ReplKind::kLruPacked) {
    return packed_lru::victim(lru_perm_[set], org_.assoc, allowed);
  } else if constexpr (K == ReplKind::kLruWide) {
    const u8* r = &lru_rank_wide_[set << assoc_shift_];
    u32 best = org_.assoc;
    u32 best_rank = 0;
    for (u32 w = 0; w < org_.assoc; ++w) {
      if (!(allowed & (1u << w))) continue;
      if (best == org_.assoc || r[w] > best_rank) {
        best = w;
        best_rank = r[w];
      }
    }
    return best;
  } else {
    return packed_plru::victim(plru_bits_[set], org_.assoc, allowed);
  }
}

// ---- Way match --------------------------------------------------------------

namespace detail {

/// Bit w set iff row[w] == tag, over a W-entry row; no early exit, so the
/// cost does not depend on which way (if any) matches.
template <u32 W>
inline u32 tag_row_match(const u64* row, u64 tag) noexcept {
  u32 m = 0;
  for (u32 w = 0; w < W; ++w) m |= static_cast<u32>(row[w] == tag) << w;
  return m;
}

}  // namespace detail

inline u32 CacheLevel::hit_mask(u64 set, u64 tag) const noexcept {
  // Compare the whole padded row, then keep valid ways only. The valid mask
  // excludes padding (ways >= assoc, zero-filled, so equal to a tag of 0)
  // and stale tags left in invalidated or faulty ways; a valid tag occurs
  // at most once per set, so countr_zero of the result is the way the
  // ascending early-exit scan used to find.
  const u64* row = &tags_[set << assoc_shift_];
  u32 m = 0;
  switch (assoc_shift_) {
    case 2:
      m = detail::tag_row_match<4>(row, tag);
      break;
    case 3:
      m = detail::tag_row_match<8>(row, tag);
      break;
    case 4:
      m = detail::tag_row_match<16>(row, tag);
      break;
    default:
      for (u32 w = 0; w < (1u << assoc_shift_); ++w) {
        m |= static_cast<u32>(row[w] == tag) << w;
      }
      break;
  }
  return m & valid_bits_[set];
}

// ---- Access paths ---------------------------------------------------------

template <CacheLevel::ReplKind K>
CacheLevel::AccessResult CacheLevel::access_impl(u64 addr, bool write) {
  ++stats_.accesses;
  if (write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }

  const u64 set = set_of(addr);
  const u64 tag = tag_of(addr);
  const u64* tags = &tags_[set << assoc_shift_];

  AccessResult res;
  if (const u32 hits = hit_mask(set, tag); hits != 0) {
    const u32 w = static_cast<u32>(std::countr_zero(hits));
    ++stats_.hits;
    ++stats_.hits_by_rank[hit_rank_and_touch<K>(set, w)];
    res.hit = true;
    dirty_bits_[set] |= static_cast<u32>(write) << w;
    return res;
  }

  ++stats_.misses;

  const u32 allowed = way_mask_ & ~faulty_bits_[set];
  const u32 victim = repl_victim<K>(set, allowed);
  if (victim >= org_.assoc) {
    // Every way in the set is faulty: serve from below without caching.
    ++stats_.bypasses;
    res.bypassed = true;
    return res;
  }

  const u32 vbit = 1u << victim;
  if (valid_bits_[set] & vbit) {
    ++stats_.evictions;
    if (dirty_bits_[set] & vbit) {
      res.writeback = true;
      res.writeback_addr =
          (tags[victim] << tag_shift_) | (set << offset_bits_);
      ++stats_.writebacks_out;
    }
  }
  valid_bits_[set] |= vbit;
  dirty_bits_[set] = write ? dirty_bits_[set] | vbit : dirty_bits_[set] & ~vbit;
  tags_[(set << assoc_shift_) + victim] = tag;
  ++stats_.fills;
  res.filled = true;
  repl_touch<K>(set, victim);
  return res;
}

template <CacheLevel::ReplKind K>
CacheLevel::AccessResult CacheLevel::receive_writeback_impl(u64 addr) {
  ++stats_.writebacks_in;
  const u64 set = set_of(addr);
  const u64 tag = tag_of(addr);
  const u64* tags = &tags_[set << assoc_shift_];

  AccessResult res;
  if (const u32 hits = hit_mask(set, tag); hits != 0) {
    const u32 w = static_cast<u32>(std::countr_zero(hits));
    res.hit = true;
    dirty_bits_[set] |= 1u << w;
    repl_touch<K>(set, w);
    return res;
  }

  // Write-allocate the incoming block.
  const u32 allowed = way_mask_ & ~faulty_bits_[set];
  const u32 victim = repl_victim<K>(set, allowed);
  if (victim >= org_.assoc) {
    res.bypassed = true;  // falls through to the level below
    return res;
  }
  const u32 vbit = 1u << victim;
  if (valid_bits_[set] & vbit) {
    ++stats_.evictions;
    if (dirty_bits_[set] & vbit) {
      res.writeback = true;
      res.writeback_addr =
          (tags[victim] << tag_shift_) | (set << offset_bits_);
      ++stats_.writebacks_out;
    }
  }
  valid_bits_[set] |= vbit;
  dirty_bits_[set] |= vbit;
  tags_[(set << assoc_shift_) + victim] = tag;
  ++stats_.fills;
  res.filled = true;
  repl_touch<K>(set, victim);
  return res;
}

}  // namespace pcs
