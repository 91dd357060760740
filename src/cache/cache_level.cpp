#include "cache/cache_level.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "cache/cache_level_inl.hpp"
#include "telemetry/trace_sink.hpp"

namespace pcs {

namespace {

/// ceil(log2(assoc)): the tag-row stride shift. Non-power-of-two widths pad
/// the row up so `set << shift` indexing stays branch-free (17 -> 32, 24 ->
/// 32 entries per row; the extra slots are never addressed).
u32 row_shift(u32 assoc) {
  return assoc <= 1 ? 0u : static_cast<u32>(std::bit_width(assoc - 1));
}

bool is_pow2(u32 x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

CacheArena::Spec CacheLevel::storage_spec(const CacheOrg& org,
                                          const char* replacement) {
  const u64 sets = org.num_sets();
  CacheArena::Spec spec;
  spec.u64s = sets << row_shift(org.assoc);  // tags (padded rows)
  spec.u32s = 3 * sets;                      // valid + dirty + faulty masks
  const std::string n = replacement;
  if (n == "lru") {
    if (org.assoc <= 16) {
      spec.u64s += sets;  // packed permutations
    } else {
      spec.u8s += sets << row_shift(org.assoc);  // wide byte ranks
    }
  } else {
    spec.u32s += sets;  // tree-PLRU node bits
  }
  return spec;
}

CacheLevel::CacheLevel(std::string name, const CacheOrg& org,
                       u32 hit_latency_cycles, const char* replacement,
                       CacheArena* arena)
    : name_(std::move(name)), org_(org), hit_latency_(hit_latency_cycles) {
  org_.validate();
  if (org_.assoc > 32) {
    throw std::invalid_argument("assoc 1..32");
  }

  offset_bits_ = org_.offset_bits();
  tag_shift_ = org_.offset_bits() + org_.index_bits();
  assoc_shift_ = row_shift(org_.assoc);
  set_mask_ = org_.num_sets() - 1;
  way_mask_ = org_.assoc == 32 ? 0xFFFFFFFFu : (1u << org_.assoc) - 1;

  const u64 sets = org_.num_sets();
  const u64 tag_slots = sets << assoc_shift_;

  const std::string n = replacement;
  if (n == "lru") {
    repl_kind_ = org_.assoc <= 16 ? ReplKind::kLruPacked : ReplKind::kLruWide;
  } else if (n == "tree-plru") {
    if (!is_pow2(org_.assoc)) {
      throw std::invalid_argument(
          "tree-plru requires power-of-two associativity");
    }
    repl_kind_ = ReplKind::kTreePlru;
  } else {
    throw std::invalid_argument("unknown replacement policy: " + n);
  }

  // Bind storage: carve the already-zeroed arena slabs, or own zero-filled
  // vectors with the same layout. Pointer arithmetic past here is identical
  // for both backings.
  if (arena != nullptr) {
    tags_ = arena->take_u64(tag_slots);
    valid_bits_ = arena->take_u32(sets);
    dirty_bits_ = arena->take_u32(sets);
    faulty_bits_ = arena->take_u32(sets);
    if (repl_kind_ == ReplKind::kLruPacked) {
      lru_perm_ = arena->take_u64(sets);
    } else if (repl_kind_ == ReplKind::kLruWide) {
      lru_rank_wide_ = arena->take_u8(tag_slots);
    } else {
      plru_bits_ = arena->take_u32(sets);
    }
  } else {
    const auto spec = storage_spec(org_, replacement);
    own_u64_.assign(spec.u64s, 0);
    own_u32_.assign(spec.u32s, 0);
    own_u8_.assign(spec.u8s, 0);
    tags_ = own_u64_.data();
    valid_bits_ = own_u32_.data();
    dirty_bits_ = valid_bits_ + sets;
    faulty_bits_ = dirty_bits_ + sets;
    if (repl_kind_ == ReplKind::kLruPacked) {
      lru_perm_ = tags_ + tag_slots;
    } else if (repl_kind_ == ReplKind::kLruWide) {
      lru_rank_wide_ = own_u8_.data();
    } else {
      plru_bits_ = faulty_bits_ + sets;
    }
  }

  // Initial replacement order: way 0 MRU .. way assoc-1 LRU.
  if (repl_kind_ == ReplKind::kLruPacked) {
    std::fill(lru_perm_, lru_perm_ + sets, packed_lru::kIdentity);
  } else if (repl_kind_ == ReplKind::kLruWide) {
    for (u64 s = 0; s < sets; ++s) {
      for (u32 w = 0; w < org_.assoc; ++w) {
        lru_rank_wide_[(s << assoc_shift_) + w] = static_cast<u8>(w);
      }
    }
  }
}

CacheLevel::AccessResult CacheLevel::access(u64 addr, bool write) {
  switch (repl_kind_) {
    case ReplKind::kLruPacked:
      return access_impl<ReplKind::kLruPacked>(addr, write);
    case ReplKind::kLruWide:
      return access_impl<ReplKind::kLruWide>(addr, write);
    case ReplKind::kTreePlru:
      return access_impl<ReplKind::kTreePlru>(addr, write);
  }
  __builtin_unreachable();
}

CacheLevel::AccessResult CacheLevel::receive_writeback(u64 addr) {
  switch (repl_kind_) {
    case ReplKind::kLruPacked:
      return receive_writeback_impl<ReplKind::kLruPacked>(addr);
    case ReplKind::kLruWide:
      return receive_writeback_impl<ReplKind::kLruWide>(addr);
    case ReplKind::kTreePlru:
      return receive_writeback_impl<ReplKind::kTreePlru>(addr);
  }
  __builtin_unreachable();
}

// ---- Faulty-bit and coherence maintenance ---------------------------------

bool CacheLevel::set_block_faulty(u64 set, u32 way, bool faulty) {
  const u32 bit = 1u << way;
  bool needs_writeback = false;
  if (faulty && !(faulty_bits_[set] & bit)) {
    const bool was_valid = valid_bits_[set] & bit;
    needs_writeback = was_valid && (dirty_bits_[set] & bit);
    if (was_valid) ++stats_.invalidations;
    valid_bits_[set] &= ~bit;
    dirty_bits_[set] &= ~bit;
    faulty_bits_[set] |= bit;
    ++faulty_count_;
  } else if (!faulty && (faulty_bits_[set] & bit)) {
    faulty_bits_[set] &= ~bit;
    --faulty_count_;
  }
  return needs_writeback;
}

int CacheLevel::find_way(u64 addr) const noexcept {
  const u32 hits = hit_mask(set_of(addr), tag_of(addr));
  return hits != 0 ? std::countr_zero(hits) : -1;
}

bool CacheLevel::invalidate(u64 set, u32 way) {
  const u32 bit = 1u << way;
  const bool was_valid = valid_bits_[set] & bit;
  const bool dirty = was_valid && (dirty_bits_[set] & bit);
  if (was_valid) ++stats_.invalidations;
  valid_bits_[set] &= ~bit;
  dirty_bits_[set] &= ~bit;
  return dirty;
}

void CacheLevel::reset() {
  const u64 sets = org_.num_sets();
  std::fill(valid_bits_, valid_bits_ + sets, 0u);
  std::fill(dirty_bits_, dirty_bits_ + sets, 0u);
}

void CacheLevel::emit_stats(TraceSink& sink,
                            const CacheLevelStats& window) const {
  TraceRecord rec("cache_stats");
  rec.field("cache", name_)
      .field("accesses", window.accesses)
      .field("hits", window.hits)
      .field("misses", window.misses)
      .field("reads", window.reads)
      .field("writes", window.writes)
      .field("fills", window.fills)
      .field("evictions", window.evictions)
      .field("writebacks_out", window.writebacks_out)
      .field("writebacks_in", window.writebacks_in)
      .field("invalidations", window.invalidations)
      .field("bypasses", window.bypasses)
      .field("transition_writebacks", window.transition_writebacks);
  sink.emit(rec);
}

CacheLevel::OccupancySnapshot CacheLevel::occupancy() const noexcept {
  OccupancySnapshot snap;
  const u64 sets = org_.num_sets();
  for (u64 s = 0; s < sets; ++s) {
    const u32 v = valid_bits_[s];
    const u32 d = dirty_bits_[s];
    const u32 f = faulty_bits_[s];
    ++snap.sets_by_valid_ways[static_cast<u32>(std::popcount(v))];
    u32 any = v | d | f;
    while (any != 0) {
      const u32 w = static_cast<u32>(std::countr_zero(any));
      any &= any - 1;
      const u32 bit = 1u << w;
      snap.valid_sets[w] += (v & bit) != 0 ? 1 : 0;
      snap.dirty_sets[w] += (d & bit) != 0 ? 1 : 0;
      snap.faulty_sets[w] += (f & bit) != 0 ? 1 : 0;
    }
  }
  return snap;
}

void CacheLevel::emit_occupancy(TraceSink& sink, u64 interval,
                                Cycle cycle) const {
  const OccupancySnapshot snap = occupancy();
  for (u32 w = 0; w < org_.assoc; ++w) {
    TraceRecord rec("occupancy_way");
    rec.field("cache", name_)
        .field("interval", interval)
        .field("cycle", cycle)
        .field("way", w)
        .field("valid_sets", snap.valid_sets[w])
        .field("dirty_sets", snap.dirty_sets[w])
        .field("faulty_sets", snap.faulty_sets[w]);
    sink.emit(rec);
  }
  for (u32 v = 0; v <= org_.assoc; ++v) {
    TraceRecord rec("occupancy_set");
    rec.field("cache", name_)
        .field("interval", interval)
        .field("cycle", cycle)
        .field("valid_ways", v)
        .field("sets", snap.sets_by_valid_ways[v]);
    sink.emit(rec);
  }
}

double CacheLevel::effective_capacity() const noexcept {
  return 1.0 - static_cast<double>(faulty_count_) /
                   static_cast<double>(org_.num_blocks());
}

// Instantiate the three dispatch targets here so TUs that include only
// cache_level.hpp link against these definitions.
template CacheLevel::AccessResult CacheLevel::access_impl<
    CacheLevel::ReplKind::kLruPacked>(u64, bool);
template CacheLevel::AccessResult
    CacheLevel::access_impl<CacheLevel::ReplKind::kLruWide>(u64, bool);
template CacheLevel::AccessResult
    CacheLevel::access_impl<CacheLevel::ReplKind::kTreePlru>(u64, bool);
template CacheLevel::AccessResult CacheLevel::receive_writeback_impl<
    CacheLevel::ReplKind::kLruPacked>(u64);
template CacheLevel::AccessResult
    CacheLevel::receive_writeback_impl<CacheLevel::ReplKind::kLruWide>(u64);
template CacheLevel::AccessResult
    CacheLevel::receive_writeback_impl<CacheLevel::ReplKind::kTreePlru>(u64);

}  // namespace pcs
