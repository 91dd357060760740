// One cache level (gem5-classic-style): set-associative, write-back,
// write-allocate, with PCS faulty-block support.
//
// Faulty blocks hold no valid data, can never hit, and are skipped by the
// replacement policy (paper section 3.1). The PCS mechanism drives the
// per-block Faulty bits through set_block_faulty()/the transition procedure
// in core/mechanism.
//
// Hot-path layout (see DESIGN.md section 9): state is structure-of-arrays --
// a contiguous u64 tag array plus one packed u32 valid/dirty/faulty bitmask
// per set -- so a lookup compares the tag against every entry of one tag
// row with no early exit and ANDs the match bits with the set's valid mask
// (hit way = lowest set bit; no data-dependent branch per way), and the
// allowed-way mask is a single load (`~faulty_mask(set)`), maintained
// incrementally by set_block_faulty()/invalidate() instead of rescanned per
// miss. The replacement policy is devirtualized: the constructor picks a
// ReplKind and access()/receive_writeback() dispatch once per reference to
// a template instantiation whose touch/victim/rank operations inline
// (packed-u64 LRU nibble permutation, packed-u32 tree-PLRU). Results are
// bit-identical to the virtual-policy AoS implementation, which survives as
// the reference model in tests/test_cache_equivalence.cpp.
//
// Storage may be bound to an external CacheArena (SoA-across-configs; see
// cache_arena.hpp and DESIGN.md section 12) so that the sweep engine's N
// lane caches share three pooled slabs instead of 7N small heap blocks.
// The associativity is any value in 1..32 -- not necessarily a power of
// two; tag rows are padded to the next power of two so set indexing stays
// a shift (odd widths use the wide byte-rank LRU).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/replacement.hpp"
#include "cachemodel/cache_org.hpp"
#include "util/types.hpp"

namespace pcs {

class TraceSink;

/// Event counters for one cache level.
///
/// "Demand" accesses come from the CPU side; writebacks arriving from an
/// upper level are counted separately (they consume energy but are not
/// demand misses).
struct CacheLevelStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 reads = 0;
  u64 writes = 0;
  u64 fills = 0;
  u64 evictions = 0;
  u64 writebacks_out = 0;     ///< dirty victims pushed to the level below
  u64 writebacks_in = 0;      ///< writebacks received from the level above
  u64 invalidations = 0;
  u64 bypasses = 0;           ///< misses that could not allocate (all ways faulty)
  u64 transition_writebacks = 0;  ///< dirty blocks flushed by VDD transitions
  /// Utility-monitor counters: demand hits by recency rank at lookup time
  /// (0 = MRU). Hits at the deepest ranks are the hits a capacity
  /// reduction would forfeit -- the DPCS descend gate reads these.
  std::array<u64, 32> hits_by_rank{};

  double miss_rate() const noexcept {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses)
                    : 0.0;
  }
  /// Accesses that toggle the arrays, for dynamic-energy accounting.
  u64 energy_accesses() const noexcept {
    return accesses + fills + writebacks_in + transition_writebacks;
  }

  /// Exact field-wise equality (differential suites compare engines).
  bool operator==(const CacheLevelStats&) const = default;

  /// Component-wise difference (for excluding a warm-up window).
  CacheLevelStats operator-(const CacheLevelStats& rhs) const noexcept {
    CacheLevelStats d;
    d.accesses = accesses - rhs.accesses;
    d.hits = hits - rhs.hits;
    d.misses = misses - rhs.misses;
    d.reads = reads - rhs.reads;
    d.writes = writes - rhs.writes;
    d.fills = fills - rhs.fills;
    d.evictions = evictions - rhs.evictions;
    d.writebacks_out = writebacks_out - rhs.writebacks_out;
    d.writebacks_in = writebacks_in - rhs.writebacks_in;
    d.invalidations = invalidations - rhs.invalidations;
    d.bypasses = bypasses - rhs.bypasses;
    d.transition_writebacks = transition_writebacks - rhs.transition_writebacks;
    for (std::size_t r = 0; r < hits_by_rank.size(); ++r) {
      d.hits_by_rank[r] = hits_by_rank[r] - rhs.hits_by_rank[r];
    }
    return d;
  }
};

/// A single set-associative cache level.
class CacheLevel {
 public:
  /// Devirtualized replacement dispatch: chosen once at construction.
  /// Public so the fused paths (cache_level_inl.hpp, Hierarchy::access_t,
  /// PcsSystem::replay, CacheLaneSweep::replay) can hoist the dispatch out
  /// of their event loops; not otherwise a stable API.
  enum class ReplKind : u8 {
    kLruPacked,  ///< true LRU, u64 nibble permutation (assoc <= 16)
    kLruWide,    ///< true LRU, byte ranks (non-pow2 or 16 < assoc <= 32)
    kTreePlru,   ///< tree pseudo-LRU, u32 node bits (pow2 assoc only)
  };

  /// `replacement` is "lru" (paper default) or "tree-plru". When `arena` is
  /// non-null all per-set state is carved from it (the arena must have been
  /// reserve()d with at least this level's storage_spec()); otherwise the
  /// level owns its storage. Either way the level must not outlive the
  /// arena it is bound to.
  CacheLevel(std::string name, const CacheOrg& org, u32 hit_latency_cycles,
             const char* replacement = "lru", CacheArena* arena = nullptr);

  /// Slab element counts a level with this shape consumes from an arena.
  static CacheArena::Spec storage_spec(const CacheOrg& org,
                                       const char* replacement = "lru");

  // External-storage pointers make copying unsafe; moving is fine (vector
  // heap buffers are stable across moves).
  CacheLevel(const CacheLevel&) = delete;
  CacheLevel& operator=(const CacheLevel&) = delete;
  CacheLevel(CacheLevel&&) = default;
  CacheLevel& operator=(CacheLevel&&) = default;

  /// Outcome of one demand access (lookup + allocate-on-miss).
  struct AccessResult {
    bool hit = false;
    bool filled = false;
    bool writeback = false;  ///< a dirty victim was evicted
    u64 writeback_addr = 0;
    bool bypassed = false;   ///< no usable way in the set; not cached

    bool operator==(const AccessResult&) const = default;
  };

  /// Performs a demand read/write of the block containing `addr`.
  AccessResult access(u64 addr, bool write);

  /// Receives a writeback from the level above (write-allocates).
  AccessResult receive_writeback(u64 addr);

  // ---- Fused dispatch (see cache_level_inl.hpp) ---------------------------
  // Bodies of the K-specialized access paths live in cache_level_inl.hpp;
  // include it to inline them into an event loop that has hoisted the
  // repl_kind() dispatch (PcsSystem::replay's TU does); other TUs link
  // against the instantiations in cache_level.cpp. The un-templated
  // access()/receive_writeback() above dispatch per call and are the
  // reference the fused paths must match bit for bit.
  template <ReplKind K>
  AccessResult access_impl(u64 addr, bool write);
  template <ReplKind K>
  AccessResult receive_writeback_impl(u64 addr);

  ReplKind repl_kind() const noexcept { return repl_kind_; }

  // ---- PCS mechanism interface -------------------------------------------

  /// Marks (set, way) faulty/non-faulty. Marking faulty invalidates the
  /// block; the return value is true if the block was valid AND dirty, i.e.
  /// the caller must write its contents back before the voltage changes.
  bool set_block_faulty(u64 set, u32 way, bool faulty);

  bool is_faulty(u64 set, u32 way) const noexcept {
    return (faulty_bits_[set] >> way) & 1u;
  }
  bool is_valid(u64 set, u32 way) const noexcept {
    return (valid_bits_[set] >> way) & 1u;
  }
  bool is_dirty(u64 set, u32 way) const noexcept {
    return (dirty_bits_[set] >> way) & 1u;
  }
  /// Full block-aligned address of a valid block.
  u64 block_addr(u64 set, u32 way) const noexcept {
    return (tags_[(set << assoc_shift_) + way] << tag_shift_) |
           (set << offset_bits_);
  }

  /// Invalidates one block; returns true if it was valid and dirty.
  bool invalidate(u64 set, u32 way);

  /// Invalidates the whole cache (testing / reset); dirty data is dropped.
  void reset();

  // ---- Introspection ------------------------------------------------------

  /// Emits one `cache_stats` trace record for `window` (normally the
  /// measured-window delta of this level's counters; see TELEMETRY.md).
  void emit_stats(TraceSink& sink, const CacheLevelStats& window) const;

  /// Point-in-time occupancy summary, reduced from the packed per-set
  /// valid/dirty/faulty masks. Pure state inspection -- no counters move.
  struct OccupancySnapshot {
    std::array<u64, 32> valid_sets{};   ///< sets whose way w holds a valid line
    std::array<u64, 32> dirty_sets{};   ///< sets whose way w is dirty
    std::array<u64, 32> faulty_sets{};  ///< sets whose way w is power-gated
    std::array<u64, 33> sets_by_valid_ways{};  ///< histogram: sets with v valid ways
  };
  OccupancySnapshot occupancy() const noexcept;

  /// Emits the `occupancy_way` (one per way) and `occupancy_set`
  /// (valid-ways histogram) records for an interval boundary; see
  /// TELEMETRY.md. Deterministic -- derives only from cache state.
  void emit_occupancy(TraceSink& sink, u64 interval, Cycle cycle) const;

  const std::string& name() const noexcept { return name_; }
  const CacheOrg& org() const noexcept { return org_; }
  u32 hit_latency() const noexcept { return hit_latency_; }
  const CacheLevelStats& stats() const noexcept { return stats_; }
  CacheLevelStats& stats() noexcept { return stats_; }
  u64 faulty_block_count() const noexcept { return faulty_count_; }
  /// Fraction of blocks currently usable.
  double effective_capacity() const noexcept;
  u64 set_of(u64 addr) const noexcept {
    return (addr >> offset_bits_) & set_mask_;
  }
  /// True if some way of `addr`'s set holds the block (valid match).
  bool probe(u64 addr) const noexcept { return find_way(addr) >= 0; }
  /// Way currently holding `addr`'s block, or -1 (coherence snooping).
  int find_way(u64 addr) const noexcept;
  /// Clears the dirty bit of a valid line (coherence downgrade M -> S
  /// after its data has been written back by an intervention).
  void clean_line(u64 set, u32 way) noexcept {
    dirty_bits_[set] &= ~(1u << way);
  }

  /// Packed per-set occupancy masks (bit w = way w). `~faulty_mask(set) &
  /// way_mask()` is exactly the allowed-way mask the miss path consults --
  /// the PCS transition procedure diffs faulty_mask() against the fault
  /// map's target state to skip untouched sets.
  u32 valid_mask(u64 set) const noexcept { return valid_bits_[set]; }
  u32 dirty_mask(u64 set) const noexcept { return dirty_bits_[set]; }
  u32 faulty_mask(u64 set) const noexcept { return faulty_bits_[set]; }
  /// All-ways mask for this associativity (bits 0..assoc-1 set).
  u32 way_mask() const noexcept { return way_mask_; }

 private:
  u64 tag_of(u64 addr) const noexcept { return addr >> tag_shift_; }

  /// Valid ways of `set` holding `tag` (at most one bit): the single
  /// lookup behind access, receive_writeback and find_way. Defined in
  /// cache_level_inl.hpp.
  u32 hit_mask(u64 set, u64 tag) const noexcept;

  template <ReplKind K>
  u32 hit_rank_and_touch(u64 set, u32 way);
  template <ReplKind K>
  void repl_touch(u64 set, u32 way);
  template <ReplKind K>
  u32 repl_victim(u64 set, u32 allowed) const;

  std::string name_;
  CacheOrg org_;
  u32 hit_latency_;

  // Geometry hoisted out of CacheOrg's bit-counting loops.
  u32 offset_bits_ = 0;
  u32 tag_shift_ = 0;    ///< offset_bits + index_bits
  u32 assoc_shift_ = 0;  ///< ceil(log2(assoc)); tag row base = set << assoc_shift_
  u64 set_mask_ = 0;
  u32 way_mask_ = 0;

  // SoA state: tags set-major, one packed bitmask per set otherwise. The
  // pointers alias either the own_* vectors below or an external
  // CacheArena's slabs; hot-path code only ever sees the pointers.
  std::vector<u64> own_u64_;
  std::vector<u32> own_u32_;
  std::vector<u8> own_u8_;
  u64* tags_ = nullptr;
  u32* valid_bits_ = nullptr;
  u32* dirty_bits_ = nullptr;
  u32* faulty_bits_ = nullptr;  // pcs-lint: allow(INV001) null member init; bound in ctor, not a fault-map write

  // Replacement state (exactly one pointer is bound, per repl_kind_).
  ReplKind repl_kind_ = ReplKind::kLruPacked;
  u64* lru_perm_ = nullptr;       ///< packed_lru permutation per set
  u8* lru_rank_wide_ = nullptr;   ///< byte ranks, set-major (wide LRU)
  u32* plru_bits_ = nullptr;      ///< packed_plru node bits per set

  CacheLevelStats stats_;
  u64 faulty_count_ = 0;
};

}  // namespace pcs
