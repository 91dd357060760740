// Template body of the hierarchy's demand-access path.
//
// Hierarchy::access_t<K> is the single definition of the L1 -> L2 -> DRAM
// routing logic. K selects how the per-level cache calls bind:
//
//   K == kReplDynamic   every call goes through CacheLevel::access() /
//                       receive_writeback(), which dispatch on repl_kind()
//                       per call. Hierarchy::access() is defined as this
//                       instantiation.
//
//   K == (ReplKind)     calls bind directly to access_impl<K>; a TU that
//                       also includes cache_level_inl.hpp (core/system.cpp,
//                       home of PcsSystem::replay) gets the whole path
//                       inlined with the replacement dispatch hoisted out of
//                       its event loop. Only valid when ALL levels share
//                       that ReplKind -- checked when the system is
//                       assembled, not here.
//
// Both instantiations execute the same statements in the same order on the
// same state, so their results are bit-identical by construction.
#pragma once

#include "cache/hierarchy.hpp"

namespace pcs {

namespace hier_detail {

template <int K>
inline CacheLevel::AccessResult lvl_access(CacheLevel& c, u64 addr,
                                           bool write) {
  if constexpr (K == kReplDynamic) {
    return c.access(addr, write);
  } else {
    return c.access_impl<static_cast<CacheLevel::ReplKind>(K)>(addr, write);
  }
}

template <int K>
inline CacheLevel::AccessResult lvl_receive_writeback(CacheLevel& c,
                                                      u64 addr) {
  if constexpr (K == kReplDynamic) {
    return c.receive_writeback(addr);
  } else {
    return c.receive_writeback_impl<static_cast<CacheLevel::ReplKind>(K)>(
        addr);
  }
}

}  // namespace hier_detail

template <int K>
void Hierarchy::l2_access_t(u64 addr, bool write, AccessOutcome& out) {
  out.latency += cfg_.l2_hit_latency;
  const auto r2 = hier_detail::lvl_access<K>(*l2_, addr, write);
  out.l2_hit = r2.hit;
  if (!r2.hit) {
    out.latency += cfg_.mem_latency;
    out.mem_access = true;
    ++mem_reads_;  // block fetch from DRAM
  }
  if (r2.writeback) ++mem_writes_;
  if (r2.bypassed && write) ++mem_writes_;  // uncacheable dirty data
}

template <int K>
AccessOutcome Hierarchy::access_t(const MemRef& ref) {
  AccessOutcome out;
  CacheLevel& l1 = ref.ifetch ? *l1i_ : *l1d_;

  out.latency += cfg_.l1_hit_latency;
  const auto r1 = hier_detail::lvl_access<K>(l1, ref.addr, ref.write);
  out.l1_hit = r1.hit;

  if (r1.writeback) {
    // Victim writeback drains to L2 off the critical path (no latency).
    const auto wb =
        hier_detail::lvl_receive_writeback<K>(*l2_, r1.writeback_addr);
    if (wb.writeback) ++mem_writes_;
    if (wb.bypassed) ++mem_writes_;
  }

  if (!r1.hit) {
    // Demand fill from L2 (and DRAM beyond it on an L2 miss).
    l2_access_t<K>(ref.addr, false, out);
    if (r1.bypassed && ref.write) {
      // The store could not allocate in L1; its data is captured by L2
      // via a write access instead. Its outcome carries DRAM traffic too:
      // a dirty victim it evicts, or the dirty data itself when L2 cannot
      // allocate either (all ways faulty), must reach memory.
      const auto r2 = hier_detail::lvl_access<K>(*l2_, ref.addr, true);
      if (r2.writeback) ++mem_writes_;
      if (r2.bypassed) ++mem_writes_;  // uncacheable dirty data
    }
  }
  return out;
}

}  // namespace pcs
