#include "cache/hierarchy.hpp"

#include "cache/hierarchy_inl.hpp"

namespace pcs {

Hierarchy::Hierarchy(const HierarchyConfig& cfg, CacheArena* arena)
    : cfg_(cfg) {
  l1i_ = std::make_unique<CacheLevel>("L1I", cfg.l1i, cfg.l1_hit_latency,
                                      cfg.replacement, arena);
  l1d_ = std::make_unique<CacheLevel>("L1D", cfg.l1d, cfg.l1_hit_latency,
                                      cfg.replacement, arena);
  l2_ = std::make_unique<CacheLevel>("L2", cfg.l2, cfg.l2_hit_latency,
                                     cfg.replacement, arena);
}

CacheArena::Spec Hierarchy::storage_spec(const HierarchyConfig& cfg) {
  CacheArena::Spec spec = CacheLevel::storage_spec(cfg.l1i, cfg.replacement);
  spec += CacheLevel::storage_spec(cfg.l1d, cfg.replacement);
  spec += CacheLevel::storage_spec(cfg.l2, cfg.replacement);
  return spec;
}

AccessOutcome Hierarchy::access(const MemRef& ref) {
  return access_t<kReplDynamic>(ref);
}

void Hierarchy::writeback_from(CacheLevel& from, u64 addr) {
  if (&from == l2_.get()) {
    ++mem_writes_;
    return;
  }
  const auto wb = l2_->receive_writeback(addr);
  if (wb.writeback) ++mem_writes_;
  if (wb.bypassed) ++mem_writes_;
}

// The per-call-dispatch instantiation behind access(). ReplKind-bound
// instantiations are produced by PcsSystem::replay's TU (core/system.cpp,
// which inlines cache_level_inl.hpp too).
template AccessOutcome Hierarchy::access_t<kReplDynamic>(const MemRef&);

}  // namespace pcs
