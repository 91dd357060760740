// Memory-mapped zero-copy .pcst reader.
//
// PcstFile maps the container read-only (falling back to a plain read on
// platforms/filesystems where mmap fails) and validates the header and
// block index once at open. It is immutable after construction, so one
// shared mapping can feed any number of PcstTrace cursors concurrently --
// the lane-parallel sweep engine opens the file once and gives every shard
// its own cursor over the same pages, no re-parse and no per-lane copies.
//
// PcstTrace is the TraceSource adapter: next() serves events one at a time;
// next_block() -- what PcsSystem::run and the sweep shards pull through
// drive_blocks -- decodes whole 256-event blocks STRAIGHT into the caller's
// decode buffer whenever the caller asks for at least a full block,
// buffering only the clipped tail at warmup/measure boundaries.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/trace_source.hpp"
#include "trace/decode.hpp"
#include "util/types.hpp"

namespace pcs {

/// One opened, validated .pcst container. Thread-safe for concurrent
/// decode_block calls (all state is immutable after construction).
class PcstFile {
 public:
  /// Opens and validates `path`. Throws std::runtime_error on open failure,
  /// bad magic/version, or header/index corruption.
  explicit PcstFile(const std::string& path);
  PcstFile(const PcstFile&) = delete;
  PcstFile& operator=(const PcstFile&) = delete;
  ~PcstFile();

  const std::string& path() const noexcept { return path_; }
  /// Workload name embedded at record/convert time (becomes the replayed
  /// TraceSource::name(), keeping SimReports byte-identical to the text
  /// original).
  const std::string& name() const noexcept { return header_.name; }
  u64 event_count() const noexcept { return header_.event_count; }
  u64 block_count() const noexcept { return header_.block_count; }
  u32 events_per_block() const noexcept { return header_.events_per_block; }
  u64 size_bytes() const noexcept { return size_; }
  /// Events in one block (the last block may be short).
  u32 block_events(u64 block) const noexcept { return index_[block].events; }
  /// True when the file is served from an mmap (false = read fallback).
  bool mapped() const noexcept { return mapped_; }

  /// Decodes block `block` into out[0..block_events(block)). Verifies the
  /// block checksum; throws naming the block on corruption. `out` must hold
  /// events_per_block() entries.
  u32 decode_block(u64 block, TraceEvent* out) const {
    return decode_pcst_block(data_, index_[block], block, out, path_);
  }

 private:
  std::string path_;
  const u8* data_ = nullptr;
  u64 size_ = 0;
  bool mapped_ = false;
  std::vector<u8> fallback_;  ///< owns the bytes when !mapped_
  PcstHeader header_;
  std::vector<PcstBlockRef> index_;
};

/// TraceSource cursor over a shared PcstFile mapping.
class PcstTrace final : public TraceSource {
 public:
  explicit PcstTrace(std::shared_ptr<const PcstFile> file);
  /// Convenience: open a private mapping of `path`.
  explicit PcstTrace(const std::string& path);

  bool next(TraceEvent& out) override;
  u64 next_block(TraceEvent* out, u64 max_events) override;
  const char* name() const override { return file_->name().c_str(); }

  const PcstFile& file() const noexcept { return *file_; }
  /// Events delivered so far.
  u64 events_read() const noexcept { return events_; }

 private:
  std::shared_ptr<const PcstFile> file_;
  std::vector<TraceEvent> buf_;  ///< decoded tail of a partially-consumed block
  u64 block_ = 0;   ///< next block to decode
  u32 pos_ = 0;     ///< cursor into buf_
  u32 len_ = 0;     ///< valid events in buf_
  u64 events_ = 0;
};

}  // namespace pcs
