#include "trace/decode.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace pcs {

namespace {

[[noreturn]] void bad_file(const std::string& path, const std::string& what) {
  throw std::runtime_error(path + ": " + what);
}

[[noreturn]] void bad_block(const std::string& path, u64 block,
                            const std::string& what) {
  throw std::runtime_error(path + ": block " + std::to_string(block) + ": " +
                           what);
}

/// Unpacks the n `width`-bit values of a packed delta lane of `bytes`
/// bytes (LSB-first bitstream, format.hpp) into zz[0..n). While the 8-byte
/// window at a value's first byte lies inside the lane, one unaligned
/// little-endian load serves it: width <= kMaxPackWidth (56) plus the bit
/// offset (<= 7) fits in 64 bits. The last values fall back to assembling
/// only the lane's remaining bytes, so nothing past the lane is read.
void unpack_lane(const u8* lane, u64 bytes, u32 width, u64 n, u64* zz) {
  static_assert(pcst::kMaxPackWidth + 7 <= 64);
  if (width == 0) {
    for (u64 i = 0; i < n; ++i) zz[i] = 0;
    return;
  }
  const u64 mask = ~0ULL >> (64 - width);
  u64 i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (u64 bit = 0; i < n && (bit >> 3) + 8 <= bytes; ++i, bit += width) {
      u64 word;
      std::memcpy(&word, lane + (bit >> 3), sizeof word);
      zz[i] = (word >> (bit & 7)) & mask;
    }
  }
  for (; i < n; ++i) {
    const u64 bit = i * width;
    const u64 first = bit >> 3;
    const u64 avail = std::min<u64>(8, bytes - first);
    u64 word = 0;
    for (u64 b = 0; b < avail; ++b) {
      word |= static_cast<u64>(lane[first + b]) << (8 * b);
    }
    zz[i] = (word >> (bit & 7)) & mask;
  }
}

}  // namespace

bool is_pcst_image(const u8* data, u64 size) noexcept {
  return size >= sizeof pcst::kMagic &&
         std::memcmp(data, pcst::kMagic, sizeof pcst::kMagic) == 0;
}

PcstHeader parse_pcst_header(const u8* data, u64 size,
                             const std::string& path) {
  if (size < pcst::kHeaderFixedBytes + 4) {
    bad_file(path, "truncated header (not a .pcst trace?)");
  }
  if (!is_pcst_image(data, size)) {
    bad_file(path, "bad magic (not a .pcst trace)");
  }
  PcstHeader h;
  h.version = pcst::get_u32(data + 4);
  h.events_per_block = pcst::get_u32(data + 8);
  const u32 name_len = pcst::get_u32(data + 12);
  h.event_count = pcst::get_u64(data + 16);
  h.block_count = pcst::get_u64(data + 24);
  h.index_offset = pcst::get_u64(data + 32);
  if (h.version != pcst::kVersion) {
    bad_file(path, "unsupported .pcst version " + std::to_string(h.version) +
                       " (this reader knows version " +
                       std::to_string(pcst::kVersion) + ")");
  }
  // The exception list indexes events with a u8, so v1 blocks cannot hold
  // more than kEventsPerBlock events.
  if (h.events_per_block == 0 || h.events_per_block > pcst::kEventsPerBlock) {
    bad_file(path, "implausible events_per_block " +
                       std::to_string(h.events_per_block));
  }
  if (name_len > pcst::kMaxNameLen) {
    bad_file(path, "implausible name length " + std::to_string(name_len));
  }
  h.header_bytes = pcst::kHeaderFixedBytes + name_len + 4;
  if (size < h.header_bytes) bad_file(path, "truncated header name");
  h.name.assign(reinterpret_cast<const char*>(data) + pcst::kHeaderFixedBytes,
                name_len);
  const u32 want =
      pcst::get_u32(data + pcst::kHeaderFixedBytes + name_len);
  const u32 got = pcst::fnv1a(data, pcst::kHeaderFixedBytes + name_len);
  if (want != got) bad_file(path, "header checksum mismatch (corrupt trace)");
  return h;
}

std::vector<PcstBlockRef> parse_pcst_index(const u8* data, u64 size,
                                           const PcstHeader& h,
                                           const std::string& path) {
  const u64 index_bytes = h.block_count * pcst::kIndexEntryBytes;
  if (h.index_offset < h.header_bytes || h.index_offset > size ||
      size - h.index_offset != index_bytes + 4) {
    bad_file(path, "truncated or oversized file (block index does not end "
                   "the file)");
  }
  const u8* idx = data + h.index_offset;
  const u32 want = pcst::get_u32(idx + index_bytes);
  if (want != pcst::fnv1a(idx, index_bytes)) {
    bad_file(path, "block index checksum mismatch (corrupt trace)");
  }
  std::vector<PcstBlockRef> refs;
  refs.reserve(h.block_count);
  u64 events_total = 0;
  for (u64 b = 0; b < h.block_count; ++b) {
    const u8* e = idx + b * pcst::kIndexEntryBytes;
    PcstBlockRef r;
    r.offset = pcst::get_u64(e);
    r.bytes = pcst::get_u32(e + 8);
    r.events = pcst::get_u32(e + 12);
    r.checksum = pcst::get_u32(e + 16);
    if (r.offset < h.header_bytes || r.offset > h.index_offset ||
        h.index_offset - r.offset < r.bytes) {
      bad_block(path, b, "payload extends outside the file");
    }
    if (r.events == 0 || r.events > h.events_per_block) {
      bad_block(path, b,
                "implausible event count " + std::to_string(r.events));
    }
    events_total += r.events;
    refs.push_back(r);
  }
  if (events_total != h.event_count) {
    bad_file(path, "block index events (" + std::to_string(events_total) +
                       ") disagree with header event count (" +
                       std::to_string(h.event_count) + ")");
  }
  return refs;
}

u32 decode_pcst_block(const u8* data, const PcstBlockRef& ref, u64 block_idx,
                      TraceEvent* out, const std::string& path) {
  const u8* p = data + ref.offset;
  const u8* end = p + ref.bytes;
  if (pcst::fnv1a(p, ref.bytes) != ref.checksum) {
    bad_block(path, block_idx, "checksum mismatch (corrupt trace)");
  }

  u64 n = 0;
  if (!pcst::get_varint(p, end, n) || n != ref.events || n == 0 ||
      n > pcst::kEventsPerBlock) {
    bad_block(path, block_idx, "event count disagrees with the block index");
  }

  const u8* kinds = p;
  const u64 kind_bytes = (n + 3) / 4;
  if (static_cast<u64>(end - p) < kind_bytes) {
    bad_block(path, block_idx, "truncated kind table");
  }
  p += kind_bytes;

  // ---- Delta section (format.hpp: shift, width, packed lane, exceptions) ---
  if (end - p < 2) bad_block(path, block_idx, "truncated delta section");
  const u32 shift = *p++;
  const u32 width = *p++;
  if (shift > 63 || width > pcst::kMaxPackWidth) {
    bad_block(path, block_idx, "malformed delta shift/width");
  }
  const u64 pack_bytes = (n * width + 7) / 8;
  if (static_cast<u64>(end - p) < pack_bytes) {
    bad_block(path, block_idx, "truncated packed deltas");
  }
  u64 zz[pcst::kEventsPerBlock];
  unpack_lane(p, pack_bytes, width, n, zz);
  p += pack_bytes;
  u64 num_exceptions = 0;
  if (!pcst::get_varint(p, end, num_exceptions) || num_exceptions > n) {
    bad_block(path, block_idx, "malformed delta exception count");
  }
  i64 prev_idx = -1;
  for (u64 e = 0; e < num_exceptions; ++e) {
    if (p >= end) bad_block(path, block_idx, "truncated delta exception");
    const u64 idx = *p++;
    u64 high = 0;
    if (!pcst::get_varint(p, end, high)) {
      bad_block(path, block_idx, "truncated delta exception");
    }
    if (idx >= n || static_cast<i64>(idx) <= prev_idx || high == 0) {
      bad_block(path, block_idx, "malformed delta exception");
    }
    prev_idx = static_cast<i64>(idx);
    zz[idx] |= high << width;
  }

  u64 last[pcst::kNumKinds] = {0, 0, 0};
  for (u64 i = 0; i < n; ++i) {
    const u8 k = (kinds[i / 4] >> (2 * (i % 4))) & 0x3;
    if (k >= pcst::kNumKinds) {
      bad_block(path, block_idx, "invalid event kind code");
    }
    const u64 addr = pcst::unzigzag_delta_shifted(last[k], zz[i], shift);
    last[k] = addr;
    out[i].ref.addr = addr;
    out[i].ref.write = k == pcst::kKindWrite;
    out[i].ref.ifetch = k == pcst::kKindIfetch;
  }

  // ---- Gap section ---------------------------------------------------------
  if (p >= end) bad_block(path, block_idx, "truncated gap section");
  const u8 gap_mode = *p++;
  if (gap_mode == pcst::kGapModeRle) {
    u64 covered = 0;
    while (covered < n) {
      u64 gap = 0;
      u64 run = 0;
      if (!pcst::get_varint(p, end, gap) || !pcst::get_varint(p, end, run)) {
        bad_block(path, block_idx, "truncated gap run");
      }
      if (run == 0 || run > n - covered || gap > pcst::kMaxGap) {
        bad_block(path, block_idx, "malformed gap run");
      }
      for (u64 i = 0; i < run; ++i) {
        out[covered + i].gap_instructions = static_cast<u32>(gap);
      }
      covered += run;
    }
  } else if (gap_mode == pcst::kGapModePacked) {
    const u8* codes = p;
    const u64 code_bytes = (n + 3) / 4;
    if (static_cast<u64>(end - p) < code_bytes) {
      bad_block(path, block_idx, "truncated gap codes");
    }
    p += code_bytes;
    // One branch-free pass writes every 2-bit code as the gap and collects
    // the escapes' event indexes; only the escapes are revisited below.
    u32 escapes[pcst::kEventsPerBlock];
    u64 num_escapes = 0;
    for (u64 i = 0; i < n; ++i) {
      const u32 code = (codes[i / 4] >> (2 * (i % 4))) & 0x3;
      out[i].gap_instructions = code;
      escapes[num_escapes] = static_cast<u32>(i);
      num_escapes += code == pcst::kGapEscape2Bit;
    }
    const u8* nibs = p;
    const u64 nib_bytes = (num_escapes + 1) / 2;
    if (static_cast<u64>(end - p) < nib_bytes) {
      bad_block(path, block_idx, "truncated gap nibbles");
    }
    p += nib_bytes;
    for (u64 e = 0; e < num_escapes; ++e) {
      const u8 nib = (nibs[e / 2] >> (4 * (e % 2))) & 0xf;
      TraceEvent& ev = out[escapes[e]];
      if (nib != pcst::kGapNibbleEscape) {
        ev.gap_instructions = pcst::kGapNibbleBias + nib;
        continue;
      }
      u64 gap = 0;
      if (!pcst::get_varint(p, end, gap)) {
        bad_block(path, block_idx, "truncated gap varint");
      }
      if (gap > pcst::kMaxGap) {
        bad_block(path, block_idx, "malformed gap value");
      }
      ev.gap_instructions = static_cast<u32>(gap);
    }
  } else {
    bad_block(path, block_idx, "unknown gap mode");
  }
  if (p != end) {
    bad_block(path, block_idx, "trailing bytes after the gap section");
  }
  return static_cast<u32>(n);
}

}  // namespace pcs
