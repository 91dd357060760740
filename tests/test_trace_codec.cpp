// Property and adversarial tests for the .pcst binary trace codec:
// randomized round-trips through the block codec and the full container,
// corrupt-file rejection (naming the damaged block), and the replay
// differential -- a converted trace must produce SimReports identical to
// the text original at any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/trace_source.hpp"
#include "exp/job_service.hpp"
#include "trace/decode.hpp"
#include "trace/encode.hpp"
#include "trace/format.hpp"
#include "trace/mmap_reader.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"
#include "workload/trace_file.hpp"

namespace pcs {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool events_equal(const TraceEvent& a, const TraceEvent& b) {
  return a.ref.addr == b.ref.addr && a.ref.write == b.ref.write &&
         a.ref.ifetch == b.ref.ifetch &&
         a.gap_instructions == b.gap_instructions;
}

TraceEvent make_event(u64 addr, u8 kind, u32 gap) {
  TraceEvent ev;
  ev.ref.addr = addr;
  ev.ref.write = kind == pcst::kKindWrite;
  ev.ref.ifetch = kind == pcst::kKindIfetch;
  ev.gap_instructions = gap;
  return ev;
}

/// Adversarial random stream: address regimes from dense strides to full
/// 64-bit noise (including 0 and UINT64_MAX), gaps spanning every gap-
/// section encoding class (2-bit codes, nibbles, varint escapes, u32 max).
std::vector<TraceEvent> random_events(u64 seed, u64 n) {
  Rng rng(seed);
  std::vector<TraceEvent> evs;
  evs.reserve(n);
  u64 walk = rng.next_u64();
  for (u64 i = 0; i < n; ++i) {
    u64 addr = 0;
    switch (rng.uniform_int(6)) {
      case 0: addr = 0; break;
      case 1: addr = ~0ULL; break;
      case 2: addr = walk += 64; break;  // dense stride
      case 3: addr = walk += rng.uniform_int(4096) << 6; break;  // aligned
      case 4: addr = rng.next_u64() & 0xffff'ffffULL; break;  // 32-bit region
      default: addr = rng.next_u64(); break;                  // full 64-bit
    }
    u32 gap = 0;
    switch (rng.uniform_int(5)) {
      case 0: gap = static_cast<u32>(rng.uniform_int(3)); break;  // 2-bit
      case 1: gap = 3 + static_cast<u32>(rng.uniform_int(14)); break;  // nibbles
      case 2: gap = 18 + static_cast<u32>(rng.uniform_int(1000)); break;
      case 3: gap = 0xffff'ffffu; break;  // kMaxGap
      default: gap = static_cast<u32>(rng.uniform_int(64)); break;
    }
    evs.push_back(make_event(addr, static_cast<u8>(rng.uniform_int(3)), gap));
  }
  return evs;
}

void write_pcst(const std::string& path, const std::vector<TraceEvent>& evs,
                const std::string& name) {
  PcstWriter w(path, name);
  for (const TraceEvent& ev : evs) w.append(ev);
  w.finish();
}

std::vector<TraceEvent> read_all(TraceSource& src) {
  std::vector<TraceEvent> evs;
  TraceEvent ev;
  while (src.next(ev)) evs.push_back(ev);
  return evs;
}

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<u8>((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<u8>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Block-codec round trips (encode_pcst_block / decode_pcst_block directly).

void roundtrip_block(const std::vector<TraceEvent>& evs) {
  ASSERT_LE(evs.size(), pcst::kEventsPerBlock);
  std::string payload;
  encode_pcst_block(evs.data(), static_cast<u32>(evs.size()), payload);
  PcstBlockRef ref;
  ref.offset = 0;
  ref.bytes = static_cast<u32>(payload.size());
  ref.events = static_cast<u32>(evs.size());
  ref.checksum = pcst::fnv1a(reinterpret_cast<const u8*>(payload.data()),
                             payload.size());
  TraceEvent out[pcst::kEventsPerBlock];
  const u32 n = decode_pcst_block(
      reinterpret_cast<const u8*>(payload.data()), ref, 0, out, "mem");
  ASSERT_EQ(n, evs.size());
  for (u32 i = 0; i < n; ++i) {
    EXPECT_TRUE(events_equal(evs[i], out[i])) << "event " << i;
  }
}

TEST(PcstBlockCodec, RandomizedRoundTrips) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 1000003);
    const u64 n = 1 + rng.uniform_int(pcst::kEventsPerBlock);
    roundtrip_block(random_events(seed, n));
  }
}

TEST(PcstBlockCodec, AdversarialFixedBlocks) {
  // All-identical addresses: every delta (after the first per kind) is 0.
  roundtrip_block(std::vector<TraceEvent>(256, make_event(0x4000, 0, 1)));
  // Alternating extremes: every delta is a 64-bit exception.
  std::vector<TraceEvent> extremes;
  for (u32 i = 0; i < 256; ++i) {
    extremes.push_back(make_event(i % 2 ? ~0ULL : 0, 0, i % 2 ? 0 : ~0u));
  }
  roundtrip_block(extremes);
  // Single event of each kind, at both address extremes.
  for (u8 k = 0; k < 3; ++k) {
    roundtrip_block({make_event(0, k, 0)});
    roundtrip_block({make_event(~0ULL, k, 0xffff'ffffu)});
  }
  // Interleaved kinds with per-kind strides (exercises per-kind contexts).
  std::vector<TraceEvent> mixed;
  for (u32 i = 0; i < 255; ++i) {
    mixed.push_back(make_event(0x1000'0000ULL * (i % 3) + i * 64ULL,
                               static_cast<u8>(i % 3), i % 19));
  }
  roundtrip_block(mixed);
}

/// Encodes `evs` as one block, copies the payload into a heap buffer of
/// exactly its size (so ASan flags any read past it), decodes and compares.
/// Returns the payload for layout checks.
std::vector<u8> roundtrip_exact(const std::vector<TraceEvent>& evs) {
  std::string payload;
  encode_pcst_block(evs.data(), static_cast<u32>(evs.size()), payload);
  const auto exact = std::make_unique<u8[]>(payload.size());
  std::memcpy(exact.get(), payload.data(), payload.size());
  PcstBlockRef ref;
  ref.bytes = static_cast<u32>(payload.size());
  ref.events = static_cast<u32>(evs.size());
  ref.checksum = pcst::fnv1a(exact.get(), payload.size());
  std::vector<TraceEvent> out(pcst::kEventsPerBlock);
  const u32 n = decode_pcst_block(exact.get(), ref, 0, out.data(), "mem");
  EXPECT_EQ(n, evs.size());
  for (u32 i = 0; i < n && i < evs.size(); ++i) {
    EXPECT_TRUE(events_equal(evs[i], out[i])) << "event " << i;
  }
  return std::vector<u8>(payload.begin(), payload.end());
}

/// Byte offset of the delta section's width byte: varint n, the 2-bit kind
/// table, then the shift byte.
std::size_t width_offset(u64 n) {
  return pcst::varint_len(n) + (n + 3) / 4 + 1;
}

TEST(PcstBlockCodec, EveryPackWidthAtEveryTailLength) {
  // Zig-zag deltas all in [2^(w-1), 2^w) make width w the encoder's unique
  // cheapest lane, with no exceptions; the first delta is odd, so the
  // block's shift is 0. Block sizes put the lane's last values at every
  // distance from its end, so the decoder's 8-byte window and its byte
  // tail both run at every width.
  for (const u32 n : {1u, 7u, 8u, 9u, 255u, 256u}) {
    for (u32 w = 1; w <= pcst::kMaxPackWidth; ++w) {
      Rng rng(n * 131 + w);
      std::vector<TraceEvent> evs;
      evs.reserve(n);
      u64 addr = rng.next_u64();
      const u64 top = 1ULL << (w - 1);
      for (u32 i = 0; i < n; ++i) {
        u64 zz = top | (rng.next_u64() & (top - 1));
        if (i == 0 && w >= 3) zz = top | 2;  // delta (zz >> 1) is odd
        const u64 delta = (zz >> 1) ^ (0ULL - (zz & 1));
        addr = i == 0 ? delta : addr + delta;
        evs.push_back(make_event(addr, pcst::kKindRead,
                                 static_cast<u32>(rng.uniform_int(40))));
      }
      const auto payload = roundtrip_exact(evs);
      EXPECT_EQ(payload[width_offset(n) - 1], 0u) << "n=" << n << " w=" << w;
      EXPECT_EQ(payload[width_offset(n)], w) << "n=" << n << " w=" << w;
    }
  }
}

TEST(PcstBlockCodec, PackedGapEscapeClasses) {
  // Addresses all 0 leave the delta section empty (width 0, no
  // exceptions), so the gap-mode byte sits right after it.
  const auto check = [](const std::vector<u32>& gaps, const char* what) {
    std::vector<TraceEvent> evs;
    evs.reserve(gaps.size());
    for (const u32 g : gaps) evs.push_back(make_event(0, pcst::kKindRead, g));
    const auto payload = roundtrip_exact(evs);
    const std::size_t mode_at = width_offset(gaps.size()) + 2;
    EXPECT_EQ(payload[mode_at], pcst::kGapModePacked)
        << what << " n=" << gaps.size();
  };
  // No two neighbours share a gap, so RLE never wins. (A one-event block
  // always encodes as RLE, which is never costlier there.)
  for (const u32 n : {7u, 8u, 9u, 255u, 256u}) {
    Rng rng(n);
    std::vector<u32> all_escapes;     // every 2-bit code escapes to a nibble
    std::vector<u32> all_nibble_esc;  // every nibble escapes to a varint
    std::vector<u32> mixed;           // codes, nibbles and varints in turn
    all_escapes.reserve(n);
    all_nibble_esc.reserve(n);
    mixed.reserve(n);
    for (u32 i = 0; i < n; ++i) {
      all_escapes.push_back(3 + 2 * (i % 2) +
                            4 * static_cast<u32>(rng.uniform_int(3)));
      all_nibble_esc.push_back(18 + 2 * (i % 2) +
                               4 * static_cast<u32>(rng.uniform_int(1 << 18)));
      const u32 r = static_cast<u32>(rng.uniform_int(3));
      switch (i % 4) {
        case 0: mixed.push_back(r); break;
        case 1: mixed.push_back(3 + 5 * r); break;
        case 2: mixed.push_back(18 + 300 * r); break;
        default: mixed.push_back(0xffff'ffffu - r); break;
      }
    }
    check(all_escapes, "all escapes");
    check(all_nibble_esc, "all nibble escapes");
    check(mixed, "mixed varint");
  }
}

TEST(PcstBlockCodec, RejectsOutOfRangeSizes) {
  std::string out;
  TraceEvent ev = make_event(0, 0, 0);
  EXPECT_THROW(encode_pcst_block(&ev, 0, out), std::invalid_argument);
  EXPECT_THROW(encode_pcst_block(&ev, pcst::kEventsPerBlock + 1, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Whole-container round trips.

TEST(PcstContainer, RandomizedRoundTrips) {
  const std::string path = temp_path("prop.pcst");
  // Sizes straddling the block boundary plus a multi-block tail case.
  for (u64 n : {1ULL, 255ULL, 256ULL, 257ULL, 1000ULL, 4113ULL}) {
    const auto evs = random_events(n * 7 + 1, n);
    write_pcst(path, evs, "prop");
    PcstTrace replay(path);
    EXPECT_EQ(replay.file().event_count(), n);
    const auto got = read_all(replay);
    ASSERT_EQ(got.size(), evs.size());
    for (u64 i = 0; i < n; ++i) {
      ASSERT_TRUE(events_equal(evs[i], got[i])) << "n=" << n << " event " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(PcstContainer, EmptyTraceRoundTrips) {
  const std::string path = temp_path("empty.pcst");
  write_pcst(path, {}, "empty");
  PcstTrace replay(path);
  EXPECT_EQ(replay.file().event_count(), 0u);
  EXPECT_EQ(replay.file().block_count(), 0u);
  TraceEvent ev;
  EXPECT_FALSE(replay.next(ev));
  EXPECT_TRUE(is_pcst_file(path));
  std::remove(path.c_str());
}

TEST(PcstContainer, NextBlockMatchesNextLoop) {
  const std::string path = temp_path("blockread.pcst");
  const auto evs = random_events(99, 1000);
  write_pcst(path, evs, "blockread");
  // Drain via next_block with sizes that hit the zero-copy fast path (>=
  // a full block) and the buffered-tail path (< a block), against next().
  for (u64 chunk : {100ULL, 256ULL, 300ULL, 1024ULL}) {
    PcstTrace replay(path);
    std::vector<TraceEvent> got;
    std::vector<TraceEvent> buf(chunk);
    u64 n = 0;
    while ((n = replay.next_block(buf.data(), chunk)) > 0) {
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(got.size(), evs.size()) << "chunk " << chunk;
    for (u64 i = 0; i < evs.size(); ++i) {
      ASSERT_TRUE(events_equal(evs[i], got[i]))
          << "chunk " << chunk << " event " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(PcstContainer, ConvertRoundTripPreservesEventsAndName) {
  const std::string text = temp_path("conv.trace");
  const std::string pcst = temp_path("conv.pcst");
  const std::string back = temp_path("conv_back.trace");
  auto source = make_spec_trace("gcc", 11);
  record_trace(*source, text, 20'000);

  EXPECT_EQ(convert_trace(text, pcst, TraceFormat::kPcst), 20'000u);
  EXPECT_EQ(convert_trace(pcst, back, TraceFormat::kText), 20'000u);

  // The .pcst embeds the text replay's name, so reports stay identical.
  PcstTrace replay(pcst);
  EXPECT_STREQ(replay.name(), FileTrace(text).name());

  auto a = read_all(*open_trace_file(text));
  auto b = read_all(*open_trace_file(pcst));
  auto c = read_all(*open_trace_file(back));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (u64 i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(events_equal(a[i], b[i])) << "event " << i;
    ASSERT_TRUE(events_equal(a[i], c[i])) << "event " << i;
  }
  std::remove(text.c_str());
  std::remove(pcst.c_str());
  std::remove(back.c_str());
}

// ---------------------------------------------------------------------------
// Corruption rejection: damage must be detected and localized.

TEST(PcstContainer, TruncatedFileRejectedAtOpen) {
  const std::string path = temp_path("trunc.pcst");
  write_pcst(path, random_events(5, 600), "trunc");
  auto bytes = slurp(path);
  for (u64 keep : {bytes.size() - 1, bytes.size() / 2, u64{10}}) {
    spit(path, std::vector<u8>(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(keep)));
    EXPECT_THROW(PcstFile f(path), std::runtime_error) << "keep " << keep;
  }
  std::remove(path.c_str());
}

TEST(PcstContainer, BitFlipRejectedNamingTheBlock) {
  const std::string path = temp_path("flip.pcst");
  write_pcst(path, random_events(6, 600), "flip");  // 3 blocks
  auto bytes = slurp(path);
  const PcstHeader h = parse_pcst_header(bytes.data(), bytes.size(), path);
  const auto index = parse_pcst_index(bytes.data(), bytes.size(), h, path);
  ASSERT_EQ(index.size(), 3u);

  // Flip one bit in the middle of block 1's payload: the file still opens
  // (header and index are intact) but replay must throw naming block 1.
  auto damaged = bytes;
  damaged[index[1].offset + index[1].bytes / 2] ^= 0x10;
  spit(path, damaged);
  PcstTrace replay(path);
  TraceEvent ev;
  try {
    while (replay.next(ev)) {
    }
    FAIL() << "expected corruption to be detected";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("block 1"), std::string::npos)
        << err.what();
  }
  EXPECT_EQ(replay.events_read(), 256u);  // block 0 replayed fine

  // A flipped header byte is caught at open.
  damaged = bytes;
  damaged[6] ^= 0x01;
  spit(path, damaged);
  EXPECT_THROW(PcstFile f(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Replay differential: a converted trace is the same workload. Reports for
// text and .pcst replays must be byte-identical, at 1 and at 8 threads.

std::string replay_csv(const std::string& file, u32 threads) {
  SimJobSpec spec;  // what a trace_replay job runs
  spec.workload = file;
  spec.replay = true;
  spec.policy = "all";
  spec.refs = 60'000;
  spec.warmup = 15'000;
  spec.csv = true;
  std::ostringstream out;
  run_sim_job(spec, out, threads);
  return out.str();
}

TEST(PcstReplayDifferential, CsvReportsIdenticalToTextAtAnyThreadCount) {
  const std::string text = temp_path("diff.trace");
  const std::string pcst = temp_path("diff.pcst");
  auto source = make_spec_trace("hmmer", 42);
  record_trace(*source, text, 80'000);
  convert_trace(text, pcst, TraceFormat::kPcst);

  const std::string base = replay_csv(text, 1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, replay_csv(pcst, 1));
  EXPECT_EQ(base, replay_csv(text, 8));
  EXPECT_EQ(base, replay_csv(pcst, 8));
  std::remove(text.c_str());
  std::remove(pcst.c_str());
}

}  // namespace
}  // namespace pcs
