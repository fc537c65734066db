// Tests for base/seqlock_ring.hpp: the single-writer/many-reader
// seqlock frame ring the shm transport is built on. Covers the happy
// roundtrip (including wraparound), the overrun protocol (a parked
// reader detects the lap instead of decoding torn bytes), writer
// restart (kDead via the generation word), header/slot byte-flip
// robustness, and a concurrent writer/reader stress that TSan checks
// over BOTH memory-order backends (the relaxed mapping the transport
// ships and the seq_cst formal model).
#include "base/seqlock_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"

namespace approx::base {
namespace {

/// A frame whose bytes are self-describing: first 8 bytes carry the
/// frame index, the rest a byte derived from it. Lengths vary so wraps
/// exercise the padded tail word.
std::string make_frame(std::uint64_t index, std::size_t max_len) {
  const std::size_t len =
      8 + static_cast<std::size_t>(index * 7 % (max_len - 8));
  std::string out(len, static_cast<char>('a' + index % 23));
  std::memcpy(out.data(), &index, 8);
  return out;
}

bool frame_consistent(const std::string& bytes) {
  if (bytes.size() < 8) return false;
  std::uint64_t index = 0;
  std::memcpy(&index, bytes.data(), 8);
  const char fill = static_cast<char>('a' + index % 23);
  for (std::size_t i = 8; i < bytes.size(); ++i) {
    if (bytes[i] != fill) return false;
  }
  return true;
}

TEST(SeqlockRingGeometry, RegionBytes) {
  // Header + one 64-aligned slot (24B slot header + 8B payload → 64).
  EXPECT_EQ(seqlock_ring_region_bytes(1, 8), 128u + 64u);
  EXPECT_EQ(seqlock_ring_region_bytes(1, 41), 128u + 128u);  // 24+48 → 128
  EXPECT_EQ(seqlock_ring_region_bytes(4, 8), 128u + 4 * 64u);
}

TEST(SeqlockRingWriter, FormatRejectsBadGeometry) {
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(4, 64) / 8);
  SeqlockRingWriter writer;
  EXPECT_FALSE(writer.format(nullptr, region.size() * 8, 4, 64, 1));
  EXPECT_FALSE(writer.format(region.data(), region.size() * 8, 0, 64, 1));
  EXPECT_FALSE(writer.format(region.data(), region.size() * 8, 4, 0, 1));
  EXPECT_FALSE(writer.format(region.data(), region.size() * 8, 4, 64, 0));
  EXPECT_FALSE(writer.format(region.data(), 64, 4, 64, 1));  // too small
  EXPECT_TRUE(writer.format(region.data(), region.size() * 8, 4, 64, 1));
}

TEST(SeqlockRing, RoundtripThroughWraparound) {
  constexpr std::uint32_t kSlots = 4;
  constexpr std::uint64_t kCap = 128;
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(kSlots, kCap) /
                                    8);
  SeqlockRingWriter writer;
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, kSlots, kCap,
                            /*generation=*/7));
  SeqlockRingReader reader;
  ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));
  EXPECT_EQ(reader.generation(), 7u);

  std::string out;
  EXPECT_EQ(reader.poll(out), RingPoll::kEmpty);
  // 25 frames through a 4-slot ring: 6 full wraps. The reader keeps up,
  // so it sees EVERY frame, in order, byte-exact.
  for (std::uint64_t i = 0; i < 25; ++i) {
    const std::string frame = make_frame(i, kCap);
    ASSERT_TRUE(writer.publish(frame.data(), frame.size()));
    ASSERT_EQ(reader.poll(out), RingPoll::kFrame) << "frame " << i;
    EXPECT_EQ(out, frame);
    EXPECT_EQ(reader.poll(out), RingPoll::kEmpty);
  }
  EXPECT_EQ(writer.frames_published(), 25u);
}

TEST(SeqlockRing, ParkedReaderOverrunsThenResumesAtHead) {
  constexpr std::uint32_t kSlots = 4;
  constexpr std::uint64_t kCap = 64;
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(kSlots, kCap) /
                                    8);
  SeqlockRingWriter writer;
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, kSlots, kCap, 1));
  SeqlockRingReader reader;
  ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));

  // Park the reader while the writer laps the whole ring: its slot-0
  // frame is gone, and the seq discipline says so.
  for (std::uint64_t i = 0; i < kSlots + 1; ++i) {
    const std::string frame = make_frame(i, kCap);
    ASSERT_TRUE(writer.publish(frame.data(), frame.size()));
  }
  std::string out;
  EXPECT_EQ(reader.poll(out), RingPoll::kOverrun);
  // Recovery: re-anchor at the head; the ring then flows again.
  reader.skip_to_head();
  EXPECT_EQ(reader.cursor(), kSlots + 1);
  EXPECT_EQ(reader.poll(out), RingPoll::kEmpty);
  const std::string next = make_frame(99, kCap);
  ASSERT_TRUE(writer.publish(next.data(), next.size()));
  ASSERT_EQ(reader.poll(out), RingPoll::kFrame);
  EXPECT_EQ(out, next);
}

TEST(SeqlockRing, OversizedPublishRejectedRingUntouched) {
  constexpr std::uint64_t kCap = 64;
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(1, kCap) / 8);
  SeqlockRingWriter writer;
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, 1, kCap, 1));
  SeqlockRingReader reader;
  ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));
  std::string big(kCap + 1, 'x');
  EXPECT_FALSE(writer.publish(big.data(), big.size()));
  EXPECT_EQ(writer.frames_published(), 0u);
  std::string out;
  EXPECT_EQ(reader.poll(out), RingPoll::kEmpty);
  // Exactly capacity still fits.
  std::string fits(kCap, 'y');
  EXPECT_TRUE(writer.publish(fits.data(), fits.size()));
  ASSERT_EQ(reader.poll(out), RingPoll::kFrame);
  EXPECT_EQ(out, fits);
}

TEST(SeqlockRing, WriterRestartFlipsReadersToDead) {
  constexpr std::uint32_t kSlots = 2;
  constexpr std::uint64_t kCap = 64;
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(kSlots, kCap) /
                                    8);
  SeqlockRingWriter writer;
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, kSlots, kCap,
                            /*generation=*/0xAAAA));
  SeqlockRingReader reader;
  ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));
  const std::string frame = make_frame(0, kCap);
  ASSERT_TRUE(writer.publish(frame.data(), frame.size()));
  std::string out;
  ASSERT_EQ(reader.poll(out), RingPoll::kFrame);

  // In-place re-format under a fresh generation: the old reader must
  // see kDead (never old-generation slots decoded as live frames), and
  // a fresh attach adopts the new generation.
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, kSlots, kCap,
                            /*generation=*/0xBBBB));
  EXPECT_EQ(reader.poll(out), RingPoll::kDead);
  ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));
  EXPECT_EQ(reader.generation(), 0xBBBBu);
  EXPECT_EQ(reader.poll(out), RingPoll::kEmpty);  // new ring starts empty
  ASSERT_TRUE(writer.publish(frame.data(), frame.size()));
  ASSERT_EQ(reader.poll(out), RingPoll::kFrame);
  EXPECT_EQ(out, frame);
}

TEST(SeqlockRing, HeaderByteFlipsNeverValidate) {
  constexpr std::uint32_t kSlots = 2;
  constexpr std::uint64_t kCap = 64;
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(kSlots, kCap) /
                                    8);
  SeqlockRingWriter writer;
  // Many-bit generation: no single byte flip can zero it.
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, kSlots, kCap,
                            0xDEADBEEF12345678ull));
  auto* bytes = reinterpret_cast<unsigned char*>(region.data());
  SeqlockRingReader reader;
  // Identity words (magic, layout|count, payload_bytes): any single
  // byte flip must fail attach — geometry lies are caught before any
  // slot arithmetic can run off the mapping.
  for (std::size_t off = 0; off < 24; ++off) {
    bytes[off] ^= 0x40;
    EXPECT_FALSE(reader.attach(region.data(), region.size() * 8))
        << "flip at header offset " << off;
    bytes[off] ^= 0x40;
  }
  // Generation byte flips still attach (any nonzero nonce is a valid
  // identity — the transport layer checks it against the OFFER).
  for (std::size_t off = 24; off < 32; ++off) {
    bytes[off] ^= 0x40;
    EXPECT_TRUE(reader.attach(region.data(), region.size() * 8));
    EXPECT_NE(reader.generation(), 0xDEADBEEF12345678ull);
    bytes[off] ^= 0x40;
  }
  ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));
  EXPECT_EQ(reader.generation(), 0xDEADBEEF12345678ull);
}

TEST(SeqlockRing, SlotHeaderByteFlipsReadAsOverrunNeverGarbage) {
  constexpr std::uint64_t kCap = 64;
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(1, kCap) / 8);
  SeqlockRingWriter writer;
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, 1, kCap, 1));
  const std::string frame = make_frame(3, kCap);
  ASSERT_TRUE(writer.publish(frame.data(), frame.size()));
  SeqlockRingReader reader;
  ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));
  auto* bytes = reinterpret_cast<unsigned char*>(region.data());
  constexpr std::size_t kSlotBase = 128;  // kRingHeaderBytes
  std::string out;
  // seq (0..7) and frame_index (8..15): any flip breaks the exact
  // stable-value / index match → kOverrun. len (16..23): flips in the
  // upper bytes push it past capacity → kOverrun (a low-byte flip
  // yields a still-in-range length the discipline cannot distinguish
  // from a real frame — no checksum — so byte 16 is exempt).
  for (std::size_t off = 0; off < 24; ++off) {
    if (off == 16) continue;
    bytes[kSlotBase + off] ^= 0x40;
    EXPECT_EQ(reader.poll(out), RingPoll::kOverrun)
        << "flip at slot offset " << off;
    bytes[kSlotBase + off] ^= 0x40;
  }
  // Restored bytes decode cleanly.
  ASSERT_EQ(reader.poll(out), RingPoll::kFrame);
  EXPECT_EQ(out, frame);
}

/// Concurrent stress, typed over both memory-order backends: one writer
/// laps a tiny ring while readers race it. Every kFrame a reader gets
/// must be internally consistent (the seqlock certification claim);
/// overruns are expected and recovered via skip_to_head. Run under TSan
/// this is the ring's race-freedom proof for BOTH order mappings.
template <typename Backend>
struct SeqlockRingStress : ::testing::Test {};

using StressBackends = ::testing::Types<DirectBackend, RelaxedDirectBackend>;
TYPED_TEST_SUITE(SeqlockRingStress, StressBackends);

TYPED_TEST(SeqlockRingStress, ConcurrentWriterAndReadersStayConsistent) {
  constexpr std::uint32_t kSlots = 4;
  constexpr std::uint64_t kCap = 256;
  constexpr std::uint64_t kFrames = 20000;
  std::vector<std::uint64_t> region(seqlock_ring_region_bytes(kSlots, kCap) /
                                    8);
  SeqlockRingWriterT<TypeParam> writer;
  ASSERT_TRUE(writer.format(region.data(), region.size() * 8, kSlots, kCap,
                            /*generation=*/42));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> frames_read{0};
  std::atomic<int> torn_frames{0};
  auto reader_fn = [&] {
    SeqlockRingReaderT<TypeParam> reader;
    ASSERT_TRUE(reader.attach(region.data(), region.size() * 8));
    std::string out;
    while (!done.load(std::memory_order_acquire)) {
      switch (reader.poll(out)) {
        case RingPoll::kFrame:
          if (!frame_consistent(out)) torn_frames.fetch_add(1);
          frames_read.fetch_add(1, std::memory_order_relaxed);
          break;
        case RingPoll::kOverrun:
          reader.skip_to_head();
          break;
        case RingPoll::kEmpty:
          std::this_thread::yield();
          break;
        case RingPoll::kDead:
          FAIL() << "generation never changes in this test";
      }
    }
  };
  std::thread r1(reader_fn);
  std::thread r2(reader_fn);
  // Publish until some reader has read a frame, not just kFrames: on a
  // loaded box both readers can stay descheduled for the whole burst.
  for (std::uint64_t i = 0; i < kFrames || frames_read.load() == 0; ++i) {
    const std::string frame = make_frame(i, kCap);
    ASSERT_TRUE(writer.publish(frame.data(), frame.size()));
    if (i % 64 == 0) std::this_thread::yield();  // let readers catch some
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_EQ(torn_frames.load(), 0);
  EXPECT_GT(frames_read.load(), 0u);
}

}  // namespace
}  // namespace approx::base
