// Unit tests for the helping-pair packing (core/help_pack.hpp), exercising
// the field boundaries the seed's 40/24 split silently wrapped at.
#include <gtest/gtest.h>

#include <cstdint>

#include "base/kmath.hpp"
#include "core/help_pack.hpp"
#include "core/kmult_counter.hpp"

namespace approx::core {
namespace {

TEST(HelpPackTest, RoundTripSmallValues) {
  for (std::uint64_t position : {0ull, 1ull, 5ull, 1024ull}) {
    for (std::uint64_t sn : {0ull, 1ull, 2ull, 999ull}) {
      const std::uint64_t packed = pack_help(position, sn);
      EXPECT_EQ(unpack_help_position(packed), position);
      EXPECT_EQ(unpack_help_sn(packed), sn);
    }
  }
}

TEST(HelpPackTest, RoundTripAtFieldBoundaries) {
  // The seed's packing lost sequence-number bits above 2^24; the widened
  // split must round-trip the full 32-bit range of both fields.
  const std::uint64_t old_sn_limit = (std::uint64_t{1} << 24) - 1;
  for (const std::uint64_t sn :
       {old_sn_limit, old_sn_limit + 1, old_sn_limit + 2, kHelpSnMax - 1,
        kHelpSnMax}) {
    const std::uint64_t packed = pack_help(7, sn);
    EXPECT_EQ(unpack_help_sn(packed), sn) << "sn = " << sn;
    EXPECT_EQ(unpack_help_position(packed), 7u);
  }
  for (const std::uint64_t position :
       {old_sn_limit, kHelpPositionMax - 1, kHelpPositionMax}) {
    const std::uint64_t packed = pack_help(position, 3);
    EXPECT_EQ(unpack_help_position(packed), position);
    EXPECT_EQ(unpack_help_sn(packed), 3u);
  }
}

TEST(HelpPackTest, SequenceNumbersDoNotWrapAcrossTheOldBoundary) {
  // Regression for the silent 24-bit wraparound: sn = 2^24 must compare
  // greater than sn = 2^24 - 1 after a pack/unpack cycle (the helping
  // scan's `sn >= baseline + 2` freshness test relies on this).
  const std::uint64_t before = unpack_help_sn(pack_help(0, (1u << 24) - 1));
  const std::uint64_t after = unpack_help_sn(pack_help(0, (1u << 24) + 1));
  EXPECT_GT(after, before);
  EXPECT_GE(after, before + 2);
}

TEST(HelpPackTest, FeasibleExecutionsFitTheFields) {
  // The packing guard's premise: for every supported k, the largest
  // switch index any execution of < 2^64 increments can reach — singles
  // (k+1) plus one k-switch interval per power of k up to 2^64 — fits
  // the position field, and so does the per-process win count.
  for (const std::uint64_t k :
       {std::uint64_t{2}, std::uint64_t{16}, std::uint64_t{1} << 12,
        kMaxSupportedK}) {
    const std::uint64_t intervals = base::floor_log_k(k, base::kU64Max) + 1;
    const std::uint64_t max_index =
        base::sat_add(k + 1, base::sat_mul(k, intervals));
    EXPECT_LE(max_index, kHelpPositionMax) << "k = " << k;
    EXPECT_LE(max_index, kHelpSnMax) << "k = " << k;
  }
}

TEST(HelpPackTest, ConstructorsRejectUnsupportedKInEveryBuildMode) {
  // The packing guarantee is enforced by an unconditional throw, not an
  // assert: release builds (the default, NDEBUG) must reject too.
  EXPECT_THROW(KMultCounter(2, kMaxSupportedK + 1), std::invalid_argument);
  EXPECT_THROW(KMultCounterCorrected(2, kMaxSupportedK + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(KMultCounter(2, kMaxSupportedK));
}

TEST(HelpPackTest, CountersAnnounceThroughThePackedPairs) {
  // End-to-end sanity: announces survive pack/unpack inside both counter
  // variants (read returns a value derived from an unpacked position).
  KMultCounter faithful(2, 2);
  KMultCounterCorrected corrected(2, 2);
  for (int i = 0; i < 1000; ++i) {
    faithful.increment(i % 2);
    corrected.increment(i % 2);
  }
  EXPECT_GT(faithful.read(0), 0u);
  EXPECT_GT(corrected.read(0), 0u);
}

}  // namespace
}  // namespace approx::core
