// Differential tests for the k-multiplicative counters' value path: the
// one-pass value_at_position on both switch schedules against the direct
// nested transcription of their formulas (the paper's ReturnValue for
// Algorithm 1), and the per-reader memo against readers that share no
// history.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "base/kmath.hpp"
#include "core/approx.hpp"
#include "core/help_pack.hpp"
#include "core/kmult_counter.hpp"

namespace approx::core {
namespace {

using base::kU64Max;
using base::pow_k;
using base::sat_add;
using base::sat_mul;

const std::uint64_t kKs[] = {2, 3, 7, 64, kMaxSupportedK};

// Positions checked past the first saturated one: saturation must stick.
constexpr std::uint64_t kPastSaturation = 512;

/// Paper lines 30–34 transcribed directly: an independent pow_k per term.
std::uint64_t nested_return_value(std::uint64_t k, std::uint64_t p,
                                  std::uint64_t q) {
  std::uint64_t ret = sat_add(1, sat_mul(p, pow_k(k, q + 1)));
  for (std::uint64_t l = 1; l <= q; ++l) ret = sat_add(ret, pow_k(k, l + 1));
  return sat_mul(k, ret);
}

/// The corrected variant's value at `position`, transcribed the same way.
std::uint64_t nested_value_at_position(std::uint64_t k,
                                       std::uint64_t position) {
  std::uint64_t announced = position + 1;
  if (position > k) {
    const std::uint64_t q = (position - 1) / k;
    const std::uint64_t p = position - q * k;
    announced = k + 1;
    for (std::uint64_t l = 1; l < q; ++l) {
      announced = sat_add(announced, pow_k(k, l + 1));
    }
    announced = sat_add(announced, sat_mul(p, pow_k(k, q)));
  }
  return sat_mul(k, announced);
}

TEST(KMultValuePath, ReturnValueMatchesNestedFormulaUpToSaturation) {
  for (const std::uint64_t k : kKs) {
    KMultCounterT<base::DirectBackend> counter(1, k);
    std::uint64_t saturated = 0;
    std::uint64_t h = 0;
    for (; saturated <= kPastSaturation; ++h) {
      const std::uint64_t expected = nested_return_value(k, h % k, h / k);
      ASSERT_EQ(counter.value_at_position(h), expected)
          << "k=" << k << " h=" << h;
      if (expected == kU64Max) ++saturated;
    }
  }
}

TEST(KMultValuePath, ValueAtPositionMatchesNestedFormulaUpToSaturation) {
  for (const std::uint64_t k : kKs) {
    KMultCounterCorrectedT<base::DirectBackend> counter(1, k);
    std::uint64_t saturated = 0;
    std::uint64_t position = 0;
    for (; saturated <= kPastSaturation; ++position) {
      const std::uint64_t expected = nested_value_at_position(k, position);
      ASSERT_EQ(counter.value_at_position(position), expected)
          << "k=" << k << " position=" << position;
      if (expected == kU64Max) ++saturated;
    }
  }
}

// A linear read from a cold cursor, with the memo-free formula: what any
// reader must return at a quiescent point. Mirrors each variant's scan
// order (the paper's reads visit qk and qk+1; the corrected variant's
// visit 0..k densely, then qk+1 and (q+1)k).
std::uint64_t reference_read(const KMultCounterT<base::DirectBackend>& c) {
  const std::uint64_t k = c.k();
  std::uint64_t pos = 0;
  std::uint64_t h = 0;
  while (c.switch_set_unrecorded(pos)) {
    h = pos;
    pos += pos % k == 0 ? 1 : k - 1;
  }
  return pos == 0 ? 0 : nested_return_value(k, h % k, h / k);
}

std::uint64_t reference_read(
    const KMultCounterCorrectedT<base::DirectBackend>& c) {
  const std::uint64_t k = c.k();
  std::uint64_t pos = 0;
  std::uint64_t h = 0;
  while (c.switch_set_unrecorded(pos)) {
    h = pos;
    pos += pos <= k || pos % k == 0 ? 1 : k - 1;
  }
  return pos == 0 ? 0 : nested_value_at_position(k, h);
}

template <typename Counter>
class KMultReadMemo : public ::testing::Test {};

using Variants = ::testing::Types<KMultCounterT<base::DirectBackend>,
                                  KMultCounterCorrectedT<base::DirectBackend>>;
TYPED_TEST_SUITE(KMultReadMemo, Variants);

// Sequential schedule, so every 1000th increment is a quiescent point.
// Reader 0 reads after every increment (its memo moves one switch at a
// time), reader 1 every 1000 increments (its memo jumps), and each
// quiescent point brings a pid that never read before. A memo that
// served a stale value would split them, or part from the cold read.
TYPED_TEST(KMultReadMemo, ReadersAtEveryCadenceAgreeAtQuiescence) {
  constexpr unsigned kN = 64;
  constexpr unsigned kQuiescentPoints = kN - 2;
  constexpr std::uint64_t kK = 8;  // ⌈√64⌉
  // The corrected variant keeps the band in every phase (the paper's
  // Algorithm 1 only past its bootstrap, tested elsewhere).
  constexpr bool kBandedInEveryPhase =
      std::is_same_v<TypeParam, KMultCounterCorrectedT<base::DirectBackend>>;
  TypeParam counter(kN, kK);
  unsigned fresh = 2;
  std::uint64_t v = 0;
  for (unsigned point = 0; point < kQuiescentPoints; ++point) {
    for (int i = 0; i < 1000; ++i) {
      counter.increment(static_cast<unsigned>(v++ % kN));
      const std::uint64_t every = counter.read(0);
      ASSERT_EQ(every, reference_read(counter)) << "v=" << v;
    }
    const std::uint64_t every = counter.read(0);
    const std::uint64_t sparse = counter.read(1);
    const std::uint64_t cold = counter.read(fresh++);
    ASSERT_EQ(every, sparse) << "v=" << v;
    ASSERT_EQ(every, cold) << "v=" << v;
    ASSERT_EQ(every, reference_read(counter)) << "v=" << v;
    ASSERT_EQ(counter.reads_via_helping(0), 0u);  // no concurrent announce
    if (kBandedInEveryPhase) {
      ASSERT_TRUE(within_mult_band(every, v, kK)) << "v=" << v;
    }
  }
}

}  // namespace
}  // namespace approx::core
