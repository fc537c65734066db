// Tests for the k-multiplicative counter on the corrected schedule, which
// must satisfy the band in *every* phase (including the bootstrap
// transient where the paper's schedule does not — see
// KMultCounterDeviation in test_kmult_counter.cpp).
#include "core/kmult_counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "base/kmath.hpp"
#include "base/step_recorder.hpp"
#include "core/approx.hpp"
#include "sim/history.hpp"
#include "sim/lin_check.hpp"
#include "sim/workload.hpp"

namespace approx::core {
namespace {

TEST(CorrectedCounter, ZeroBeforeAnyIncrement) {
  KMultCounterCorrected counter(4, 2);
  EXPECT_EQ(counter.read(0), 0u);
}

TEST(CorrectedCounter, ValueAtPositionFormula) {
  // k = 2: singles at 0,1,2 announce 1 each; I_1 = [3,4] announces 2 per
  // switch; I_2 = [5,6] announces 4 per switch.
  KMultCounterCorrected counter(4, 2);
  EXPECT_EQ(counter.value_at_position(0), 2u);        // 2·1
  EXPECT_EQ(counter.value_at_position(1), 4u);        // 2·2
  EXPECT_EQ(counter.value_at_position(2), 6u);        // 2·3
  EXPECT_EQ(counter.value_at_position(3), 10u);       // 2·(3 + 2)
  EXPECT_EQ(counter.value_at_position(4), 14u);       // 2·(3 + 4)
  EXPECT_EQ(counter.value_at_position(5), 22u);       // 2·(3 + 4 + 4)
  EXPECT_EQ(counter.value_at_position(6), 30u);       // 2·(3 + 4 + 8)
}

TEST(CorrectedCounter, ValueAtPositionMonotone) {
  KMultCounterCorrected counter(4, 3);
  std::uint64_t previous = 0;
  // Scan positions: 0..k dense, then first/last of each interval.
  std::uint64_t pos = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t value = counter.value_at_position(pos);
    ASSERT_GE(value, previous) << "pos=" << pos;
    previous = value;
    if (pos < 3) {
      pos += 1;
    } else if (pos == 3) {
      pos = 4;
    } else if (pos % 3 == 0) {
      pos += 1;
    } else {
      pos += 2;
    }
  }
}

// THE fix: the exact scenario that breaks the faithful variant must pass
// here — n = 25, k = 5 = √n, 38 round-robin increments.
TEST(CorrectedCounter, BootstrapScenarioFromThePaperGapIsBanded) {
  constexpr unsigned kN = 25;
  const std::uint64_t k = 5;
  KMultCounterCorrected counter(kN, k);
  for (int i = 0; i < 38; ++i) {
    counter.increment(static_cast<unsigned>(i) % kN);
    const auto v = static_cast<std::uint64_t>(i + 1);
    const std::uint64_t x = counter.read(0);
    ASSERT_TRUE(within_mult_band(x, v, k)) << "v=" << v << " x=" << x;
  }
}

TEST(CorrectedCounter, SingleProcessEveryPrefixBanded) {
  KMultCounterCorrected counter(1, 2);
  for (std::uint64_t v = 1; v <= 5000; ++v) {
    counter.increment(0);
    const std::uint64_t x = counter.read(0);
    ASSERT_TRUE(within_mult_band(x, v, 2)) << "v=" << v << " x=" << x;
  }
}

// Unconditional band over the (n, k, total) grid — no bootstrap carve-out.
class CorrectedCounterAccuracy
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t, int>> {
};

TEST_P(CorrectedCounterAccuracy, EveryPrefixBanded) {
  const auto [n, k_extra, total] = GetParam();
  const std::uint64_t k =
      std::max<std::uint64_t>(2, base::ceil_sqrt(n) + k_extra);
  KMultCounterCorrected counter(n, k);
  ASSERT_TRUE(counter.accuracy_guaranteed());
  for (int i = 0; i < total; ++i) {
    counter.increment(static_cast<unsigned>(i) % n);
    if (i % 13 == 0) {
      const auto v = static_cast<std::uint64_t>(i + 1);
      const std::uint64_t x = counter.read((static_cast<unsigned>(i) + 1) % n);
      ASSERT_TRUE(within_mult_band(x, v, k))
          << "n=" << n << " k=" << k << " v=" << v << " x=" << x;
    }
  }
  const auto v = static_cast<std::uint64_t>(total);
  for (unsigned pid = 0; pid < n; ++pid) {
    const std::uint64_t x = counter.read(pid);
    ASSERT_TRUE(within_mult_band(x, v, k))
        << "n=" << n << " k=" << k << " v=" << v << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CorrectedCounterAccuracy,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 25u, 36u),
                       ::testing::Values<std::uint64_t>(0, 1, 5),
                       ::testing::Values(1, 10, 1000, 20000)));

TEST(CorrectedCounterInvariants, SwitchesFormAPrefix) {
  constexpr unsigned kN = 4;
  KMultCounterCorrected counter(kN, 2);
  sim::Rng rng(4321);
  for (int i = 0; i < 30000; ++i) {
    counter.increment(static_cast<unsigned>(rng.below(kN)));
    if (i % 500 == 0) {
      const std::uint64_t first_unset =
          counter.first_unset_switch_unrecorded();
      for (std::uint64_t j = 0; j < first_unset; ++j) {
        ASSERT_TRUE(counter.switch_set_unrecorded(j)) << j;
      }
      ASSERT_FALSE(counter.switch_set_unrecorded(first_unset + 1));
    }
  }
}

TEST(CorrectedCounterSteps, IncrementWorstCaseIsBounded) {
  // One increment performs at most k+1 test&sets + 1 write to H.
  constexpr unsigned kN = 9;
  const std::uint64_t k = 3;
  KMultCounterCorrected counter(kN, k);
  for (int i = 0; i < 50000; ++i) {
    const unsigned pid = static_cast<unsigned>(i) % kN;
    const std::uint64_t steps =
        base::steps_of([&] { counter.increment(pid); });
    ASSERT_LE(steps, k + 2) << "at op " << i;
  }
}

TEST(CorrectedCounterSteps, AmortizedIsConstantPastBootstrap) {
  constexpr unsigned kN = 16;
  const std::uint64_t k = 4;
  KMultCounterCorrected counter(kN, k);
  base::StepRecorder recorder;
  std::uint64_t ops = 0;
  {
    base::ScopedRecording on(recorder);
    sim::Rng rng(78);
    for (int i = 0; i < 200000; ++i) {
      const unsigned pid = static_cast<unsigned>(rng.below(kN));
      if (rng.chance(0.1)) {
        counter.read(pid);
      } else {
        counter.increment(pid);
      }
      ++ops;
    }
  }
  const double amortized =
      static_cast<double>(recorder.total()) / static_cast<double>(ops);
  EXPECT_LT(amortized, 3.0) << "amortized steps/op = " << amortized;
}

TEST(CorrectedCounterHelping, ReadsCompleteUnderContinuousIncrements) {
  constexpr unsigned kN = 4;
  KMultCounterCorrected counter(kN, 2);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> finished{0};
  std::vector<std::thread> incrementers;
  for (unsigned pid = 0; pid + 1 < kN; ++pid) {
    incrementers.emplace_back([&, pid] {
      while (!stop.load(std::memory_order_acquire)) {
        started.fetch_add(1, std::memory_order_relaxed);
        counter.increment(pid);
        finished.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // No bootstrap carve-out: the corrected band holds from the start.
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t before = finished.load(std::memory_order_relaxed);
    const std::uint64_t x = counter.read(kN - 1);
    const std::uint64_t after = started.load(std::memory_order_relaxed);
    const std::uint64_t v_lo = core::mult_band_v_min(x, counter.k());
    const std::uint64_t v_hi = core::mult_band_v_max(x, counter.k());
    ASSERT_LE(v_lo, after) << "read " << x << " too large for window";
    ASSERT_GE(v_hi, before) << "read " << x << " too small for window";
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : incrementers) thread.join();
}

class CorrectedCounterConcurrent
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(CorrectedCounterConcurrent, HistoryPassesKMultChecker) {
  const auto [n, seed] = GetParam();
  const std::uint64_t k = std::max<std::uint64_t>(2, base::ceil_sqrt(n));
  KMultCounterCorrected counter(n, k);
  sim::HistoryRecorder history(n);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      sim::Rng rng(seed * 173 + pid);
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < 4000; ++i) {
        if (rng.chance(0.15)) {
          history.record_read(pid, [&] { return counter.read(pid); });
        } else {
          history.record_increment(pid, [&] { counter.increment(pid); });
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  const auto result = sim::check_counter_history(history.merged(), k);
  EXPECT_TRUE(result.ok) << result.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CorrectedCounterConcurrent,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(CorrectedCounterMisc, AccessorsAndGuarantee) {
  KMultCounterCorrected counter(9, 3);
  EXPECT_EQ(counter.num_processes(), 9u);
  EXPECT_EQ(counter.k(), 3u);
  EXPECT_TRUE(counter.accuracy_guaranteed());
  EXPECT_FALSE(KMultCounterCorrected(100, 3).accuracy_guaranteed());
}

}  // namespace
}  // namespace approx::core
