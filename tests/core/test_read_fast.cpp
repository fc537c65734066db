// Tests for the binary-search read extension (SwitchCounterT::read_fast,
// on the corrected schedule unless a test says otherwise) — the
// engineering answer to the paper's §VI open question on worst-case
// bounded-counter reads.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/kmath.hpp"
#include "base/step_recorder.hpp"
#include "core/approx.hpp"
#include "core/kmult_counter.hpp"
#include "sim/history.hpp"
#include "sim/lin_check.hpp"
#include "sim/stepper.hpp"
#include "sim/workload.hpp"

namespace approx::core {
namespace {

TEST(ReadFast, ZeroBeforeAnyIncrement) {
  KMultCounterCorrected counter(4, 2);
  EXPECT_EQ(counter.read_fast(0), 0u);
}

// At quiescence read_fast decodes the exact prefix boundary, which is
// at least as precise as the linear read's first/last-of-interval stop:
// read_fast must never be below the linear value (it decodes a switch ≥
// the linear stop position), and both must be within the band wherever
// the schedule promises it — for k ≥ √n, in every phase on the corrected
// schedule and past the 1 + n(k−1) bootstrap on the paper's.
template <typename Counter>
void expect_fast_agrees_with_linear(unsigned n, std::uint64_t k) {
  constexpr bool kBandedInEveryPhase =
      std::is_same_v<Counter, KMultCounterCorrected>;
  Counter counter(n, k);
  const std::uint64_t bootstrap = 1 + std::uint64_t{n} * (k - 1);
  for (std::uint64_t v = 1; v <= 4000; ++v) {
    counter.increment(static_cast<unsigned>(v % n));
    if (v % 7 == 0) {
      const std::uint64_t fast = counter.read_fast(0);
      const std::uint64_t linear = counter.read(n - 1);
      ASSERT_GE(fast, linear) << "v=" << v;
      if (counter.accuracy_guaranteed() &&
          (kBandedInEveryPhase || v > bootstrap)) {
        ASSERT_TRUE(within_mult_band(fast, v, k)) << "v=" << v;
        ASSERT_TRUE(within_mult_band(linear, v, k)) << "v=" << v;
      }
    }
  }
}

TEST(ReadFast, AgreesWithLinearReadAtQuiescence) {
  for (const unsigned n : {1u, 4u, 16u}) {
    for (std::uint64_t k = 2; k <= 5; ++k) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k);
      expect_fast_agrees_with_linear<KMultCounter>(n, k);
      expect_fast_agrees_with_linear<KMultCounterCorrected>(n, k);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ReadFast, EveryPrefixBanded) {
  for (const std::uint64_t k : {2u, 3u, 5u}) {
    KMultCounterCorrected counter(1, k);
    for (std::uint64_t v = 1; v <= 3000; ++v) {
      counter.increment(0);
      const std::uint64_t x = counter.read_fast(0);
      ASSERT_TRUE(within_mult_band(x, v, k)) << "k=" << k << " v=" << v;
    }
  }
}

TEST(ReadFast, StepComplexityIsLogarithmicInBoundary) {
  // A cold linear read scans ~2 positions per interval; read_fast probes
  // O(log2 S) switches. Drive the prefix far out and compare.
  constexpr unsigned kN = 4;
  const std::uint64_t k = 2;
  KMultCounterCorrected counter(kN, k);
  for (std::uint64_t i = 0; i < 3'000'000; ++i) {
    counter.increment(static_cast<unsigned>(i % kN));
  }
  const std::uint64_t boundary = counter.first_unset_switch_unrecorded();
  ASSERT_GT(boundary, 8u);  // the workload must have set many switches
  const std::uint64_t fast_steps =
      base::steps_of([&] { (void)counter.read_fast(0); });
  // Doubling ≤ log2(S)+2 probes, binary search ≤ log2(S), verify = 2.
  EXPECT_LE(fast_steps, 2 * base::ceil_log2(boundary + 2) + 5);
}

TEST(ReadFast, WaitFreeUnderContinuousIncrements) {
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
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t before = finished.load(std::memory_order_relaxed);
    const std::uint64_t x = counter.read_fast(kN - 1);
    const std::uint64_t after = started.load(std::memory_order_relaxed);
    const std::uint64_t v_lo = core::mult_band_v_min(x, counter.k());
    const std::uint64_t v_hi = core::mult_band_v_max(x, counter.k());
    ASSERT_LE(v_lo, after) << "read " << x << " too large for window";
    ASSERT_GE(v_hi, before) << "read " << x << " too small for window";
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : incrementers) thread.join();
}

// The retry loop is bounded through the helping array: every failed
// verification witnesses a fresh announce, and after at most 2n+1
// post-baseline failures some process's H-pair has advanced by ≥ 2,
// which returns a helped value. Pin the 2n+2 attempt bound under a
// writer-greedy adversarial schedule that maximizes boundary movement
// between the reader's probes.
class ReadFastRetryBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadFastRetryBound, AttemptsBoundedByHelping) {
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 4;
  constexpr unsigned kReader = kN - 1;
  constexpr std::uint64_t kK = 64;  // long bootstrap: every increment of
                                    // the first k+1 announces, keeping
                                    // the boundary moving under the
                                    // reader's probes
  constexpr int kWriterOps = 300;
  const std::uint64_t kAttemptBound = 2 * std::uint64_t{kN} + 2;
  KMultCounterCorrected counter(kN, kK);

  std::uint64_t max_attempts = 0;
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid + 1 < kN; ++pid) {
    programs.emplace_back([&counter, pid] {
      for (int i = 0; i < kWriterOps; ++i) counter.increment(pid);
    });
  }
  programs.emplace_back([&] {
    for (int i = 0; i < 25; ++i) {
      const std::uint64_t x = counter.read_fast(kReader);
      const std::uint64_t attempts =
          counter.last_read_fast_attempts(kReader);
      if (attempts > max_attempts) max_attempts = attempts;
      // Coarse sanity on the value: a read never exceeds k times the
      // number of announced (≤ performed) increments.
      ASSERT_LE(x, kK * std::uint64_t{(kN - 1) * kWriterOps});
    }
  });

  // Writer-greedy picker: the reader advances one step for every
  // `stride` writer steps, so the set prefix grows between a
  // verification's two probes as often as the schedule allows. The seed
  // varies the stride and phase.
  std::uint64_t tick = seed * 13;
  const std::uint64_t stride = 5 + seed % 7;
  sim::SchedulePicker picker =
      [&tick, stride](const std::vector<unsigned>& runnable) -> unsigned {
    ++tick;
    if (runnable.size() == 1) return runnable[0];
    const bool reader_runnable = runnable.back() == kReader;
    if (reader_runnable && tick % stride == 0) return kReader;
    const std::size_t writers =
        runnable.size() - (reader_runnable ? 1 : 0);
    return runnable[tick % writers];
  };
  sim::StepScheduler::run(std::move(programs), picker);

  EXPECT_LE(max_attempts, kAttemptBound) << "seed " << seed;
  // The schedule must actually have forced retries, or the bound above
  // pins nothing (deterministic stepper ⇒ stable per seed); and the
  // retries must resolve through the helping array, not luck.
  EXPECT_GE(max_attempts, 2u) << "seed " << seed;
  EXPECT_GT(counter.reads_via_helping(kReader), 0u) << "seed " << seed;
  // Quiescent read after the run needs exactly one attempt.
  (void)counter.read_fast(kReader);
  EXPECT_EQ(counter.last_read_fast_attempts(kReader), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadFastRetryBound,
                         ::testing::Range<std::uint64_t>(0, 10));

// Mixed linear/fast readers under controlled adversarial schedules:
// the combined history must still satisfy k-multiplicative
// linearizability (fast reads decode sharper positions than linear
// reads; monotone consistency between the two styles is the risk).
class ReadFastScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReadFastScheduleSweep, MixedReaderHistoryChecks) {
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 4;
  const std::uint64_t k = 2;
  KMultCounterCorrected counter(kN, k);
  sim::HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      sim::Rng rng(seed * 97 + pid);
      for (int i = 0; i < 40; ++i) {
        const double roll =
            static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        if (roll < 0.2) {
          history.record_read(pid, [&] { return counter.read(pid); });
        } else if (roll < 0.4) {
          history.record_read(pid, [&] { return counter.read_fast(pid); });
        } else {
          history.record_increment(pid, [&] { counter.increment(pid); });
        }
      }
    });
  }
  sim::StepScheduler::run(std::move(programs), seed);
  const auto result = sim::check_counter_history(history.merged(), k);
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadFastScheduleSweep,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace approx::core
