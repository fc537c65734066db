// Tests for the k-additive-accurate counter extension (E11 substrate).
#include "core/kadditive_counter.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "base/step_recorder.hpp"
#include "core/approx.hpp"
#include "sim/workload.hpp"

namespace approx::core {
namespace {

TEST(KAdditiveCounter, InitiallyZero) {
  KAdditiveCounter counter(4, 16);
  EXPECT_EQ(counter.read(), 0u);
}

TEST(KAdditiveCounter, NeverOvercounts) {
  KAdditiveCounter counter(2, 10);
  for (int i = 0; i < 1000; ++i) {
    counter.increment(static_cast<unsigned>(i) % 2);
    const std::uint64_t x = counter.read();
    const auto v = static_cast<std::uint64_t>(i + 1);
    ASSERT_LE(x, v);
  }
}

TEST(KAdditiveCounter, UndercountsByAtMostK) {
  for (std::uint64_t k : {0u, 1u, 7u, 64u, 1000u}) {
    constexpr unsigned kN = 4;
    KAdditiveCounter counter(kN, k);
    std::uint64_t v = 0;
    sim::Rng rng(k + 1);
    for (int i = 0; i < 5000; ++i) {
      counter.increment(static_cast<unsigned>(rng.below(kN)));
      ++v;
      const std::uint64_t x = counter.read();
      ASSERT_TRUE(within_add_band(x, v, k))
          << "k=" << k << " v=" << v << " x=" << x;
      ASSERT_LE(x, v);  // one-sided: never overcounts
    }
  }
}

TEST(KAdditiveCounter, KZeroIsExact) {
  KAdditiveCounter counter(3, 0);
  EXPECT_EQ(counter.flush_threshold(), 1u);
  for (int i = 0; i < 300; ++i) {
    counter.increment(static_cast<unsigned>(i) % 3);
    ASSERT_EQ(counter.read(), static_cast<std::uint64_t>(i + 1));
  }
}

TEST(KAdditiveCounter, FlushMakesPendingVisible) {
  KAdditiveCounter counter(2, 100);  // flush threshold 51
  for (int i = 0; i < 10; ++i) counter.increment(0);
  EXPECT_LT(counter.read(), 10u);  // still buffered
  counter.flush(0);
  EXPECT_EQ(counter.read(), 10u);
  counter.flush(1);  // flushing an idle pid is a no-op
  EXPECT_EQ(counter.read(), 10u);
}

TEST(KAdditiveCounter, ReportsExactlyItsSlotWrites) {
  // The publish report: true iff the call wrote the slot, once per
  // flush_threshold() increments, or a flush with a batch pending; a
  // read moves only on a true return.
  KAdditiveCounter counter(4, 10);  // flush threshold 3
  std::uint64_t writes = 0;
  for (int i = 1; i <= 10; ++i) {
    const std::uint64_t before = counter.read();
    const bool wrote = counter.increment(1);
    EXPECT_EQ(wrote, i % 3 == 0) << i;
    if (wrote) ++writes;
    if (!wrote) {
      EXPECT_EQ(counter.read(), before) << i;
    }
  }
  EXPECT_EQ(writes, 10u / counter.flush_threshold());
  EXPECT_TRUE(counter.flush(1));  // one increment was pending
  EXPECT_EQ(counter.read(), 10u);
  EXPECT_FALSE(counter.flush(1));
  EXPECT_FALSE(counter.flush(2));  // an idle pid writes nothing
}

TEST(KAdditiveCounter, FlushThresholdFormula) {
  EXPECT_EQ(KAdditiveCounter(4, 100).flush_threshold(), 26u);  // 100/4+1
  EXPECT_EQ(KAdditiveCounter(4, 3).flush_threshold(), 1u);     // k < n ⇒ exact
  EXPECT_EQ(KAdditiveCounter(1, 5).flush_threshold(), 6u);
}

TEST(KAdditiveCounter, AmortizedSharedStepsShrinkWithK) {
  // Increments cost ~n/k shared writes amortized: with k = 1000 and
  // n = 4, 10000 increments by one process should cost ≈ 10000/251 ≈ 40
  // writes.
  KAdditiveCounter counter(4, 1000);
  base::StepRecorder recorder;
  {
    base::ScopedRecording on(recorder);
    for (int i = 0; i < 10000; ++i) counter.increment(0);
  }
  EXPECT_LE(recorder.writes(), 41u);
  EXPECT_GE(recorder.writes(), 39u);
  EXPECT_EQ(recorder.reads(), 0u);
}

TEST(KAdditiveCounter, ConcurrentBandAgainstWindow) {
  constexpr unsigned kN = 4;
  const std::uint64_t k = 64;
  KAdditiveCounter counter(kN, k);
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
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t before = finished.load(std::memory_order_relaxed);
    const std::uint64_t x = counter.read();
    const std::uint64_t after = started.load(std::memory_order_relaxed);
    // Some v in [before, after] must satisfy v−k ≤ x ≤ v.
    ASSERT_LE(x, after) << "overcounted";
    ASSERT_GE(x + k, before) << "undercounted beyond k";
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : incrementers) thread.join();
}

// Property sweep: (n, k) grid; final flushed value is exact.
class KAdditiveSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(KAdditiveSweep, FlushedQuiescentValueIsExact) {
  const auto [n, k] = GetParam();
  KAdditiveCounter counter(n, k);
  sim::Rng rng(n * 13 + k);
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    counter.increment(static_cast<unsigned>(rng.below(n)));
  }
  for (unsigned pid = 0; pid < n; ++pid) counter.flush(pid);
  EXPECT_EQ(counter.read(), static_cast<std::uint64_t>(total));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KAdditiveSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 5u, 16u),
                       ::testing::Values<std::uint64_t>(0, 1, 10, 500)));

}  // namespace
}  // namespace approx::core
