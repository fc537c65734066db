// Tests for the exact unbounded (machine-word domain) max register — the
// Baig-style substrate substitute (see exact/unbounded_max_register.hpp).
#include "exact/unbounded_max_register.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "base/kmath.hpp"
#include "base/step_recorder.hpp"
#include "sim/history.hpp"
#include "sim/lin_check.hpp"
#include "sim/workload.hpp"

namespace approx::exact {
namespace {

TEST(UnboundedMaxRegister, InitiallyZero) {
  UnboundedMaxRegister reg;
  EXPECT_EQ(reg.read(), 0u);
}

TEST(UnboundedMaxRegister, SmallValues) {
  UnboundedMaxRegister reg;
  reg.write(1);
  EXPECT_EQ(reg.read(), 1u);
  reg.write(2);
  EXPECT_EQ(reg.read(), 2u);
  reg.write(3);
  EXPECT_EQ(reg.read(), 3u);
}

TEST(UnboundedMaxRegister, WriteZeroIsNoOp) {
  UnboundedMaxRegister reg;
  reg.write(0);
  EXPECT_EQ(reg.read(), 0u);
  reg.write(9);
  reg.write(0);
  EXPECT_EQ(reg.read(), 9u);
}

TEST(UnboundedMaxRegister, KeepsMaximumAcrossExponents) {
  UnboundedMaxRegister reg;
  reg.write(1000);
  reg.write(3);  // much smaller exponent
  EXPECT_EQ(reg.read(), 1000u);
  reg.write(999);  // same exponent, smaller mantissa
  EXPECT_EQ(reg.read(), 1000u);
  reg.write(1 << 20);
  EXPECT_EQ(reg.read(), std::uint64_t{1} << 20);
}

TEST(UnboundedMaxRegister, PowerOfTwoBoundaries) {
  // Exponent transitions are where the two-level construction could go
  // wrong; probe every boundary ±1 up to 2^32.
  UnboundedMaxRegister reg;
  std::uint64_t reference = 0;
  for (unsigned e = 0; e <= 32; ++e) {
    for (std::int64_t delta : {-1, 0, 1}) {
      const std::uint64_t base_value = std::uint64_t{1} << e;
      if (delta < 0 && base_value == 0) continue;
      const std::uint64_t v =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(base_value) +
                                     delta);
      if (v == 0) continue;
      reg.write(v);
      reference = std::max(reference, v);
      ASSERT_EQ(reg.read(), reference) << "e=" << e << " delta=" << delta;
    }
  }
}

TEST(UnboundedMaxRegister, HugeValues) {
  UnboundedMaxRegister reg;
  const std::uint64_t big = (std::uint64_t{1} << 63) + 12345;
  reg.write(big);
  EXPECT_EQ(reg.read(), big);
  reg.write(base::kU64Max);
  EXPECT_EQ(reg.read(), base::kU64Max);
}

TEST(UnboundedMaxRegister, RandomSequencesAgainstReference) {
  sim::Rng rng(0xCAFE);
  for (int trial = 0; trial < 30; ++trial) {
    UnboundedMaxRegister reg;
    std::uint64_t reference = 0;
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t v = rng.log_uniform(base::kU64Max);
      reg.write(v);
      reference = std::max(reference, v);
      ASSERT_EQ(reg.read(), reference);
    }
  }
}

// Step complexity must scale with log v, not with the domain size.
TEST(UnboundedMaxRegister, StepComplexityTracksMagnitude) {
  UnboundedMaxRegister small;
  small.write(2);
  const std::uint64_t small_read = base::steps_of([&] { (void)small.read(); });

  UnboundedMaxRegister large;
  large.write(std::uint64_t{1} << 50);
  const std::uint64_t large_read = base::steps_of([&] { (void)large.read(); });

  // Level register is ⌈log₂66⌉ = 7 levels; mantissa adds ~log₂ v levels.
  EXPECT_LE(small_read, 10u);
  EXPECT_LE(large_read, 60u);
  EXPECT_GT(large_read, small_read);
}

TEST(UnboundedMaxRegister, ConcurrentHistoryIsLinearizable) {
  constexpr unsigned kThreads = 4;
  constexpr int kOpsPerThread = 600;
  UnboundedMaxRegister reg;
  sim::HistoryRecorder history(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned pid = 0; pid < kThreads; ++pid) {
    threads.emplace_back([&, pid] {
      sim::Rng rng(pid + 5);
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(0.4)) {
          history.record_read(pid, [&] { return reg.read(); });
        } else {
          const std::uint64_t v = rng.log_uniform(std::uint64_t{1} << 40);
          history.record_write(pid, v, [&] { reg.write(v); });
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  const auto result = sim::check_max_register_history(history.merged(), 1);
  EXPECT_TRUE(result.ok) << result.violation;
}

}  // namespace
}  // namespace approx::exact
