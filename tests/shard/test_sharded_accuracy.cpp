// Accuracy-composition property tests: sharded counters driven under
// adversarial instrumented-sim schedules must keep every read inside
// the band the layer *reports* (error_bound()) — the satellite check
// that the composition math in shard/sharded_counter.hpp is real, not
// just documented.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/approx.hpp"
#include "sim/adapters.hpp"
#include "sim/history.hpp"
#include "sim/lin_check.hpp"
#include "sim/stepper.hpp"
#include "sim/workload.hpp"

namespace approx::shard {
namespace {

constexpr unsigned kN = 4;

/// Runs a seeded mixed workload over `counter` under the deterministic
/// step scheduler and returns the merged history.
std::vector<sim::OpRecord> run_adversarial(sim::ICounter& counter,
                                           std::uint64_t seed,
                                           int ops_per_pid) {
  sim::HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      sim::Rng rng(seed * 131 + pid + 1);
      for (int i = 0; i < ops_per_pid; ++i) {
        if (rng.chance(0.25)) {
          history.record_read(pid, [&] { return counter.read(pid); });
        } else {
          history.record_increment(pid, [&] { counter.increment(pid); });
        }
      }
    });
  }
  sim::StepScheduler::run(std::move(programs), seed);
  return history.merged();
}

/// Window check for the additive band: every read must be within
/// ±bound of SOME increment count inside its real-time window
/// [completed-before-invoke, invoked-before-response] — the necessary
/// condition of k-additive linearizability (monotone counts make it
/// tight per read).
void expect_additive_window(const std::vector<sim::OpRecord>& history,
                            std::uint64_t bound, std::uint64_t seed) {
  for (const sim::OpRecord& read : history) {
    if (read.type != sim::OpType::kRead) continue;
    std::uint64_t completed_before = 0;
    std::uint64_t invoked_before = 0;
    for (const sim::OpRecord& inc : history) {
      if (inc.type != sim::OpType::kIncrement) continue;
      if (inc.response != 0 && inc.response < read.invoke) ++completed_before;
      if (inc.invoke < read.response) ++invoked_before;
    }
    // ∃ v ∈ [completed_before, invoked_before]: |x − v| ≤ bound.
    ASSERT_LE(completed_before,
              base::sat_add(read.result, bound))
        << "seed " << seed << ": read " << read.result
        << " too small for window [" << completed_before << ", "
        << invoked_before << "] ± " << bound;
    ASSERT_LE(read.result, base::sat_add(invoked_before, bound))
        << "seed " << seed << ": read " << read.result
        << " too large for window [" << completed_before << ", "
        << invoked_before << "] ± " << bound;
  }
}

class ShardedAccuracySweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ShardedAccuracySweep, MultiplicativeCompositionHolds) {
  const std::uint64_t seed = GetParam();
  for (const unsigned shards : {2u, 4u}) {
    for (const auto policy :
         {ShardPolicy::kHashPinned, ShardPolicy::kRoundRobin}) {
      sim::ShardedKMultCounterAdapter counter(kN, 2, shards, policy);
      ASSERT_EQ(counter.k(), 2u);  // composed bound == per-shard k
      const auto history = run_adversarial(counter, seed, 30);
      // The adapter reports the composed bound as its k, so the stock
      // k-multiplicative linearizability checker verifies exactly the
      // band error_bound() promises.
      const auto result = sim::check_counter_history(history, counter.k());
      ASSERT_TRUE(result.ok) << "seed " << seed << " S=" << shards << ": "
                             << result.violation;
    }
  }
}

TEST_P(ShardedAccuracySweep, AdditiveCompositionHolds) {
  const std::uint64_t seed = GetParam();
  for (const unsigned shards : {2u, 4u}) {
    for (const auto policy :
         {ShardPolicy::kHashPinned, ShardPolicy::kRoundRobin}) {
      sim::ShardedKAdditiveCounterAdapter counter(kN, 8, shards, policy);
      const std::uint64_t bound = counter.impl().error_bound();
      ASSERT_EQ(bound, std::uint64_t{8} * shards);
      const auto history = run_adversarial(counter, seed, 30);
      expect_additive_window(history, bound, seed);
    }
  }
}

TEST_P(ShardedAccuracySweep, ExactShardingStaysLinearizable) {
  const std::uint64_t seed = GetParam();
  for (const unsigned shards : {2u, 4u}) {
    sim::ShardedSnapshotCounterAdapter counter(kN, 0, shards);
    const auto history = run_adversarial(counter, seed, 20);
    const auto result = sim::check_counter_history(history, 1);
    ASSERT_TRUE(result.ok) << "seed " << seed << " S=" << shards << ": "
                           << result.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedAccuracySweep,
                         ::testing::Range<std::uint64_t>(0, 20));

// --- RelaxedDirectBackend: the stepper-free adversarial path ---------
//
// The relaxed build has no yield points, so the step scheduler cannot
// interleave it; instead real OS threads produce genuinely concurrent
// executions (including whatever weak-memory reordering the hardware
// performs) and the SAME oracles — the k-multiplicative lin-check and
// the additive window check — judge the merged history. The
// HistoryRecorder clock is a seq_cst fetch_add, so invoke/response
// stamps order in real time around the relaxed operations: any accuracy
// leak a mis-mapped memory-order role introduces shows up as a band
// violation here (and as a race in the TSan relaxed suite).

std::vector<sim::OpRecord> run_threads_history(sim::ICounter& counter,
                                               std::uint64_t seed,
                                               int ops_per_pid) {
  sim::HistoryRecorder history(kN);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kN);
  for (unsigned pid = 0; pid < kN; ++pid) {
    threads.emplace_back([&, pid] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      sim::Rng rng(seed * 131 + pid + 1);
      for (int i = 0; i < ops_per_pid; ++i) {
        if (rng.chance(0.25)) {
          history.record_read(pid, [&] { return counter.read(pid); });
        } else {
          history.record_increment(pid, [&] { counter.increment(pid); });
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  return history.merged();
}

class RelaxedShardedAccuracySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelaxedShardedAccuracySweep, MultiplicativeCompositionHolds) {
  const std::uint64_t seed = GetParam();
  for (const unsigned shards : {2u, 4u}) {
    for (const auto policy :
         {ShardPolicy::kHashPinned, ShardPolicy::kRoundRobin}) {
      sim::ShardedKMultCounterAdapterT<base::RelaxedDirectBackend> counter(
          kN, 2, shards, policy);
      const auto history = run_threads_history(counter, seed, 200);
      const auto result = sim::check_counter_history(history, counter.k());
      ASSERT_TRUE(result.ok) << "seed " << seed << " S=" << shards << ": "
                             << result.violation;
    }
  }
}

TEST_P(RelaxedShardedAccuracySweep, AdditiveCompositionHolds) {
  const std::uint64_t seed = GetParam();
  for (const unsigned shards : {2u, 4u}) {
    for (const auto policy :
         {ShardPolicy::kHashPinned, ShardPolicy::kRoundRobin}) {
      sim::ShardedKAdditiveCounterAdapterT<base::RelaxedDirectBackend>
          counter(kN, 8, shards, policy);
      const std::uint64_t bound = counter.impl().error_bound();
      const auto history = run_threads_history(counter, seed, 200);
      expect_additive_window(history, bound, seed);
    }
  }
}

TEST_P(RelaxedShardedAccuracySweep, ExactShardingStaysLinearizable) {
  const std::uint64_t seed = GetParam();
  for (const unsigned shards : {2u, 4u}) {
    sim::ShardedSnapshotCounterAdapterT<base::RelaxedDirectBackend> counter(
        kN, 0, shards);
    const auto history = run_threads_history(counter, seed, 100);
    const auto result = sim::check_counter_history(history, 1);
    ASSERT_TRUE(result.ok) << "seed " << seed << " S=" << shards << ": "
                           << result.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelaxedShardedAccuracySweep,
                         ::testing::Range<std::uint64_t>(0, 5));

// A starved reader must still return a banded value: the sharded read
// is a sequence of S wait-free shard reads, so wait-freedom survives
// composition (the weakest-fairness schedule the paper's claims are
// made under).
TEST(ShardedAccuracy, StarvedReaderStillBanded) {
  sim::ShardedKMultCounterAdapter counter(kN, 2, 2);
  sim::HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid + 1 < kN; ++pid) {
    programs.emplace_back([&, pid] {
      for (int i = 0; i < 60; ++i) {
        history.record_increment(pid, [&] { counter.increment(pid); });
      }
    });
  }
  programs.emplace_back([&] {
    for (int i = 0; i < 5; ++i) {
      history.record_read(kN - 1, [&] { return counter.read(kN - 1); });
    }
  });
  sim::StepScheduler::run(std::move(programs),
                          sim::StepScheduler::starvation_picker(kN - 1, 7));
  const auto result = sim::check_counter_history(history.merged(), 2);
  ASSERT_TRUE(result.ok) << result.violation;
}

}  // namespace
}  // namespace approx::shard
