// Tests for the wait-free top-k leaderboard (src/stats/topk.hpp):
// max-fold semantics, capacity overflow accounting, deterministic
// ranking, and the announce-then-help insert path under adversarial
// schedules (the two-cell insert must never produce duplicate labels
// or lose an announced update).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "sim/stepper.hpp"
#include "sim/workload.hpp"
#include "stats/topk.hpp"

namespace approx::stats {
namespace {

constexpr unsigned kN = 4;

TEST(TopK, UpdateCollectRanksDeterministically) {
  TopKT<base::DirectBackend> top(kN, 8);
  EXPECT_TRUE(top.update(0, "get", 120));
  EXPECT_TRUE(top.update(0, "put", 300));
  EXPECT_TRUE(top.update(0, "del", 300));
  EXPECT_TRUE(top.update(0, "list", 50));
  EXPECT_EQ(top.size(), 4u);

  std::vector<TopEntry> out;
  top.collect(3, out);
  ASSERT_EQ(out.size(), 3u);
  // Descending by value, label-ascending tiebreak: deterministic.
  EXPECT_EQ(out[0].label, "del");
  EXPECT_EQ(out[0].value, 300u);
  EXPECT_EQ(out[1].label, "put");
  EXPECT_EQ(out[2].label, "get");

  top.collect(16, out);  // k beyond the directory: everything, once
  EXPECT_EQ(out.size(), 4u);
}

TEST(TopK, UpdateIsAMaxFold) {
  TopKT<base::DirectBackend> top(kN, 4);
  EXPECT_TRUE(top.update(0, "ep", 100));
  EXPECT_TRUE(top.update(1, "ep", 40));  // smaller: no effect
  EXPECT_EQ(top.read("ep"), 100u);
  EXPECT_TRUE(top.update(2, "ep", 250));
  EXPECT_EQ(top.read("ep"), 250u);
  EXPECT_EQ(top.size(), 1u);
  EXPECT_EQ(top.read("absent"), 0u);
}

TEST(TopK, FullDirectoryDropsNewLabelsAndCounts) {
  TopKT<base::DirectBackend> top(kN, 2);
  EXPECT_TRUE(top.update(0, "a", 1));
  EXPECT_TRUE(top.update(0, "b", 2));
  EXPECT_FALSE(top.update(0, "c", 3));  // full, label absent: dropped
  EXPECT_EQ(top.dropped_updates(), 1u);
  // Existing labels still fold fine at capacity.
  EXPECT_TRUE(top.update(0, "a", 9));
  EXPECT_EQ(top.read("a"), 9u);
  std::vector<TopEntry> out;
  top.collect(8, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].label, "a");
  EXPECT_EQ(out[1].label, "b");
}

TEST(TopK, FullDirectoryRefusesAbsentLabelsBeforeAnnouncing) {
  // Slots are never cleared, so a scan that finds every slot holding
  // another label proves the update can never land: it is refused
  // before an op is allocated, announced and pinned for the directory's
  // lifetime.
  TopKT<base::DirectBackend> top(kN, 2);
  ASSERT_TRUE(top.update(0, "a", 1));
  ASSERT_TRUE(top.update(1, "b", 2));
  const std::size_t pinned = top.pinned_ops();
  EXPECT_EQ(pinned, 2u);  // one announced op per inserted label
  for (unsigned i = 0; i < 10000; ++i) {
    EXPECT_FALSE(top.update(i % kN, "absent-" + std::to_string(i), i));
  }
  EXPECT_EQ(top.dropped_updates(), 10000u);
  EXPECT_EQ(top.pinned_ops(), pinned);
  EXPECT_EQ(top.size(), 2u);
}

/// The adversarial insert race: every pid tries to insert an
/// OVERLAPPING label set concurrently under the deterministic step
/// scheduler. The announce-then-help path must (a) never create two
/// cells for one label, (b) never lose an update whose call returned
/// true, and (c) keep the directory a prefix (slots fill in order).
class TopKAdversarialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopKAdversarialSweep, ConcurrentInsertsNoDuplicatesNoLosses) {
  const std::uint64_t seed = GetParam();
  TopKT<base::InstrumentedBackend> top(kN, 16);
  const std::string labels[] = {"alpha", "beta", "gamma", "delta", "eps"};
  // expected[label] = max value any successful update wrote.
  std::map<std::string, std::uint64_t> expected;
  std::mutex expected_mutex;
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      sim::Rng rng(seed * 977 + pid + 1);
      for (int i = 0; i < 25; ++i) {
        const std::string& label = labels[rng.below(5)];
        const std::uint64_t value = 1 + rng.below(1000);
        if (top.update(pid, label, value)) {
          std::lock_guard lock(expected_mutex);
          auto [it, fresh] = expected.emplace(label, value);
          if (!fresh && value > it->second) it->second = value;
        }
        if (i % 7 == 0) {
          std::vector<TopEntry> mid;
          top.collect(8, mid);  // read-side helping runs concurrently
          std::set<std::string> seen;
          for (const TopEntry& entry : mid) {
            EXPECT_TRUE(seen.insert(entry.label).second)
                << "duplicate label " << entry.label << " seed " << seed;
          }
        }
      }
    });
  }
  sim::StepScheduler::run(std::move(programs), seed);

  std::vector<TopEntry> out;
  top.collect(16, out);
  ASSERT_EQ(out.size(), expected.size()) << "seed " << seed;
  std::set<std::string> seen;
  for (const TopEntry& entry : out) {
    ASSERT_TRUE(seen.insert(entry.label).second)
        << "duplicate label " << entry.label << " seed " << seed;
    const auto it = expected.find(entry.label);
    ASSERT_NE(it, expected.end()) << entry.label;
    EXPECT_EQ(entry.value, it->second)
        << "label " << entry.label << " seed " << seed;
  }
  EXPECT_EQ(top.dropped_updates(), 0u);  // 5 labels, 16 slots
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKAdversarialSweep,
                         ::testing::Range<std::uint64_t>(0, 15));

/// Same property under real threads and the relaxed backend: genuine
/// hardware concurrency instead of the step scheduler.
TEST(TopK, RelaxedThreadsConcurrentInsertsConverge) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    TopKT<base::RelaxedDirectBackend> top(kN, 32);
    const std::string labels[] = {"a", "b", "c", "d", "e", "f", "g"};
    std::atomic<bool> go{false};
    std::array<std::map<std::string, std::uint64_t>, kN> per_pid_max;
    std::vector<std::thread> threads;
    for (unsigned pid = 0; pid < kN; ++pid) {
      threads.emplace_back([&, pid] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        sim::Rng rng(seed * 131 + pid + 1);
        for (int i = 0; i < 500; ++i) {
          const std::string& label = labels[rng.below(7)];
          const std::uint64_t value = 1 + rng.below(100000);
          if (top.update(pid, label, value)) {
            auto [it, fresh] = per_pid_max[pid].emplace(label, value);
            if (!fresh && value > it->second) it->second = value;
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();

    std::map<std::string, std::uint64_t> expected;
    for (const auto& local : per_pid_max) {
      for (const auto& [label, value] : local) {
        auto [it, fresh] = expected.emplace(label, value);
        if (!fresh && value > it->second) it->second = value;
      }
    }
    std::vector<TopEntry> out;
    top.collect(32, out);
    ASSERT_EQ(out.size(), expected.size()) << "seed " << seed;
    for (const TopEntry& entry : out) {
      EXPECT_EQ(entry.value, expected.at(entry.label))
          << "label " << entry.label << " seed " << seed;
    }
    EXPECT_EQ(top.dropped_updates(), 0u);
  }
}

}  // namespace
}  // namespace approx::stats
