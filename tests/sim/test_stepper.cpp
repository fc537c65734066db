// Tests for the deterministic step-level scheduler, and seed-driven
// adversarial-schedule property sweeps over the whole object zoo. These
// are the strongest concurrency tests in the repository: every seed is a
// distinct primitive-granularity interleaving, and failures reproduce
// exactly (print the seed).
#include "sim/stepper.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "base/kmath.hpp"
#include "base/test_and_set.hpp"
#include "core/approx.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_max_register.hpp"
#include "exact/bounded_max_register.hpp"
#include "exact/aach_counter.hpp"
#include "exact/collect_counter.hpp"
#include "exact/snapshot.hpp"
#include "sim/history.hpp"
#include "sim/lin_check.hpp"
#include "sim/workload.hpp"

namespace approx::sim {
namespace {

// ----------------------------------------------------------------------
// Scheduler mechanics
// ----------------------------------------------------------------------

TEST(StepScheduler, RunsAllProgramsToCompletion) {
  std::vector<int> ran(4, 0);
  base::TasBit bit;  // gives each program at least one yield point
  std::vector<std::function<void()>> programs;
  for (int p = 0; p < 4; ++p) {
    programs.emplace_back([&, p] {
      (void)bit.read();
      ran[static_cast<std::size_t>(p)] = 1;
    });
  }
  StepScheduler::run(std::move(programs), /*seed=*/1);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(ran[static_cast<std::size_t>(p)], 1);
}

TEST(StepScheduler, ProgramsWithoutPrimitivesFinish) {
  int x = 0;
  StepScheduler::run({[&] { x = 42; }}, /*seed=*/3);
  EXPECT_EQ(x, 42);
}

TEST(StepScheduler, SameSeedSameExecution) {
  auto run_once = [](std::uint64_t seed) {
    core::KMultCounterCorrected counter(3, 2);
    std::vector<std::uint64_t> reads(3 * 20);
    std::vector<std::function<void()>> programs;
    for (unsigned pid = 0; pid < 3; ++pid) {
      programs.emplace_back([&, pid] {
        for (int i = 0; i < 20; ++i) {
          counter.increment(pid);
          reads[pid * 20 + static_cast<unsigned>(i)] = counter.read(pid);
        }
      });
    }
    StepScheduler::run(std::move(programs), seed);
    return reads;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_EQ(run_once(99), run_once(99));
}

TEST(StepScheduler, DifferentSeedsExploreDifferentSchedules) {
  auto run_once = [](std::uint64_t seed) {
    core::KMultCounterCorrected counter(3, 2);
    std::vector<std::uint64_t> reads(3 * 30);
    std::vector<std::function<void()>> programs;
    for (unsigned pid = 0; pid < 3; ++pid) {
      programs.emplace_back([&, pid] {
        for (int i = 0; i < 30; ++i) {
          counter.increment(pid);
          reads[pid * 30 + static_cast<unsigned>(i)] = counter.read(pid);
        }
      });
    }
    StepScheduler::run(std::move(programs), seed);
    return reads;
  };
  const auto baseline = run_once(1);
  bool any_different = false;
  for (std::uint64_t seed = 2; seed <= 12 && !any_different; ++seed) {
    any_different = run_once(seed) != baseline;
  }
  EXPECT_TRUE(any_different)
      << "12 seeds produced identical executions — scheduler not varying";
}

TEST(StepScheduler, TasBitHasUniqueWinnerUnderEverySchedule) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    base::TasBit bit;
    std::vector<int> won(6, 0);
    std::vector<std::function<void()>> programs;
    for (unsigned p = 0; p < 6; ++p) {
      programs.emplace_back([&, p] { won[p] = bit.test_and_set() ? 0 : 1; });
    }
    StepScheduler::run(std::move(programs), seed);
    int winners = 0;
    for (int w : won) winners += w;
    ASSERT_EQ(winners, 1) << "seed " << seed;
  }
}

TEST(StepScheduler, StarvationPickerRunsVictimLast) {
  // The victim's single step must happen after both aggressors finish.
  std::vector<int> order;
  base::TasBit bit;
  std::vector<std::function<void()>> programs;
  programs.emplace_back([&] {  // pid 0: the victim
    (void)bit.read();
    order.push_back(0);
  });
  for (unsigned p = 1; p <= 2; ++p) {
    programs.emplace_back([&, p] {
      for (int i = 0; i < 5; ++i) (void)bit.read();
      order.push_back(static_cast<int>(p));
    });
  }
  StepScheduler::run(std::move(programs),
                     StepScheduler::starvation_picker(0, /*seed=*/5));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), 0);  // victim finished last
}

// ----------------------------------------------------------------------
// Property sweeps: counters under adversarial schedules
// ----------------------------------------------------------------------

class CounterScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CounterScheduleSweep, CorrectedCounterHistoryChecks) {
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 4;
  const std::uint64_t k = 2;
  core::KMultCounterCorrected counter(kN, k);
  HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      Rng rng(seed * 7919 + pid);
      for (int i = 0; i < 40; ++i) {
        if (rng.chance(0.3)) {
          history.record_read(pid, [&] { return counter.read(pid); });
        } else {
          history.record_increment(pid, [&] { counter.increment(pid); });
        }
      }
    });
  }
  StepScheduler::run(std::move(programs), seed);

  const auto result = check_counter_history(history.merged(), k);
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  // Prefix invariant (Lemma III.2) at quiescence.
  const std::uint64_t first_unset = counter.first_unset_switch_unrecorded();
  for (std::uint64_t j = 0; j < first_unset; ++j) {
    ASSERT_TRUE(counter.switch_set_unrecorded(j)) << "seed " << seed;
  }
}

TEST_P(CounterScheduleSweep, FaithfulCounterPrefixInvariant) {
  // The faithful variant's band has the documented bootstrap transient,
  // but Lemma III.2 (prefix order of switch setting) must hold under
  // every schedule.
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 4;
  core::KMultCounter counter(kN, 2);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      for (int i = 0; i < 60; ++i) counter.increment(pid);
    });
  }
  StepScheduler::run(std::move(programs), seed);
  const std::uint64_t first_unset = counter.first_unset_switch_unrecorded();
  for (std::uint64_t j = 0; j < first_unset; ++j) {
    ASSERT_TRUE(counter.switch_set_unrecorded(j)) << "seed " << seed;
  }
  ASSERT_FALSE(counter.switch_set_unrecorded(first_unset + 1));
}

TEST_P(CounterScheduleSweep, ExactCollectHistoryChecks) {
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 3;
  exact::CollectCounter counter(kN);
  HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      Rng rng(seed * 31 + pid);
      for (int i = 0; i < 40; ++i) {
        if (rng.chance(0.4)) {
          history.record_read(pid, [&] { return counter.read(); });
        } else {
          history.record_increment(pid, [&] { counter.increment(pid); });
        }
      }
    });
  }
  StepScheduler::run(std::move(programs), seed);
  const auto result = check_counter_history(history.merged(), 1);
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterScheduleSweep,
                         ::testing::Range<std::uint64_t>(0, 25));

// ----------------------------------------------------------------------
// Property sweeps: max registers under adversarial schedules
// ----------------------------------------------------------------------

class MaxRegScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxRegScheduleSweep, ExactBoundedHistoryChecks) {
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 4;
  exact::BoundedMaxRegister reg(1 << 12);
  HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      Rng rng(seed * 131 + pid);
      for (int i = 0; i < 30; ++i) {
        if (rng.chance(0.5)) {
          history.record_read(pid, [&] { return reg.read(); });
        } else {
          const std::uint64_t v = rng.below(1 << 12);
          history.record_write(pid, v, [&] { reg.write(v); });
        }
      }
    });
  }
  StepScheduler::run(std::move(programs), seed);
  const auto result = check_max_register_history(history.merged(), 1);
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
}

TEST_P(MaxRegScheduleSweep, KMultBoundedHistoryChecks) {
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 4;
  const std::uint64_t k = 3;
  core::KMultMaxRegister reg(1 << 16, k);
  HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      Rng rng(seed * 733 + pid);
      for (int i = 0; i < 30; ++i) {
        if (rng.chance(0.5)) {
          history.record_read(pid, [&] { return reg.read(); });
        } else {
          const std::uint64_t v = 1 + rng.below((1 << 16) - 1);
          history.record_write(pid, v, [&] { reg.write(v); });
        }
      }
    });
  }
  StepScheduler::run(std::move(programs), seed);
  const auto result = check_max_register_history(history.merged(), k);
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxRegScheduleSweep,
                         ::testing::Range<std::uint64_t>(0, 25));

// ----------------------------------------------------------------------
// Snapshot atomicity under adversarial schedules
// ----------------------------------------------------------------------

class SnapshotScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SnapshotScheduleSweep, ViewsFormAChain) {
  // With monotone per-component updates, all scanned views must be
  // pairwise comparable — the definitive atomicity witness for the
  // double-collect + embedded-view helping logic.
  const std::uint64_t seed = GetParam();
  constexpr unsigned kWriters = 2;
  constexpr unsigned kScanners = 2;
  exact::Snapshot snap(kWriters + kScanners);
  std::vector<std::vector<std::uint64_t>> views;
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kWriters; ++pid) {
    programs.emplace_back([&, pid] {
      for (std::uint64_t v = 1; v <= 6; ++v) snap.update(pid, v);
    });
  }
  for (unsigned s = 0; s < kScanners; ++s) {
    programs.emplace_back([&] {
      for (int i = 0; i < 5; ++i) views.push_back(snap.scan());
    });
  }
  StepScheduler::run(std::move(programs), seed);

  auto leq = [](const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] > b[i]) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < views.size(); ++i) {
    for (std::size_t j = i + 1; j < views.size(); ++j) {
      ASSERT_TRUE(leq(views[i], views[j]) || leq(views[j], views[i]))
          << "seed " << seed << ": incomparable views " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotScheduleSweep,
                         ::testing::Range<std::uint64_t>(0, 20));

// ----------------------------------------------------------------------
// Crash-stop behaviour (fault injection)
// ----------------------------------------------------------------------

class CrashStopSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashStopSweep, SurvivorsStayAccurateAfterCrashes) {
  // Processes 1 and 2 "crash" (stop taking steps — in an asynchronous
  // system a crash is indistinguishable from an infinite stall) after a
  // seed-dependent number of increments. The survivor's reads must stay
  // banded w.r.t. the increments that actually completed.
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 3;
  const std::uint64_t k = 2;
  core::KMultCounterCorrected counter(kN, k);
  HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 1; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      const auto crash_after = 5 + (seed * (pid + 3)) % 40;
      for (std::uint64_t i = 0; i < crash_after; ++i) {
        history.record_increment(pid, [&] { counter.increment(pid); });
      }
      // crash: simply stops issuing steps
    });
  }
  programs.emplace_back([&] {  // the surviving reader/writer, pid 0
    Rng rng(seed);
    for (int i = 0; i < 60; ++i) {
      if (rng.chance(0.4)) {
        history.record_read(0, [&] { return counter.read(0); });
      } else {
        history.record_increment(0, [&] { counter.increment(0); });
      }
    }
  });
  StepScheduler::run(std::move(programs), seed);

  const auto result = check_counter_history(history.merged(), k);
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
  // Quiescent read agrees with the exact number of completed increments.
  std::uint64_t completed = 0;
  for (const auto& record : history.merged()) {
    if (record.type == OpType::kIncrement) ++completed;
  }
  EXPECT_TRUE(core::within_mult_band(counter.read(0), completed, k));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStopSweep,
                         ::testing::Range<std::uint64_t>(0, 20));


// ----------------------------------------------------------------------
// Snapshot helping branch, engaged deterministically
// ----------------------------------------------------------------------

TEST(SnapshotHelping, EmbeddedViewReturnedUnderScannerStarvedSchedule) {
  // The scanner gets one step per 24; the writer updates continuously.
  // During one scan the writer completes ≥ 2 full updates, forcing the
  // scan to return the writer's embedded view (the Afek et al. helping
  // branch). The returned views must still form a chain.
  exact::Snapshot snap(2);
  std::vector<std::vector<std::uint64_t>> views;
  std::vector<std::function<void()>> programs;
  programs.emplace_back([&] {  // pid 0: writer
    for (std::uint64_t v = 1; v <= 400; ++v) snap.update(0, v);
  });
  programs.emplace_back([&] {  // pid 1: scanner
    for (int i = 0; i < 8; ++i) views.push_back(snap.scan());
  });

  auto grants = std::make_shared<std::uint64_t>(0);
  SchedulePicker starve_scanner =
      [grants](const std::vector<unsigned>& runnable) -> unsigned {
    *grants += 1;
    bool scanner = false;
    bool writer = false;
    for (unsigned pid : runnable) {
      scanner |= (pid == 1);
      writer |= (pid == 0);
    }
    if (scanner && (!writer || *grants % 24 == 0)) return 1;
    return 0;
  };
  StepScheduler::run(std::move(programs), starve_scanner);

  EXPECT_GE(snap.helped_scans_unrecorded(), 1u)
      << "the starved scanner never borrowed an embedded view — "
         "the adversarial schedule needs retuning";
  auto leq = [](const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] > b[i]) return false;
    }
    return true;
  };
  for (std::size_t i = 1; i < views.size(); ++i) {
    ASSERT_TRUE(leq(views[i - 1], views[i])) << i;
  }
}

// ----------------------------------------------------------------------
// AACH counter under adversarial schedules
// ----------------------------------------------------------------------

class AachScheduleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AachScheduleSweep, HistoryChecksExactly) {
  const std::uint64_t seed = GetParam();
  constexpr unsigned kN = 3;
  exact::AachCounter counter(kN);
  HistoryRecorder history(kN);
  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid < kN; ++pid) {
    programs.emplace_back([&, pid] {
      Rng rng(seed * 57 + pid);
      for (int i = 0; i < 25; ++i) {
        if (rng.chance(0.35)) {
          history.record_read(pid, [&] { return counter.read(); });
        } else {
          history.record_increment(pid, [&] { counter.increment(pid); });
        }
      }
    });
  }
  StepScheduler::run(std::move(programs), seed);
  const auto result = check_counter_history(history.merged(), 1);
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AachScheduleSweep,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace approx::sim
