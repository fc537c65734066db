// Tests for Algorithm 1: the wait-free k-multiplicative-accurate
// unbounded counter on the paper's switch schedule. Each suite maps to a
// lemma/claim of the paper.
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

using base::pow_k;

// ----------------------------------------------------------------------
// ReturnValue(p, q) — paper lines 30–34
// ----------------------------------------------------------------------

TEST(ReturnValue, HandComputedCases) {
  KMultCounter counter(4, /*k=*/2);
  // ReturnValue(p, q) = k(1 + p·k^{q+1} + Σ_{l=1..q} k^{l+1}), the value
  // at switch h = qk + p.
  EXPECT_EQ(counter.value_at_position(0 * 2 + 0), 2u);       // 2·(1)
  EXPECT_EQ(counter.value_at_position(0 * 2 + 1), 2u * 3);   // 2·(1 + 1·2)
  EXPECT_EQ(counter.value_at_position(1 * 2 + 0), 2u * 5);   // 2·(1 + 4)
  EXPECT_EQ(counter.value_at_position(1 * 2 + 1), 2u * 9);   // 2·(1 + 4 + 4)
  EXPECT_EQ(counter.value_at_position(2 * 2 + 0), 2u * 13);  // 2·(1 + 4 + 8)
  EXPECT_EQ(counter.value_at_position(2 * 2 + 2), 2u * 29);  // 2·(1+4+8+2·8)
}

TEST(ReturnValue, GeneralFormula) {
  for (std::uint64_t k : {2u, 3u, 5u}) {
    KMultCounter counter(2, k);
    for (std::uint64_t q = 0; q <= 4; ++q) {
      for (std::uint64_t p = 0; p < k; ++p) {
        std::uint64_t expected = 1 + p * pow_k(k, q + 1);
        for (std::uint64_t l = 1; l <= q; ++l) expected += pow_k(k, l + 1);
        expected *= k;
        EXPECT_EQ(counter.value_at_position(q * k + p), expected)
            << "k=" << k << " p=" << p << " q=" << q;
      }
    }
  }
}

TEST(ReturnValue, MonotoneInSwitchIndex) {
  // ReturnValue must be non-decreasing in the scanned switch position
  // h = qk + p over positions p ∈ {0, 1}, matching Lemma III.2 ordering.
  KMultCounter counter(4, /*k=*/3);
  std::uint64_t previous = 0;
  for (std::uint64_t q = 0; q <= 6; ++q) {
    for (std::uint64_t p : {0u, 1u}) {
      if (q == 0 && p == 0) continue;
      const std::uint64_t value = counter.value_at_position(q * 3 + p);
      EXPECT_GE(value, previous) << "p=" << p << " q=" << q;
      previous = value;
    }
  }
}

// ----------------------------------------------------------------------
// Sequential accuracy (definition of the k-multiplicative band)
// ----------------------------------------------------------------------

TEST(KMultCounterSeq, ZeroBeforeAnyIncrement) {
  KMultCounter counter(4, 2);
  EXPECT_EQ(counter.read(0), 0u);
  EXPECT_EQ(counter.read(3), 0u);
}

TEST(KMultCounterSeq, FirstIncrementVisible) {
  KMultCounter counter(4, 2);
  counter.increment(0);
  const std::uint64_t x = counter.read(1);
  EXPECT_TRUE(within_mult_band(x, 1, 2)) << x;
}

TEST(KMultCounterSeq, SingleProcessLongRun) {
  // n = 1 ⇒ any k ≥ 2 satisfies k ≥ √n.
  KMultCounter counter(1, 2);
  for (std::uint64_t v = 1; v <= 5000; ++v) {
    counter.increment(0);
    const std::uint64_t x = counter.read(0);
    ASSERT_TRUE(within_mult_band(x, v, 2))
        << "v=" << v << " read " << x;
  }
}

TEST(KMultCounterSeq, IncrementReportsExactlyItsSwitchWins) {
  // The publish report: in a single-pid run every announce wins, so the
  // true returns count the set switches; and a read moves only on a
  // true return — a false one changes nothing any reader can see.
  for (const std::uint64_t k : {2u, 3u}) {
    KMultCounter paper(4, k);
    KMultCounterCorrected corrected(4, k);
    std::uint64_t paper_wins = 0;
    std::uint64_t corrected_wins = 0;
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t before = corrected.read(3);
      if (paper.increment(0)) ++paper_wins;
      const bool won = corrected.increment(0);
      if (won) ++corrected_wins;
      ASSERT_EQ(paper_wins, paper.first_unset_switch_unrecorded()) << i;
      ASSERT_EQ(corrected_wins, corrected.first_unset_switch_unrecorded())
          << i;
      if (!won) {
        ASSERT_EQ(corrected.read(3), before) << i;
      }
    }
    EXPECT_GT(corrected_wins, 0u);
  }
}

// Parameterized sweep over (n, k, total increments): after quiescence,
// every read from every process is within the band. Covers the paper's
// k ≥ √n regime.
class KMultCounterAccuracy
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t, int>> {
};

TEST_P(KMultCounterAccuracy, SequentialRoundRobinBand) {
  const auto [n, k_extra, total] = GetParam();
  const std::uint64_t k = base::ceil_sqrt(n) + k_extra;
  KMultCounter counter(n, std::max<std::uint64_t>(k, 2));
  ASSERT_TRUE(counter.accuracy_guaranteed());
  // REPRODUCTION NOTE: the paper's algorithm can under-report beyond the
  // band while only switch_0 is set (bootstrap transient; see
  // KMultCounterDeviation below and README "Reproduction findings"). The
  // full band is only guaranteed once v exceeds the maximum increments
  // the transient can hide, 1 + n(k−1); the upper side x ≤ v·k holds
  // always.
  const std::uint64_t bootstrap =
      1 + static_cast<std::uint64_t>(n) * (counter.k() - 1);
  auto assert_banded = [&](std::uint64_t x, std::uint64_t v) {
    ASSERT_LE(x, base::sat_mul(v, counter.k()))
        << "n=" << n << " k=" << counter.k() << " v=" << v << " x=" << x;
    if (v > bootstrap) {
      ASSERT_TRUE(within_mult_band(x, v, counter.k()))
          << "n=" << n << " k=" << counter.k() << " v=" << v << " x=" << x;
    }
  };
  for (int i = 0; i < total; ++i) {
    counter.increment(static_cast<unsigned>(i) % n);
    if (i % 37 == 0) {
      const auto v = static_cast<std::uint64_t>(i + 1);
      const std::uint64_t x = counter.read((static_cast<unsigned>(i) + 1) % n);
      assert_banded(x, v);
    }
  }
  const auto v = static_cast<std::uint64_t>(total);
  for (unsigned pid = 0; pid < n; ++pid) {
    assert_banded(counter.read(pid), v);
  }
}

// Pins the reproduction finding: with n = 25, k = 5 = √n (the paper's
// precondition met), 38 round-robin increments leave only switch_0 set,
// a read returns k = 5, and 38/5 > 5 violates the band. If this test
// ever fails, the faithful implementation no longer exhibits the paper's
// q = 0 gap — re-examine both.
TEST(KMultCounterDeviation, BootstrapTransientViolatesLowerBand) {
  constexpr unsigned kN = 25;
  const std::uint64_t k = 5;
  KMultCounter counter(kN, k);
  ASSERT_TRUE(counter.accuracy_guaranteed());
  for (int i = 0; i < 38; ++i) {
    counter.increment(static_cast<unsigned>(i) % kN);
  }
  const std::uint64_t x = counter.read(0);
  EXPECT_EQ(x, k);  // ReturnValue(0, 0)
  EXPECT_FALSE(within_mult_band(x, 38, k));      // the documented gap
  EXPECT_LE(x, base::sat_mul(38, k));            // upper side still holds
  // Once interval 1 fills, the band is restored and stays restored.
  for (int i = 38; i < 2000; ++i) {
    counter.increment(static_cast<unsigned>(i) % kN);
  }
  const std::uint64_t later = counter.read(0);
  EXPECT_TRUE(within_mult_band(later, 2000, k)) << later;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KMultCounterAccuracy,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 25u),
                       ::testing::Values<std::uint64_t>(0, 1, 5),
                       ::testing::Values(1, 10, 1000, 20000)));

// ----------------------------------------------------------------------
// Lemma III.2: switches are set in increasing index order
// ----------------------------------------------------------------------

TEST(KMultCounterInvariants, SwitchesFormAPrefix) {
  constexpr unsigned kN = 4;
  KMultCounter counter(kN, 2);
  sim::Rng rng(1234);
  for (int i = 0; i < 30000; ++i) {
    counter.increment(static_cast<unsigned>(rng.below(kN)));
    if (i % 500 == 0) {
      // Every set switch below the first unset one, nothing set above.
      const std::uint64_t first_unset =
          counter.first_unset_switch_unrecorded();
      for (std::uint64_t j = 0; j < first_unset; ++j) {
        ASSERT_TRUE(counter.switch_set_unrecorded(j)) << j;
      }
      for (std::uint64_t j = first_unset; j < first_unset + 2 * 2 + 2; ++j) {
        ASSERT_FALSE(counter.switch_set_unrecorded(j)) << j;
      }
    }
  }
}

TEST(KMultCounterInvariants, SwitchesFormAPrefixUnderConcurrency) {
  constexpr unsigned kN = 4;
  KMultCounter counter(kN, 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned pid = 0; pid < kN; ++pid) {
    threads.emplace_back([&, pid] {
      while (!stop.load(std::memory_order_acquire)) counter.increment(pid);
    });
  }
  // Concurrently sample the prefix property. A sampled gap would falsify
  // Lemma III.2. (The two peeks race benignly: switches only ever go up,
  // and we check "set below first-unset", re-reading the boundary.)
  for (int sample = 0; sample < 200; ++sample) {
    const std::uint64_t first_unset = counter.first_unset_switch_unrecorded();
    for (std::uint64_t j = 0; j < first_unset; ++j) {
      ASSERT_TRUE(counter.switch_set_unrecorded(j))
          << "gap below " << first_unset << " at " << j;
    }
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
}

// ----------------------------------------------------------------------
// Lemma III.7 / Lemma III.8: step complexity
// ----------------------------------------------------------------------

TEST(KMultCounterSteps, IncrementWorstCaseIsBounded) {
  // One CounterIncrement performs at most k test&sets + 1 write to H.
  constexpr unsigned kN = 9;
  const std::uint64_t k = 3;
  KMultCounter counter(kN, k);
  for (int i = 0; i < 50000; ++i) {
    const unsigned pid = static_cast<unsigned>(i) % kN;
    const std::uint64_t steps =
        base::steps_of([&] { counter.increment(pid); });
    ASSERT_LE(steps, k + 1) << "at op " << i;
  }
}

TEST(KMultCounterSteps, AmortizedIsConstant) {
  // Theorem III.9: for k ≥ √n the amortized step complexity is O(1).
  // Measure a long increment+read mix and check steps/op stays below a
  // small constant (far below n and log n alike).
  constexpr unsigned kN = 16;
  const std::uint64_t k = 4;  // = √n
  KMultCounter counter(kN, k);
  base::StepRecorder recorder;
  std::uint64_t ops = 0;
  {
    base::ScopedRecording on(recorder);
    sim::Rng rng(77);
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

TEST(KMultCounterSteps, RepeatReadsAreCheapViaPersistentCursor) {
  // After a read positions last_i, an immediately repeated read with no
  // new switches set costs O(1) steps (the cursor does not rescan).
  KMultCounter counter(4, 2);
  for (int i = 0; i < 1000; ++i) counter.increment(0);
  counter.read(1);  // positions the cursor
  const std::uint64_t steps = base::steps_of([&] { counter.read(1); });
  EXPECT_LE(steps, 2u);
}

// ----------------------------------------------------------------------
// Wait-freedom of reads (helping mechanism, lines 45–55)
// ----------------------------------------------------------------------

TEST(KMultCounterHelping, ReadsCompleteUnderContinuousIncrements) {
  // Incrementers run flat out while a reader performs reads; every read
  // must return (wait-freedom via helping) with a sane (banded) value
  // against the concurrent window.
  constexpr unsigned kN = 4;
  KMultCounter counter(kN, 2);
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
    const std::uint64_t x = counter.read(kN - 1);
    const std::uint64_t after = started.load(std::memory_order_relaxed);
    // Exact count at the linearization point lies in [before, after].
    // Skip the band assertion inside the bootstrap transient (see
    // KMultCounterDeviation): it is guaranteed only past 1 + n(k−1).
    if (before <= 1 + kN * (counter.k() - 1)) continue;
    const std::uint64_t v_lo = core::mult_band_v_min(x, counter.k());
    const std::uint64_t v_hi = core::mult_band_v_max(x, counter.k());
    ASSERT_LE(v_lo, after) << "read " << x << " too large for window";
    ASSERT_GE(v_hi, before) << "read " << x << " too small for window";
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : incrementers) thread.join();
}

// ----------------------------------------------------------------------
// Linearizability under concurrency (Lemma III.5) — checker-verified
// ----------------------------------------------------------------------

class KMultCounterConcurrent
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(KMultCounterConcurrent, HistoryPassesKMultChecker) {
  const auto [n, seed] = GetParam();
  const std::uint64_t k = std::max<std::uint64_t>(2, base::ceil_sqrt(n));
  KMultCounter counter(n, k);
  sim::HistoryRecorder history(n);
  // Warm past the bootstrap transient (see KMultCounterDeviation): the
  // checker verifies the paper's band, which Algorithm 1 only guarantees
  // once the early intervals have filled. The warmup increments are
  // recorded so the checker sees the complete history.
  for (std::uint64_t i = 0; i < (1 + n * (k - 1)) * 4 + 4 * k * k; ++i) {
    const auto pid = static_cast<unsigned>(i % n);
    history.record_increment(pid, [&] { counter.increment(pid); });
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      sim::Rng rng(seed * 131 + pid);
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
    Grid, KMultCounterConcurrent,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

// ----------------------------------------------------------------------
// Misc / construction
// ----------------------------------------------------------------------

TEST(KMultCounterMisc, AccuracyGuaranteeFlag) {
  EXPECT_TRUE(KMultCounter(4, 2).accuracy_guaranteed());    // √4 = 2
  EXPECT_TRUE(KMultCounter(16, 4).accuracy_guaranteed());   // √16 = 4
  EXPECT_TRUE(KMultCounter(16, 9).accuracy_guaranteed());
  EXPECT_FALSE(KMultCounter(16, 3).accuracy_guaranteed());  // 3 < 4
  EXPECT_FALSE(KMultCounter(100, 2).accuracy_guaranteed());
}

TEST(KMultCounterMisc, Accessors) {
  KMultCounter counter(7, 3);
  EXPECT_EQ(counter.num_processes(), 7u);
  EXPECT_EQ(counter.k(), 3u);
}

TEST(KMultCounterMisc, ReadersOnlyNeverSetSwitches) {
  KMultCounter counter(3, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(counter.read(static_cast<unsigned>(i) % 3), 0u);
  }
  EXPECT_EQ(counter.first_unset_switch_unrecorded(), 0u);
}

}  // namespace
}  // namespace approx::core
