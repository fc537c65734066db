// Real-thread smoke tests for the RelaxedDirectBackend path — one per
// relaxed algorithm.
//
// The memory-order policy (base/backend.hpp) maps each primitive site's
// OrderRole to the weakest ordering its algorithm's audit claims is
// sufficient. This suite is the race check for those claims: it runs the
// relaxed instantiations under genuine OS-scheduled contention, and the
// ThreadSanitizer CI job (which targets "integration") verifies that
// every release/acquire pairing the audits rely on actually exists —
// a mis-mapped role (e.g. a relaxed load where an acquire is needed to
// see a published record) surfaces as a TSan happens-before violation
// here. The assertions themselves re-check the quiescent/banded
// correctness facts alongside.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "core/approx.hpp"
#include "core/kadditive_counter.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_max_register.hpp"
#include "core/kmult_unbounded_max_register.hpp"
#include "exact/aach_counter.hpp"
#include "exact/bounded_max_register.hpp"
#include "exact/collect_counter.hpp"
#include "exact/fetch_add_counter.hpp"
#include "exact/snapshot_counter.hpp"
#include "exact/unbounded_max_register.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "shard/sharded_counter.hpp"

namespace approx {
namespace {

using base::RelaxedDirectBackend;

constexpr unsigned kThreads = 4;
constexpr std::uint64_t kIncsPerThread = 20'000;

// Launches one thread per pid, synchronized start.
template <typename Body>
void run_threads(unsigned num_threads, Body&& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (unsigned pid = 0; pid < num_threads; ++pid) {
    threads.emplace_back([&, pid] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(pid);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
}

// See tests/integration/test_direct_threads.cpp: sequential reads by one
// process may regress only within the k² band.
bool band_consistent(std::uint64_t previous, std::uint64_t next,
                     std::uint64_t k) {
  return next * k * k >= previous;
}

template <typename Counter>
void increment_flood_and_check(Counter& counter, std::uint64_t k) {
  std::atomic<std::uint64_t> band_regressions{0};
  run_threads(kThreads, [&](unsigned pid) {
    std::uint64_t previous = 0;
    for (std::uint64_t i = 0; i < kIncsPerThread; ++i) {
      counter.increment(pid);
      if (i % 512 == 0) {
        const std::uint64_t x = counter.read(pid);
        if (!band_consistent(previous, x, k)) band_regressions.fetch_add(1);
        previous = x;
      }
    }
  });
  EXPECT_EQ(band_regressions.load(), 0u);
  const std::uint64_t v = kThreads * kIncsPerThread;
  const std::uint64_t x = counter.read(0);
  EXPECT_TRUE(core::within_mult_band(x, v, k))
      << "x = " << x << " outside [" << v / k << ", " << v * k << "]";
}

TEST(RelaxedThreadsSmoke, KMultCounterUnderContention) {
  core::KMultCounterT<RelaxedDirectBackend> counter(kThreads, 2);
  increment_flood_and_check(counter, 2);
}

TEST(RelaxedThreadsSmoke, KMultCounterCorrectedUnderContention) {
  core::KMultCounterCorrectedT<RelaxedDirectBackend> counter(kThreads, 2);
  increment_flood_and_check(counter, 2);
}

TEST(RelaxedThreadsSmoke, ReadFastUnderWriterFlood) {
  // The binary-search read shares the helping handshake (release H-write
  // / acquire H-read) with the linear read; flood it.
  core::KMultCounterCorrectedT<RelaxedDirectBackend> counter(kThreads, 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned pid = 0; pid + 1 < kThreads; ++pid) {
    writers.emplace_back([&, pid] {
      while (!stop.load(std::memory_order_acquire)) counter.increment(pid);
    });
  }
  while (counter.read_fast(kThreads - 1) == 0) std::this_thread::yield();
  std::uint64_t previous = 0;
  std::uint64_t band_regressions = 0;
  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t x = counter.read_fast(kThreads - 1);
    if (!band_consistent(previous, x, 2)) ++band_regressions;
    previous = x;
  }
  stop.store(true, std::memory_order_release);
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(band_regressions, 0u);
  EXPECT_GT(previous, 0u);
}

TEST(RelaxedThreadsSmoke, CollectCounterIsExactAtQuiescence) {
  exact::CollectCounterT<RelaxedDirectBackend> counter(kThreads);
  run_threads(kThreads, [&](unsigned pid) {
    for (std::uint64_t i = 0; i < kIncsPerThread; ++i) {
      counter.increment(pid);
      if (i % 1024 == 0) (void)counter.read();
    }
  });
  EXPECT_EQ(counter.read(), kThreads * kIncsPerThread);
}

TEST(RelaxedThreadsSmoke, KAdditiveCounterStaysInBandAndFlushesExact) {
  const std::uint64_t k = 64;
  core::KAdditiveCounterT<RelaxedDirectBackend> counter(kThreads, k);
  std::atomic<std::uint64_t> band_failures{0};
  run_threads(kThreads, [&](unsigned pid) {
    std::uint64_t mine = 0;
    for (std::uint64_t i = 0; i < kIncsPerThread; ++i) {
      counter.increment(pid);
      ++mine;
      if (i % 512 == 0) {
        // Own increments minus the k hideable ones must be visible.
        const std::uint64_t x = counter.read();
        if (base::sat_add(x, k) < mine) band_failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(band_failures.load(), 0u);
  for (unsigned pid = 0; pid < kThreads; ++pid) counter.flush(pid);
  EXPECT_EQ(counter.read(), kThreads * kIncsPerThread);
}

TEST(RelaxedThreadsSmoke, FetchAddCounterIsExactAtQuiescence) {
  exact::FetchAddCounterT<RelaxedDirectBackend> counter;
  run_threads(kThreads, [&](unsigned) {
    for (std::uint64_t i = 0; i < kIncsPerThread; ++i) {
      counter.increment();
      if (i % 1024 == 0) (void)counter.read();
    }
  });
  EXPECT_EQ(counter.read(), kThreads * kIncsPerThread);
}

TEST(RelaxedThreadsSmoke, AachCounterIsExactAtQuiescence) {
  exact::AachCounterT<RelaxedDirectBackend> counter(kThreads);
  const std::uint64_t incs = 2'000;  // polylog ops are costlier; keep tight
  run_threads(kThreads, [&](unsigned pid) {
    for (std::uint64_t i = 0; i < incs; ++i) {
      counter.increment(pid);
      if (i % 128 == 0) (void)counter.read();
    }
  });
  EXPECT_EQ(counter.read(), kThreads * incs);
}

TEST(RelaxedThreadsSmoke, SnapshotCounterIsExactAtQuiescence) {
  exact::SnapshotCounterT<RelaxedDirectBackend> counter(kThreads);
  const std::uint64_t incs = 2'000;  // embedded scans are quadratic
  run_threads(kThreads, [&](unsigned pid) {
    for (std::uint64_t i = 0; i < incs; ++i) {
      counter.increment(pid);
      if (i % 64 == 0) (void)counter.read();
    }
  });
  EXPECT_EQ(counter.read(), kThreads * incs);
}

TEST(RelaxedThreadsSmoke, BoundedMaxRegisterNeverLosesOwnMax) {
  constexpr std::uint64_t kM = std::uint64_t{1} << 24;
  exact::BoundedMaxRegisterT<RelaxedDirectBackend> reg(kM);
  std::atomic<std::uint64_t> lost_writes{0};
  run_threads(kThreads, [&](unsigned pid) {
    std::uint64_t own_max = 0;
    for (std::uint64_t i = 1; i <= kIncsPerThread; ++i) {
      const std::uint64_t value = (i * 2654435761u + pid) % kM;
      reg.write(value);
      own_max = std::max(own_max, value);
      if (i % 128 == 0 && reg.read() < own_max) lost_writes.fetch_add(1);
    }
  });
  EXPECT_EQ(lost_writes.load(), 0u);
  EXPECT_GT(reg.read(), 0u);
}

TEST(RelaxedThreadsSmoke, UnboundedMaxRegisterNeverLosesOwnMax) {
  exact::UnboundedMaxRegisterT<RelaxedDirectBackend> reg;
  std::atomic<std::uint64_t> lost_writes{0};
  run_threads(kThreads, [&](unsigned pid) {
    std::uint64_t own_max = 0;
    for (std::uint64_t i = 1; i <= 10'000; ++i) {
      const std::uint64_t value = i * (pid + 1) * 977u;
      reg.write(value);
      own_max = std::max(own_max, value);
      if (i % 128 == 0 && reg.read() < own_max) lost_writes.fetch_add(1);
    }
  });
  EXPECT_EQ(lost_writes.load(), 0u);
}

TEST(RelaxedThreadsSmoke, KMultMaxRegistersStayBanded) {
  constexpr std::uint64_t kM = std::uint64_t{1} << 30;
  constexpr std::uint64_t kK = 3;
  core::KMultMaxRegisterT<RelaxedDirectBackend> bounded(kM, kK);
  core::KMultUnboundedMaxRegisterT<RelaxedDirectBackend> unbounded(kK);
  std::atomic<std::uint64_t> band_failures{0};
  run_threads(kThreads, [&](unsigned pid) {
    std::uint64_t own_max = 0;
    for (std::uint64_t i = 1; i <= kIncsPerThread; ++i) {
      const std::uint64_t value = (i * (pid + 1)) % kM;
      bounded.write(value);
      unbounded.write(value);
      own_max = std::max(own_max, value);
      if (i % 256 == 0 && own_max != 0) {
        // x < own_max / k is impossible for a k-banded max register.
        if (bounded.read() * kK < own_max) band_failures.fetch_add(1);
        if (unbounded.read() * kK < own_max) band_failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(band_failures.load(), 0u);
}

TEST(RelaxedThreadsSmoke, ShardedCounterUnderContention) {
  shard::ShardedCounterT<core::KMultCounterCorrectedT, RelaxedDirectBackend>
      counter(kThreads, 2, 2);
  increment_flood_and_check(counter, 2);
}

TEST(RelaxedThreadsSmoke, RegistryAndAggregatorFleet) {
  // The full relaxed telemetry stack: racing get-or-create workers, a
  // background aggregator on its own pid, release/acquire frame
  // publication observed from the workers.
  shard::RegistryT<RelaxedDirectBackend> fleet(kThreads + 1);
  shard::AggregatorT<RelaxedDirectBackend> aggregator(fleet, kThreads);
  aggregator.start(std::chrono::milliseconds(1));
  run_threads(kThreads, [&](unsigned pid) {
    for (std::uint64_t i = 0; i < 5'000; ++i) {
      shard::AnyCounter& mult = fleet.create(
          "m", {shard::ErrorModel::kMultiplicative, 2, 2});
      shard::AnyCounter& exact_counter =
          fleet.create("x", {shard::ErrorModel::kExact, 0, 2});
      mult.increment(pid);
      exact_counter.increment(pid);
      if (i % 512 == 0) {
        const std::uint64_t seen = aggregator.frames_collected();
        (void)seen;
        (void)aggregator.latest();
      }
    }
  });
  aggregator.stop();
  const shard::TelemetryFrame frame = aggregator.collect();
  ASSERT_EQ(frame.samples.size(), 2u);
  const std::uint64_t total = kThreads * 5'000;
  EXPECT_TRUE(core::within_mult_band(frame.samples[0].value, total,
                                     frame.samples[0].error_bound));
  EXPECT_EQ(frame.samples[1].value, total);
}

}  // namespace
}  // namespace approx
