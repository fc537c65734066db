// Real-thread (non-stepper) smoke tests for the DirectBackend path.
//
// The sim suite exercises the algorithms under deterministic
// InstrumentedBackend interleavings; this suite runs the *production*
// instantiations under genuine OS-scheduled contention. It is the suite
// the ThreadSanitizer CI job targets: DirectBackend removes the TLS
// instrumentation, so any data race it reports is a race in the
// algorithms themselves.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "core/approx.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_max_register.hpp"
#include "exact/collect_counter.hpp"

namespace approx {
namespace {

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

// Sequential reads by one process may regress, but only within the
// band: for exact counts v1 <= v2 at the two linearization points,
// x1 <= k*v1 and x2 >= v2/k >= v1/k >= x1/k^2. A regression beyond k^2
// (e.g. via a stale helping return) would violate linearizability.
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
  // Quiescent read: the exact count is known, the band must hold.
  const std::uint64_t v = kThreads * kIncsPerThread;
  const std::uint64_t x = counter.read(0);
  EXPECT_TRUE(core::within_mult_band(x, v, k))
      << "x = " << x << " outside [" << v / k << ", " << v * k << "]";
}

TEST(DirectThreadsSmoke, KMultCounterUnderContention) {
  core::KMultCounterT<base::DirectBackend> counter(kThreads, 2);
  increment_flood_and_check(counter, 2);
}

TEST(DirectThreadsSmoke, KMultCounterCorrectedUnderContention) {
  core::KMultCounterCorrectedT<base::DirectBackend> counter(kThreads, 2);
  increment_flood_and_check(counter, 2);
}

TEST(DirectThreadsSmoke, CollectCounterIsExactAtQuiescence) {
  exact::CollectCounterT<base::DirectBackend> counter(kThreads);
  run_threads(kThreads, [&](unsigned pid) {
    for (std::uint64_t i = 0; i < kIncsPerThread; ++i) {
      counter.increment(pid);
      if (i % 1024 == 0) (void)counter.read();
    }
  });
  EXPECT_EQ(counter.read(), kThreads * kIncsPerThread);
}

TEST(DirectThreadsSmoke, KMultMaxRegisterUnderContention) {
  constexpr std::uint64_t kM = std::uint64_t{1} << 30;
  constexpr std::uint64_t kK = 3;
  core::KMultMaxRegisterT<base::DirectBackend> reg(kM, kK);
  std::atomic<std::uint64_t> band_failures{0};
  run_threads(kThreads, [&](unsigned pid) {
    std::uint64_t max_written = 0;
    for (std::uint64_t i = 1; i <= kIncsPerThread; ++i) {
      const std::uint64_t value = (i * (pid + 1)) % kM;
      reg.write(value);
      max_written = std::max(max_written, value);
      if (i % 256 == 0) {
        // The register's maximum is at least this thread's own maximum;
        // the read may only overshoot by the band factor.
        const std::uint64_t x = reg.read();
        if (x != 0 && max_written != 0 &&
            x * kK < max_written) {  // x < own_max / k: impossible
          band_failures.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(band_failures.load(), 0u);
}

TEST(DirectThreadsSmoke, ReadersProgressUnderWriterFlood) {
  // Wait-freedom smoke: a dedicated reader completes a fixed number of
  // reads while writers flood increments nonstop.
  core::KMultCounterCorrectedT<base::DirectBackend> counter(kThreads, 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned pid = 0; pid + 1 < kThreads; ++pid) {
    writers.emplace_back([&, pid] {
      while (!stop.load(std::memory_order_acquire)) counter.increment(pid);
    });
  }
  // Wait until the flood is actually visible: the reader can otherwise
  // finish its whole loop before the writer threads are even scheduled.
  while (counter.read(kThreads - 1) == 0) std::this_thread::yield();
  std::uint64_t previous = 0;
  std::uint64_t band_regressions = 0;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t x = counter.read(kThreads - 1);
    // Helping returns may regress within the band (see band_consistent);
    // anything beyond k^2 would be a linearizability violation.
    if (!band_consistent(previous, x, 2)) ++band_regressions;
    previous = x;
  }
  stop.store(true, std::memory_order_release);
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(band_regressions, 0u);
  EXPECT_GT(previous, 0u);
}

}  // namespace
}  // namespace approx
