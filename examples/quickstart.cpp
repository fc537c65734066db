// quickstart — the 2-minute tour of the public API.
//
//   $ ./build/examples/quickstart
//
// Creates a k-multiplicative counter and a k-multiplicative max register,
// drives them from a few threads, and shows that the values read are
// within the promised multiplicative band of the exact values.
#include <atomic>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_max_register.hpp"

int main() {
  // --- an approximate counter ------------------------------------------
  // n = 4 processes, accuracy k = 2 (valid because k ≥ √n): reads return
  // x with v/2 ≤ x ≤ 2v for the exact count v. We use the corrected
  // schedule, whose band holds from the very first increment (the
  // paper-faithful approx::core::KMultCounterT is also available; see
  // README "Reproduction findings" for the difference).
  //
  // DirectBackend is the production build: primitives are bare atomics,
  // zero instrumentation overhead. Drop the template argument (the
  // InstrumentedBackend default) to get step recording and deterministic
  // sim scheduling for tests — same algorithm, same results.
  constexpr unsigned kThreads = 4;
  approx::core::KMultCounterCorrectedT<approx::base::DirectBackend> counter(
      kThreads, /*k=*/2);

  constexpr std::uint64_t kIncsPerThread = 100'000;
  std::vector<std::thread> threads;
  for (unsigned pid = 0; pid < kThreads; ++pid) {
    threads.emplace_back([&, pid] {
      for (std::uint64_t i = 0; i < kIncsPerThread; ++i) {
        counter.increment(pid);  // wait-free, O(1) amortized steps
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t exact = kThreads * kIncsPerThread;
  const std::uint64_t approx_count = counter.read(0);
  std::cout << "counter: exact = " << exact << ", read = " << approx_count
            << " (ratio " << static_cast<double>(approx_count) / exact
            << ", allowed [0.5, 2])\n";

  // --- an approximate max register --------------------------------------
  // m-bounded, k = 3: reads return x with v/3 ≤ x ≤ 3v for the maximum
  // value v written so far. Both operations cost O(log log m) steps.
  approx::core::KMultMaxRegisterT<approx::base::DirectBackend> high_watermark(
      /*m=*/1 << 30, /*k=*/3);
  for (const std::uint64_t sample : {12u, 900u, 48u, 31000u, 7u}) {
    high_watermark.write(sample);
  }
  std::cout << "max register: exact max = 31000, read = "
            << high_watermark.read() << " (allowed [10334, 93000])\n";
  return 0;
}
