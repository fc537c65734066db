// telemetry_counters — the scalable-statistics-counters scenario that
// motivates approximate counting (Dice–Lev–Moir, cited as [10] by the
// paper): many worker threads count events at line rate; a monitoring
// thread reads the counters periodically and only needs order-of-
// magnitude accuracy.
//
//   $ ./build/examples/telemetry_counters
//
// Three event classes are tracked by three approximate counters; workers
// hammer them while the monitor prints periodic snapshots with the
// guaranteed accuracy band, then a final exact-vs-approximate report.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "core/kmult_counter.hpp"
#include "sim/workload.hpp"

namespace {

constexpr unsigned kWorkers = 4;
constexpr std::uint64_t kK = 2;  // = ceil(sqrt(4)): band is [v/2, 2v]

struct EventClass {
  const char* name;
  double rate;  // probability an event belongs to this class
};

constexpr EventClass kClasses[] = {
    {"requests", 0.70},
    {"cache_misses", 0.25},
    {"errors", 0.05},
};

}  // namespace

int main() {
  // Production build: DirectBackend counters are bare atomics on the
  // increment path — the monitoring overhead telemetry cannot afford is
  // exactly what the backend-policy split removes.
  using TelemetryCounter =
      approx::core::KMultCounterCorrectedT<approx::base::DirectBackend>;

  TelemetryCounter requests(kWorkers, kK);
  TelemetryCounter cache_misses(kWorkers, kK);
  TelemetryCounter errors(kWorkers, kK);
  TelemetryCounter* counters[] = {&requests, &cache_misses, &errors};

  // Exact shadow tallies (atomic, outside the measured data structures)
  // so the final report can show true counts.
  std::atomic<std::uint64_t> exact[3] = {{0}, {0}, {0}};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (unsigned pid = 0; pid < kWorkers; ++pid) {
    workers.emplace_back([&, pid] {
      approx::sim::Rng rng(pid + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const double roll =
            static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        double acc = 0;
        for (int c = 0; c < 3; ++c) {
          acc += kClasses[c].rate;
          if (roll < acc) {
            counters[c]->increment(pid);
            exact[c].fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  // Monitor thread view: periodic approximate snapshots. Reads are
  // wait-free — they complete even though all workers increment nonstop.
  for (int tick = 1; tick <= 5; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::cout << "tick " << tick << ":";
    for (int c = 0; c < 3; ++c) {
      // The monitor uses pid 0's read cursor; any pid works.
      std::cout << "  " << kClasses[c].name << "~"
                << counters[c]->read(0);
    }
    std::cout << '\n';
  }
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();

  std::cout << "\nfinal report (band [v/" << kK << ", " << kK << "v]):\n";
  for (int c = 0; c < 3; ++c) {
    const std::uint64_t v = exact[c].load(std::memory_order_relaxed);
    const std::uint64_t x = counters[c]->read(0);
    const double ratio =
        v == 0 ? 1.0 : static_cast<double>(x) / static_cast<double>(v);
    std::cout << "  " << std::setw(12) << kClasses[c].name << "  exact="
              << std::setw(10) << v << "  approx=" << std::setw(10) << x
              << "  ratio=" << std::fixed << std::setprecision(3) << ratio
              << (ratio >= 1.0 / kK && ratio <= kK ? "  [in band]"
                                                   : "  [OUT OF BAND]")
              << '\n';
  }
  return 0;
}
