// E13 — ablation of the helping mechanism: how often do reads of
// Algorithm 1 actually return through the helping array, and what would
// happen without it?
//
// The helping path (paper lines 45–55) exists solely for wait-freedom:
// a read chasing the switch frontier under a writer flood would
// otherwise never find an unset switch. Because announcements get
// geometrically more expensive, the frontier slows down over time and
// helping engages mostly in adversarial windows. We measure, across
// read/write mixes and thread counts:
//   * the fraction of reads that return via helping,
//   * the worst single-read step count observed (bounded thanks to
//     helping; the no-helping alternative has no bound — we report the
//     longest switch-chase segment a read survived instead).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "base/kmath.hpp"
#include "base/step_recorder.hpp"
#include "bench/harness.hpp"
#include "core/kmult_counter.hpp"

namespace {

using namespace approx;

const bench::Experiment kExperiment{
    "e13",
    "helping-mechanism engagement (Algorithm 1, lines 45-55)",
    "writer threads flood increments while one reader reads in a loop; "
    "wall-clock bound per cell",
    "helping exists solely for wait-freedom: it bounds the worst read "
    "under a sustained increment flood",
    "helping engages rarely (the announce frontier slows geometrically) "
    "but the worst read stays bounded by ~switch-frontier + O(n) helping "
    "scans; larger k => slower frontier => fewer helping returns. Without "
    "the mechanism the worst case would be unbounded under a sustained "
    "flood",
    [](const bench::Options& options, bench::Report& report) {
      const auto window = std::chrono::milliseconds(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                        400 * options.scale)));
      auto& table = report.section({"writers", "k", "reads", "via helping",
                                    "help %", "worst read steps"});
      for (const unsigned writers : {1u, 3u, 7u}) {
        const unsigned n = writers + 1;
        for (const std::uint64_t k :
             {std::max<std::uint64_t>(2, base::ceil_sqrt(n)),
              std::uint64_t{8}}) {
          core::KMultCounter counter(n, k);
          std::atomic<bool> stop{false};
          std::vector<std::thread> flood;
          for (unsigned pid = 0; pid < writers; ++pid) {
            flood.emplace_back([&, pid] {
              while (!stop.load(std::memory_order_acquire)) {
                counter.increment(pid);
              }
            });
          }
          const unsigned reader = n - 1;
          std::uint64_t reads = 0;
          std::uint64_t worst_steps = 0;
          const auto deadline = std::chrono::steady_clock::now() + window;
          while (std::chrono::steady_clock::now() < deadline) {
            base::StepRecorder rec;
            {
              base::ScopedRecording on(rec);
              (void)counter.read(reader);
            }
            worst_steps = std::max(worst_steps, rec.total());
            ++reads;
          }
          stop.store(true, std::memory_order_release);
          for (auto& thread : flood) thread.join();

          const std::uint64_t helped = counter.reads_via_helping(reader);
          table.add_row({
              bench::num(std::uint64_t{writers}),
              bench::num(k),
              bench::num(reads),
              bench::num(helped),
              bench::num(reads == 0 ? 0.0
                                    : 100.0 * static_cast<double>(helped) /
                                          static_cast<double>(reads),
                         2),
              bench::num(worst_steps),
          });
        }
      }
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
