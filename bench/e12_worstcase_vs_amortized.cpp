// E12 — the worst-case/amortized dichotomy (§VI, Theorem fallback to
// Jayanti–Tan–Toueg): relaxation does NOT improve the worst-case step
// complexity of unbounded counters (Ω(n) via JTT; Ω(min(n, log₂ log_k m))
// for m-bounded via Theorem V.4), even though it makes the *amortized*
// complexity constant. This bench also evaluates the read_fast extension
// (the §VI open question on bounded-counter worst case).
//
// We grow the execution (total increments) and measure:
//   * the worst single cold read — a reader whose persistent cursor is
//     fresh (models the worst-case operation the adversary targets);
//   * the amortized steps/op over the whole execution.
#include "base/kmath.hpp"
#include "base/step_recorder.hpp"
#include "bench/harness.hpp"
#include "core/kmult_counter.hpp"

namespace {

using namespace approx;

const bench::Experiment kExperiment{
    "e12",
    "worst-case vs amortized reads of the k-multiplicative counter "
    "(§VI discussion)",
    "n = 8, k = 3; cold read = fresh process cursor (worst case); fast "
    "read = binary-search extension",
    "worst-case read cost is NOT O(1) even though amortized cost is",
    "cold linear reads grow ~2 per interval (Theta(log_k v) positions) — "
    "worst-case cost is NOT O(1), consistent with the paper's worst-case "
    "lower bounds; read_fast tracks 2*log2(S); amortized stays ~1 "
    "regardless",
    [](const bench::Options& options, bench::Report& report) {
      const unsigned n = 8;
      const std::uint64_t k = 3;
      auto& table = report.section({"total incs", "switches set",
                                    "cold linear rd", "fast rd",
                                    "amortized steps/op", "2*log2(S) ref"});
      for (const std::uint64_t base_total :
           {std::uint64_t{100}, std::uint64_t{1000}, std::uint64_t{10'000},
            std::uint64_t{100'000}, std::uint64_t{1'000'000},
            std::uint64_t{10'000'000}}) {
        const std::uint64_t total = bench::scaled_ops(options, base_total);
        core::KMultCounterCorrected counter(n, k);
        base::StepRecorder inc_rec;
        {
          base::ScopedRecording on(inc_rec);
          // pids 1..n-1 increment; pid 0 stays cold for the worst-case
          // read.
          for (std::uint64_t i = 0; i < total; ++i) {
            counter.increment(1 + static_cast<unsigned>(i % (n - 1)));
          }
        }
        const std::uint64_t boundary = counter.first_unset_switch_unrecorded();
        const std::uint64_t cold_read =
            base::steps_of([&] { (void)counter.read(0); });
        // read_fast keeps no cursor, so it is "cold" by construction.
        const std::uint64_t fast_read =
            base::steps_of([&] { (void)counter.read_fast(0); });
        const double amortized =
            static_cast<double>(inc_rec.total() + cold_read + fast_read) /
            static_cast<double>(total + 2);
        table.add_row({
            bench::num(total),
            bench::num(boundary),
            bench::num(cold_read),
            bench::num(fast_read),
            bench::num(amortized, 3),
            bench::num(std::uint64_t{2 * base::ceil_log2(boundary + 2)}),
        });
      }
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
