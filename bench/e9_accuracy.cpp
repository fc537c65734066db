// E9 — the accuracy envelope (definition §I, Claim III.6): measured
// read-value/exact-count ratios for the approximate counters, per decade
// of the exact count, including the bootstrap transient.
//
// Single-threaded round-robin increments with a read after every
// increment (quiescent reads ⇒ the exact count v is known), reporting
// min and max of x/v per decade of v, plus band-violation counts. This
// makes the paper schedule's documented bootstrap gap (README
// "Reproduction findings") directly visible next to the corrected
// schedule.
#include <algorithm>
#include <string>
#include <vector>

#include "base/kmath.hpp"
#include "bench/harness.hpp"
#include "core/approx.hpp"

namespace {

using namespace approx;

struct DecadeStats {
  double min_ratio = 1e300;
  double max_ratio = 0;
  std::uint64_t violations = 0;
  std::uint64_t samples = 0;
};

std::vector<DecadeStats> envelope(sim::ICounter& counter, unsigned n,
                                  std::uint64_t k, std::uint64_t total) {
  std::vector<DecadeStats> decades(7);  // v in [10^d, 10^{d+1})
  for (std::uint64_t v = 1; v <= total; ++v) {
    counter.increment(static_cast<unsigned>(v % n));
    const std::uint64_t x = counter.read(static_cast<unsigned>(v % n));
    std::size_t d = 0;
    for (std::uint64_t t = v; t >= 10; t /= 10) ++d;
    d = std::min(d, decades.size() - 1);
    DecadeStats& stats = decades[d];
    const double ratio = static_cast<double>(x) / static_cast<double>(v);
    stats.min_ratio = std::min(stats.min_ratio, ratio);
    stats.max_ratio = std::max(stats.max_ratio, ratio);
    stats.samples += 1;
    if (!core::within_mult_band(x, v, k)) stats.violations += 1;
  }
  return decades;
}

void report_rows(const std::string& name, std::uint64_t k,
                 const std::vector<DecadeStats>& decades,
                 bench::Report::Section& table) {
  for (std::size_t d = 0; d < decades.size(); ++d) {
    const DecadeStats& stats = decades[d];
    if (stats.samples == 0) continue;
    table.add_row({
        name,
        "1e" + std::to_string(d) + "..1e" + std::to_string(d + 1),
        bench::num(stats.min_ratio, 3),
        bench::num(stats.max_ratio, 3),
        "1/" + std::to_string(k) + "..." + std::to_string(k),
        bench::num(stats.violations),
        bench::num(stats.samples),
    });
  }
}

const bench::Experiment kExperiment{
    "e9",
    "accuracy envelope of the approximate counters",
    "n = 16, k = 4 = sqrt(n); quiescent read after every one of 1e6 "
    "increments",
    "band 1/k <= x/v <= k; the faithful variant's bootstrap transient "
    "(documented deviation) shows up as violations in the first decades "
    "only",
    "corrected rows: zero violations in every decade, ratios within "
    "[1/k, k]. Faithful rows: violations only in the earliest decades "
    "(x/v < 1/k while only switch_0 is set), zero afterwards",
    [](const bench::Options& options, bench::Report& report) {
      const unsigned n = 16;
      const std::uint64_t k = 4;
      const std::uint64_t total = bench::scaled_ops(options, 1'000'000);
      auto& table = report.section({"impl", "v range", "min x/v", "max x/v",
                                    "allowed", "violations", "samples"});
      {
        sim::KMultCounterAdapter faithful(n, k);
        report_rows("faithful", k, envelope(faithful, n, k, total), table);
      }
      {
        sim::KMultCounterCorrectedAdapter corrected(n, k);
        report_rows("corrected", k, envelope(corrected, n, k, total), table);
      }
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
