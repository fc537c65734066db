// Accuracy-composition property tests for the stats layer: histograms
// driven under adversarial instrumented-sim schedules (and relaxed
// real-thread runs) must keep every bucket count inside the one-sided
// composed band the layer reports (per_bucket_bound() = S·k), and the
// quantile rank-error bound must hold END TO END — through a sequenced
// registry collect, the wire encode, and a decoded
// MaterializedView on the other side.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "sim/stepper.hpp"
#include "sim/workload.hpp"
#include "stats/histogram.hpp"
#include "stats/quantile.hpp"
#include "svc/wire.hpp"

namespace approx::stats {
namespace {

using shard::ErrorModel;

constexpr unsigned kN = 4;

std::string_view payload_of(const std::string& wire) {
  return std::string_view(wire).substr(svc::kFramePrefixBytes);
}

/// A sequenced pass as the frame its full encodes from.
shard::TelemetryFrame frame_of(const shard::TickRecord& tick) {
  shard::TelemetryFrame frame;
  frame.sequence = tick.pass_seq;
  frame.registry_version = tick.registry_version;
  tick.rows_into(nullptr, frame.samples);
  return frame;
}

/// Bucket of `value` for ascending finite edges `bounds` (the
/// histogram's own contract, recomputed independently as the oracle).
std::size_t oracle_bucket(const std::vector<std::uint64_t>& bounds,
                          std::uint64_t value) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

/// Per-bucket invoked/completed tallies shared with the checkers: a
/// bucket's true count at any instant lies in [completed, invoked].
struct GroundTruth {
  explicit GroundTruth(std::size_t buckets)
      : invoked(buckets), completed(buckets) {
    for (auto& c : invoked) c.store(0);
    for (auto& c : completed) c.store(0);
  }
  std::vector<std::atomic<std::uint64_t>> invoked;
  std::vector<std::atomic<std::uint64_t>> completed;
};

/// Asserts the one-sided composed band for every bucket: counts taken
/// from a snapshot whose interval is bracketed by `lo` (completed
/// before) and `hi` (invoked after): lo − S·k ≤ c ≤ hi, c never above
/// the truth.
void expect_in_band(const std::vector<std::uint64_t>& counts,
                    const std::vector<std::uint64_t>& lo,
                    const std::vector<std::uint64_t>& hi, std::uint64_t bound,
                    std::uint64_t seed) {
  ASSERT_EQ(counts.size(), lo.size());
  for (std::size_t b = 0; b < counts.size(); ++b) {
    ASSERT_LE(counts[b], hi[b]) << "seed " << seed << " bucket " << b
                                << ": overcounted (bound is one-sided)";
    ASSERT_LE(lo[b], base::sat_add(counts[b], bound))
        << "seed " << seed << " bucket " << b << ": undercounted past S·k";
  }
}

class HistogramAccuracySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramAccuracySweep, AdversarialSchedulesKeepBucketsInBand) {
  const std::uint64_t seed = GetParam();
  HistogramSpec spec;
  spec.bounds = {8, 64, 512, 4096};
  spec.k = 8;
  spec.shards = 2;
  Histogram hist(kN, spec);
  const std::uint64_t bound = hist.per_bucket_bound();
  ASSERT_EQ(bound, 16u);  // S·k composed
  GroundTruth truth(hist.bounds().size() + 1);

  std::vector<std::function<void()>> programs;
  for (unsigned pid = 0; pid + 1 < kN; ++pid) {
    programs.emplace_back([&, pid] {
      sim::Rng rng(seed * 131 + pid + 1);
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t value = rng.below(8192);
        const std::size_t b = oracle_bucket(hist.bounds(), value);
        truth.invoked[b].fetch_add(1);
        hist.record(pid, value);
        truth.completed[b].fetch_add(1);
      }
      hist.flush(pid);
    });
  }
  programs.emplace_back([&] {
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> lo(truth.completed.size());
    std::vector<std::uint64_t> hi(truth.invoked.size());
    for (int i = 0; i < 10; ++i) {
      for (std::size_t b = 0; b < lo.size(); ++b) {
        lo[b] = truth.completed[b].load();
      }
      hist.snapshot_into(kN - 1, counts);
      for (std::size_t b = 0; b < hi.size(); ++b) {
        hi[b] = truth.invoked[b].load();
      }
      expect_in_band(counts, lo, hi, bound, seed);
    }
  });
  sim::StepScheduler::run(std::move(programs), seed);

  // Quiescent + every recording pid flushed: exact.
  std::vector<std::uint64_t> counts;
  hist.snapshot_into(kN - 1, counts);
  for (std::size_t b = 0; b < counts.size(); ++b) {
    EXPECT_EQ(counts[b], truth.invoked[b].load())
        << "seed " << seed << " bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramAccuracySweep,
                         ::testing::Range<std::uint64_t>(0, 12));

/// End-to-end, deterministic: record a known distribution, collect a
/// sequenced frame, encode it as wire bytes, decode into a
/// MaterializedView, and pin the quantiles + error bounds on the far
/// side. Then drive the DELTA path with fresh observations.
TEST(StatsEndToEnd, DecodedViewPinsQuantilesAndBounds) {
  shard::RegistryT<base::DirectBackend> registry(kN);
  registry.create("scalar", {ErrorModel::kExact, 0, 1});
  HistogramSpec spec;
  spec.bounds = {10, 100, 500, 1000};
  spec.k = 16;
  spec.shards = 1;
  shard::AnyHistogram* hist =
      create_histogram<base::DirectBackend>(registry, "lat", spec);
  ASSERT_NE(hist, nullptr);
  for (std::uint64_t v = 1; v <= 1000; ++v) hist->record(0, v);
  hist->flush(0);

  shard::AggregatorT<base::DirectBackend> aggregator(registry, kN - 1);
  shard::TickRecord tick;
  aggregator.collect_tick(tick);
  const shard::TelemetryFrame frame = frame_of(tick);
  std::string wire;
  svc::encode_full_frame(frame, 0, wire);

  svc::MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), svc::ApplyResult::kApplied);
  ASSERT_EQ(view.samples().size(), 2u);
  const shard::Sample& decoded = view.samples()[0];
  EXPECT_EQ(decoded.name, "lat");
  EXPECT_EQ(decoded.model, ErrorModel::kHistogram);
  EXPECT_EQ(decoded.error_bound, 16u);
  EXPECT_EQ(decoded.bucket_bounds, spec.bounds);
  EXPECT_EQ(decoded.bucket_counts,
            (std::vector<std::uint64_t>{10, 90, 400, 500, 0}));
  EXPECT_EQ(decoded.value, 1000u);  // decoder-derived saturated sum

  const QuantileView quantiles(decoded);
  ASSERT_TRUE(quantiles.valid());
  EXPECT_EQ(quantiles.total(), 1000u);
  EXPECT_EQ(quantiles.rank_error_bound(), 16u * 5u);  // B·s end to end
  EXPECT_EQ(quantiles.p50().lower_edge, 100u);
  EXPECT_EQ(quantiles.p50().upper_edge, 500u);
  EXPECT_EQ(quantiles.p99().lower_edge, 500u);
  EXPECT_EQ(quantiles.p99().upper_edge, 1000u);
  EXPECT_EQ(quantiles.p99().rank_error, 80u);

  // Delta path: three overflow observations ride a delta and move
  // only the decoded tail bucket.
  for (int i = 0; i < 3; ++i) hist->record(0, 5000);
  hist->flush(0);
  aggregator.collect_tick(tick);
  ASSERT_EQ(tick.pass_seq, frame.sequence + 1);
  const std::uint64_t version = tick.registry_version;
  std::vector<svc::DeltaEntry> entries;
  const auto pass = registry.for_each_changed_since(
      frame.sequence, version,
      [&](std::size_t index, const std::string&, std::uint64_t value,
          std::uint64_t, const std::vector<std::uint64_t>* counts,
          const std::vector<std::string>*) {
        entries.emplace_back(index, value,
                             counts != nullptr
                                 ? *counts
                                 : std::vector<std::uint64_t>{});
      });
  ASSERT_TRUE(pass.has_value());
  ASSERT_EQ(entries.size(), 1u);  // the scalar never moved
  std::string delta;
  svc::encode_delta_frame(frame.sequence + 1, version, 0, frame.sequence,
                          entries, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), svc::ApplyResult::kApplied);
  const shard::Sample& after = view.samples()[0];
  EXPECT_EQ(after.bucket_counts,
            (std::vector<std::uint64_t>{10, 90, 400, 500, 3}));
  EXPECT_EQ(after.value, 1003u);
  const QuantileView after_view(after);
  EXPECT_EQ(after_view.quantile(1.0).upper_edge,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(after_view.quantile(1.0).overflow);
}

/// The same end-to-end pipe under genuine concurrency: real threads
/// hammer the histogram while sequenced collects stream frames into
/// a view; every decoded bucket must stay in the one-sided band and
/// the decoded total must honor the rank-error bound. After a global
/// flush, the decoded view is exact.
TEST(StatsEndToEnd, RelaxedThreadsDecodedViewStaysInBand) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    shard::RegistryT<base::RelaxedDirectBackend> registry(kN);
    HistogramSpec spec;
    spec.bounds = {16, 256, 4096};
    spec.k = 32;
    spec.shards = 2;
    shard::AnyHistogram* hist =
        create_histogram<base::RelaxedDirectBackend>(registry, "lat", spec);
    ASSERT_NE(hist, nullptr);
    const std::uint64_t bound = 64;  // S·k
    GroundTruth truth(spec.bounds.size() + 1);

    std::atomic<bool> go{false};
    std::vector<std::thread> recorders;
    for (unsigned pid = 0; pid + 1 < kN; ++pid) {
      recorders.emplace_back([&, pid] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        sim::Rng rng(seed * 131 + pid + 1);
        for (int i = 0; i < 4000; ++i) {
          const std::uint64_t value = rng.below(8192);
          const std::size_t b = oracle_bucket(spec.bounds, value);
          truth.invoked[b].fetch_add(1);
          hist->record(pid, value);
          truth.completed[b].fetch_add(1);
        }
      });
    }

    shard::AggregatorT<base::RelaxedDirectBackend> aggregator(registry,
                                                              kN - 1);
    shard::TickRecord tick;
    svc::MaterializedView view;
    std::string wire;
    std::vector<std::uint64_t> lo(truth.completed.size());
    std::vector<std::uint64_t> hi(truth.invoked.size());
    go.store(true, std::memory_order_release);
    for (int pass = 0; pass < 20; ++pass) {
      for (std::size_t b = 0; b < lo.size(); ++b) {
        lo[b] = truth.completed[b].load();
      }
      aggregator.collect_tick(tick);
      svc::encode_full_frame(frame_of(tick), 0, wire);
      ASSERT_EQ(view.apply(payload_of(wire)), svc::ApplyResult::kApplied);
      for (std::size_t b = 0; b < hi.size(); ++b) {
        hi[b] = truth.invoked[b].load();
      }
      const shard::Sample& decoded = view.samples()[0];
      expect_in_band(decoded.bucket_counts, lo, hi, bound, seed);
      // Rank-error bound end to end: the decoded total trails the true
      // total by at most B·s (and never exceeds what was invoked).
      const QuantileView quantiles(decoded);
      ASSERT_TRUE(quantiles.valid());
      std::uint64_t lo_total = 0;
      std::uint64_t hi_total = 0;
      for (std::size_t b = 0; b < lo.size(); ++b) {
        lo_total += lo[b];
        hi_total += hi[b];
      }
      ASSERT_LE(quantiles.total(), hi_total) << "seed " << seed;
      ASSERT_LE(lo_total,
                base::sat_add(quantiles.total(), quantiles.rank_error_bound()))
          << "seed " << seed;
    }
    for (std::thread& thread : recorders) thread.join();
    for (unsigned pid = 0; pid + 1 < kN; ++pid) hist->flush(pid);

    aggregator.collect_tick(tick);
    svc::encode_full_frame(frame_of(tick), 0, wire);
    ASSERT_EQ(view.apply(payload_of(wire)), svc::ApplyResult::kApplied);
    const shard::Sample& exact = view.samples()[0];
    for (std::size_t b = 0; b < exact.bucket_counts.size(); ++b) {
      EXPECT_EQ(exact.bucket_counts[b], truth.invoked[b].load())
          << "seed " << seed << " bucket " << b;
    }
  }
}

}  // namespace
}  // namespace approx::stats
