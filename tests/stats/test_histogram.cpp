// Tests for the wait-free fixed-bucket histogram
// (src/stats/histogram.hpp): bucket-edge semantics, spec sanitizing,
// the composed per-bucket bound, flush-then-exact, the edge generator,
// and the registry's vector-entry glue (create_histogram / collect).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "shard/registry.hpp"
#include "stats/histogram.hpp"

namespace approx::stats {
namespace {

using shard::ErrorModel;

constexpr unsigned kN = 4;

HistogramSpec latency_spec() {
  HistogramSpec spec;
  spec.bounds = {10, 100, 500, 1000};
  spec.k = 16;
  spec.shards = 1;
  return spec;
}

TEST(Histogram, BucketIndexEdgeSemantics) {
  HistogramT<base::DirectBackend> hist(kN, latency_spec());
  ASSERT_EQ(hist.num_buckets(), 5u);  // 4 finite edges + overflow
  // A value equal to an edge belongs to that edge's bucket; values
  // above the last edge land in the overflow bucket.
  EXPECT_EQ(hist.bucket_index(0), 0u);
  EXPECT_EQ(hist.bucket_index(10), 0u);
  EXPECT_EQ(hist.bucket_index(11), 1u);
  EXPECT_EQ(hist.bucket_index(100), 1u);
  EXPECT_EQ(hist.bucket_index(101), 2u);
  EXPECT_EQ(hist.bucket_index(1000), 3u);
  EXPECT_EQ(hist.bucket_index(1001), 4u);
  EXPECT_EQ(hist.bucket_index(std::numeric_limits<std::uint64_t>::max()), 4u);
}

TEST(Histogram, RecordAndFlushPassTheirBucketsReportUp) {
  // latency_spec(): S = 1, k = 16 over 4 pids, so each bucket writes
  // pid 0's slot once per 16/4 + 1 = 5 records landing in it.
  HistogramT<base::DirectBackend> hist(kN, latency_spec());
  std::uint64_t writes = 0;
  for (int i = 0; i < 12; ++i) writes += hist.record(0, 5) ? 1 : 0;    // b0
  for (int i = 0; i < 7; ++i) writes += hist.record(0, 5000) ? 1 : 0;  // b4
  EXPECT_EQ(writes, 12u / 5 + 7u / 5);
  EXPECT_TRUE(hist.flush(0));  // both buckets had a batch pending
  EXPECT_FALSE(hist.flush(0));
  EXPECT_FALSE(hist.flush(1));
  std::vector<std::uint64_t> counts;
  hist.snapshot_into(0, counts);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{12, 0, 0, 0, 7}));
}

TEST(Histogram, SpecSanitizedSortedDedupedClamped) {
  HistogramSpec spec;
  spec.bounds = {500, 10, 10, 1000, 100, 500};
  HistogramT<base::DirectBackend> hist(kN, spec);
  EXPECT_EQ(hist.bounds(), (std::vector<std::uint64_t>{10, 100, 500, 1000}));

  // An absurd edge count is clamped to the shared wire ceiling; the
  // overflow bucket absorbs whatever the clamp cut off.
  HistogramSpec huge;
  for (std::uint64_t e = 1; e <= kMaxHistogramBuckets + 64; ++e) {
    huge.bounds.push_back(e);
  }
  HistogramT<base::DirectBackend> clamped(kN, huge);
  EXPECT_EQ(clamped.bounds().size(), kMaxHistogramBuckets - 1);
  EXPECT_EQ(clamped.num_buckets(), kMaxHistogramBuckets);
}

TEST(Histogram, PerBucketBoundIsComposedShardsTimesK) {
  HistogramSpec spec = latency_spec();
  spec.k = 8;
  spec.shards = 4;
  HistogramT<base::DirectBackend> hist(kN, spec);
  EXPECT_EQ(hist.per_bucket_bound(), 32u);  // S·k
  EXPECT_EQ(hist.num_shards(), 4u);
  EXPECT_EQ(hist.k(), 8u);
}

TEST(Histogram, FlushedQuiescentSnapshotIsExact) {
  HistogramT<base::DirectBackend> hist(kN, latency_spec());
  for (std::uint64_t v = 1; v <= 1000; ++v) hist.record(0, v);
  hist.flush(0);
  std::vector<std::uint64_t> counts;
  hist.snapshot_into(0, counts);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{10, 90, 400, 500, 0}));
  EXPECT_EQ(hist.total(0), 1000u);
}

TEST(Histogram, UnflushedCountsOnlyUndercountWithinBound) {
  HistogramSpec spec = latency_spec();
  spec.k = 16;
  spec.shards = 2;
  HistogramT<base::DirectBackend> hist(kN, spec);
  const std::uint64_t bound = hist.per_bucket_bound();
  ASSERT_EQ(bound, 32u);
  std::vector<std::uint64_t> truth(hist.num_buckets(), 0);
  for (std::uint64_t v = 1; v <= 2000; ++v) {
    const std::uint64_t value = (v * 37) % 1500;
    ++truth[hist.bucket_index(value)];
    hist.record(0, value);
  }
  std::vector<std::uint64_t> counts;
  hist.snapshot_into(0, counts);
  ASSERT_EQ(counts.size(), truth.size());
  for (std::size_t b = 0; b < counts.size(); ++b) {
    // One-sided: never overcounts, trails by at most S·k.
    EXPECT_LE(counts[b], truth[b]) << "bucket " << b;
    EXPECT_GE(counts[b] + bound, truth[b]) << "bucket " << b;
  }
}

TEST(Histogram, ExponentialBoundsGeneratorShapes) {
  EXPECT_EQ(exponential_bounds(10, 2.0, 5),
            (std::vector<std::uint64_t>{10, 20, 40, 80, 160}));
  // first = 0 is promoted to 1; factor < 1 is promoted to 1.0, which
  // keeps ascending by +1 steps instead of stalling.
  EXPECT_EQ(exponential_bounds(0, 0.5, 4),
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
  // Saturation: the tail collapses to one max edge (deduped).
  const auto sat = exponential_bounds(1ull << 60, 16.0, 6);
  ASSERT_GE(sat.size(), 2u);
  EXPECT_EQ(sat.back(), std::numeric_limits<std::uint64_t>::max());
  for (std::size_t i = 1; i < sat.size(); ++i) {
    EXPECT_LT(sat[i - 1], sat[i]);  // strictly ascending
  }
}

TEST(HistogramRegistry, CreateCollectAndChangeTracking) {
  shard::RegistryT<base::DirectBackend> registry(kN);
  registry.create("scalar_a", {ErrorModel::kExact, 0, 1});
  shard::AnyHistogram* hist = create_histogram<base::DirectBackend>(
      registry, "latency", latency_spec());
  ASSERT_NE(hist, nullptr);
  // Idempotent on the name (first spec wins), like RegistryT::create.
  EXPECT_EQ(create_histogram<base::DirectBackend>(registry, "latency",
                                                  latency_spec()),
            hist);
  EXPECT_EQ(registry.lookup_histogram("latency"), hist);
  // A scalar name cannot be shadowed by a histogram, or vice versa.
  EXPECT_EQ(create_histogram<base::DirectBackend>(registry, "scalar_a",
                                                  latency_spec()),
            nullptr);

  for (std::uint64_t v = 1; v <= 1000; ++v) hist->record(0, v);
  hist->flush(0);
  const auto samples = registry.snapshot_all(1);
  ASSERT_EQ(samples.size(), 2u);
  // Name-sorted flat table: "latency" < "scalar_a".
  EXPECT_EQ(samples[0].name, "latency");
  EXPECT_EQ(samples[0].model, ErrorModel::kHistogram);
  EXPECT_EQ(samples[0].error_bound, 16u);  // per-BUCKET slack S·k
  EXPECT_EQ(samples[0].bucket_bounds,
            (std::vector<std::uint64_t>{10, 100, 500, 1000}));
  EXPECT_EQ(samples[0].bucket_counts,
            (std::vector<std::uint64_t>{10, 90, 400, 500, 0}));
  EXPECT_EQ(samples[0].value, 1000u);  // derived saturated count sum
  EXPECT_EQ(samples[1].name, "scalar_a");
  EXPECT_TRUE(samples[1].bucket_counts.empty());
  EXPECT_EQ(std::string(shard::error_model_name(ErrorModel::kHistogram)),
            "hist");

  // Change tracking compares whole bucket vectors: a sequenced pass
  // after no recording must NOT report the histogram as changed.
  shard::TickRecord tick;
  registry.collect_tick(1, 1, tick);
  const std::uint64_t cached = tick.registry_version;
  int changed = 0;
  auto walk = [&](std::size_t, const std::string&, std::uint64_t,
                  std::uint64_t, const std::vector<std::uint64_t>*,
                  const std::vector<std::string>*) {
    ++changed;
  };
  ASSERT_TRUE(registry.for_each_changed_since(1, cached, walk).has_value());
  EXPECT_EQ(changed, 0) << "idle pass reported changes";

  // One recorded value: exactly the histogram row changes, and the
  // walk hands the encoder its bucket vector.
  hist->record(0, 5);
  hist->flush(0);
  registry.collect_tick(1, 2, tick);
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{2, 1}));
  ASSERT_EQ(tick.vectors.size(), 1u);
  EXPECT_EQ(tick.vectors[0].counts[0], 11u);
  EXPECT_EQ(tick.values[0], 1001u);  // the derived count sum
  int hist_changes = 0;
  auto walk2 = [&](std::size_t index, const std::string& name, std::uint64_t,
                   std::uint64_t changed_seq,
                   const std::vector<std::uint64_t>* counts,
                   const std::vector<std::string>*) {
    ++hist_changes;
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(name, "latency");
    EXPECT_EQ(changed_seq, 2u);
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ((*counts)[0], 11u);
  };
  ASSERT_TRUE(registry.for_each_changed_since(1, cached, walk2).has_value());
  EXPECT_EQ(hist_changes, 1);
}

}  // namespace
}  // namespace approx::stats
