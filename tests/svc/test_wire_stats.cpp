// Decode-hardening and round-trip tests for the vector (histogram)
// wire entries (src/svc/wire.hpp): truncation at every length, byte-flip
// fuzz of FULL and DELTA frames, oversized bucket counts, bad edge
// encodings and delta/row shape mismatches — an untrusted frame may be
// rejected, never misdecoded, and a rejected frame leaves the view
// untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "svc/wire.hpp"

namespace approx::svc {
namespace {

using shard::ErrorModel;
using shard::Sample;
using shard::TelemetryFrame;

std::string_view payload_of(const std::string& wire) {
  return std::string_view(wire).substr(kFramePrefixBytes);
}

Sample histogram_sample(const std::string& name) {
  Sample sample;
  sample.name = name;
  sample.model = ErrorModel::kHistogram;
  sample.error_bound = 16;
  sample.bucket_bounds = {10, 100, 500, 1000};
  sample.bucket_counts = {10, 90, 400, 500, 0};
  sample.value = 1000;
  return sample;
}

/// A mixed fleet: scalar, histogram, scalar — vector entries must
/// interleave cleanly with scalar ones.
TelemetryFrame mixed_frame(std::uint64_t sequence,
                           std::uint64_t registry_version) {
  TelemetryFrame frame;
  frame.sequence = sequence;
  frame.registry_version = registry_version;
  Sample a;
  a.name = "aa_scalar";
  a.model = ErrorModel::kExact;
  a.value = 7;
  frame.samples.push_back(a);
  frame.samples.push_back(histogram_sample("mm_hist"));
  Sample z;
  z.name = "zz_scalar";
  z.model = ErrorModel::kAdditive;
  z.error_bound = 64;
  z.value = 123456;
  frame.samples.push_back(z);
  return frame;
}

/// Hand-assembled payload header (no stream prefix).
std::string raw_header(FrameKind kind, std::uint64_t sequence,
                       std::uint64_t registry_version) {
  std::string out;
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(kind));
  append_uvarint(out, sequence);
  append_uvarint(out, registry_version);
  append_uvarint(out, 0);  // collect_ns
  return out;
}

TEST(WireStats, MixedFullRoundTripIncludingExtremes) {
  TelemetryFrame frame = mixed_frame(3, 2);
  // Saturation paths: huge counts must decode with a saturated sum,
  // and a max-edge bound must survive the diff encoding.
  Sample extreme = histogram_sample("xx_extreme");
  extreme.bucket_bounds = {1, std::numeric_limits<std::uint64_t>::max()};
  extreme.bucket_counts = {std::numeric_limits<std::uint64_t>::max(),
                           std::numeric_limits<std::uint64_t>::max(), 3};
  frame.samples.push_back(extreme);
  std::string wire;
  encode_full_frame(frame, 77, wire);

  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  ASSERT_EQ(view.samples().size(), 4u);
  const Sample& hist = view.samples()[1];
  EXPECT_EQ(hist.name, "mm_hist");
  EXPECT_EQ(hist.model, ErrorModel::kHistogram);
  EXPECT_EQ(hist.error_bound, 16u);
  EXPECT_EQ(hist.bucket_bounds, (std::vector<std::uint64_t>{10, 100, 500,
                                                            1000}));
  EXPECT_EQ(hist.bucket_counts,
            (std::vector<std::uint64_t>{10, 90, 400, 500, 0}));
  EXPECT_EQ(hist.value, 1000u);
  const Sample& xx = view.samples()[3];
  EXPECT_EQ(xx.bucket_bounds[1], std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(xx.value, std::numeric_limits<std::uint64_t>::max());  // saturated
  // Scalar neighbors are untouched by the vector entries between them.
  EXPECT_EQ(view.samples()[0].value, 7u);
  EXPECT_EQ(view.samples()[2].value, 123456u);
}

TEST(WireStats, TruncationAtEveryLengthRejectsAndLeavesViewUntouched) {
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  const std::string_view payload = payload_of(wire);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    MaterializedView view;
    EXPECT_EQ(view.apply(payload.substr(0, len)), ApplyResult::kCorrupt)
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_TRUE(view.samples().empty());
    EXPECT_EQ(view.sequence(), 0u);
  }
}

TEST(WireStats, ByteFlipFuzzNeverMisdecodes) {
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  const std::string payload(payload_of(wire));
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = payload;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ flip);
      MaterializedView view;
      const ApplyResult result = view.apply(mutated);
      if (result != ApplyResult::kApplied) {
        // Rejected: the view must be untouched.
        EXPECT_TRUE(view.samples().empty()) << "pos " << pos;
        continue;
      }
      // A flip that survives (e.g. inside a count varint) must still
      // decode into a structurally consistent view: every histogram
      // entry keeps B counts to B−1 finite ascending edges.
      for (const Sample& sample : view.samples()) {
        if (sample.model != ErrorModel::kHistogram) {
          EXPECT_TRUE(sample.bucket_counts.empty());
          continue;
        }
        ASSERT_GE(sample.bucket_counts.size(), 2u) << "pos " << pos;
        ASSERT_EQ(sample.bucket_counts.size(),
                  sample.bucket_bounds.size() + 1)
            << "pos " << pos;
        for (std::size_t e = 1; e < sample.bucket_bounds.size(); ++e) {
          ASSERT_LT(sample.bucket_bounds[e - 1], sample.bucket_bounds[e])
              << "pos " << pos;
        }
      }
    }
  }
}

/// A 72-row table with a histogram at row 1, a top-k directory at row
/// 2 and scalars everywhere else, plus one DELTA against it carrying a
/// scalar at row 70 (a two-byte key), new histogram counts and a
/// re-ranked row list.
struct MixedDelta {
  TelemetryFrame table;
  std::string delta;  // payload, no stream prefix
};

MixedDelta mixed_delta() {
  MixedDelta out;
  out.table.sequence = 1;
  out.table.registry_version = 1;
  for (int i = 0; i < 72; ++i) {
    Sample sample;
    sample.name = "row_" + std::to_string(100 + i);
    sample.model = ErrorModel::kMultiplicative;
    sample.error_bound = 2;
    sample.value = static_cast<std::uint64_t>(i);
    out.table.samples.push_back(sample);
  }
  out.table.samples[1] = histogram_sample("row_101");
  Sample& topk = out.table.samples[2];
  topk.model = ErrorModel::kTopK;
  topk.error_bound = 0;
  topk.top_labels = {"10.0.0.1:1", "10.0.0.2:2"};
  topk.bucket_counts = {900, 40};
  topk.value = 900;
  std::vector<DeltaEntry> entries;
  entries.emplace_back(70, 12345678);
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{11, 90, 400, 500, 2});
  entries.emplace_back(
      2, 0, std::vector<std::uint64_t>{5000, 900, 40},
      std::vector<std::string>{"10.0.0.3:3", "10.0.0.1:1", "10.0.0.2:2"});
  std::string wire;
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  out.delta = std::string(payload_of(wire));
  return out;
}

/// True iff every row of `view` keeps the shape it has in `table`:
/// scalars carry no vectors, histograms keep their bucket count and
/// edges, top-k rows stay ranked with one value per label.
bool shapes_intact(const MaterializedView& view, const TelemetryFrame& table) {
  if (view.samples().size() != table.samples.size()) return false;
  for (std::size_t i = 0; i < table.samples.size(); ++i) {
    const Sample& got = view.samples()[i];
    const Sample& want = table.samples[i];
    if (got.model != want.model || got.bucket_bounds != want.bucket_bounds) {
      return false;
    }
    if (want.model == ErrorModel::kTopK) {
      if (got.top_labels.size() != got.bucket_counts.size() ||
          !std::is_sorted(got.bucket_counts.rbegin(),
                          got.bucket_counts.rend())) {
        return false;
      }
    } else if (got.bucket_counts.size() != want.bucket_counts.size() ||
               !got.top_labels.empty()) {
      return false;
    }
  }
  return true;
}

TEST(WireStats, MixedDeltaAppliesAndTruncationAtEveryLengthIsCorrupt) {
  const MixedDelta mixed = mixed_delta();
  std::string wire;
  encode_full_frame(mixed.table, 0, wire);
  MaterializedView base;
  ASSERT_EQ(base.apply(payload_of(wire)), ApplyResult::kApplied);

  MaterializedView view = base;
  ASSERT_EQ(view.apply(mixed.delta), ApplyResult::kApplied);
  EXPECT_EQ(view.samples()[70].value, 12345678u);
  EXPECT_EQ(view.samples()[1].value, 1003u);
  EXPECT_EQ(view.samples()[2].top_labels[0], "10.0.0.3:3");
  EXPECT_EQ(view.samples()[2].value, 5000u);
  EXPECT_TRUE(shapes_intact(view, mixed.table));

  for (std::size_t len = 0; len < mixed.delta.size(); ++len) {
    MaterializedView copy = base;
    EXPECT_EQ(copy.apply(std::string_view(mixed.delta).substr(0, len)),
              ApplyResult::kCorrupt)
        << "accepted a delta truncated to " << len << " bytes";
    EXPECT_EQ(copy.sequence(), 1u);
    EXPECT_EQ(copy.samples()[1].bucket_counts,
              mixed.table.samples[1].bucket_counts);
  }
}

TEST(WireStats, MixedDeltaByteFlipFuzzKeepsEveryRowShape) {
  const MixedDelta mixed = mixed_delta();
  std::string wire;
  encode_full_frame(mixed.table, 0, wire);
  MaterializedView base;
  ASSERT_EQ(base.apply(payload_of(wire)), ApplyResult::kApplied);
  for (std::size_t pos = 0; pos < mixed.delta.size(); ++pos) {
    for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = mixed.delta;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ flip);
      MaterializedView view = base;
      const ApplyResult result = view.apply(mutated);
      EXPECT_TRUE(shapes_intact(view, mixed.table))
          << "pos " << pos << " flip " << static_cast<int>(flip);
      if (result != ApplyResult::kApplied) {
        // Rejected: nothing may have moved.
        EXPECT_EQ(view.sequence(), base.sequence()) << "pos " << pos;
        for (std::size_t i = 0; i < base.samples().size(); ++i) {
          ASSERT_EQ(view.samples()[i].value, base.samples()[i].value)
              << "pos " << pos << " row " << i;
        }
      }
    }
  }
}

TEST(WireStats, OversizedBucketCountsRejectedBeforeAllocation) {
  for (const std::uint64_t nbuckets :
       {std::uint64_t{513}, std::uint64_t{1} << 20, std::uint64_t{1} << 60}) {
    std::string payload = raw_header(FrameKind::kFull, 1, 1);
    append_uvarint(payload, 1);  // count
    append_uvarint(payload, 1);  // name_len
    payload.push_back('h');
    payload.push_back(static_cast<char>(ErrorModel::kHistogram));
    append_uvarint(payload, 16);        // bound
    append_uvarint(payload, nbuckets);  // absurd claim
    // No body: the claim alone must be rejected (no allocation happens
    // first — a lying length cannot command memory).
    MaterializedView view;
    EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt)
        << "nbuckets " << nbuckets;
  }
  // nbuckets < 2 is equally meaningless (a histogram has an overflow
  // bucket and at least one finite edge).
  for (const std::uint64_t nbuckets : {std::uint64_t{0}, std::uint64_t{1}}) {
    std::string payload = raw_header(FrameKind::kFull, 1, 1);
    append_uvarint(payload, 1);
    append_uvarint(payload, 1);
    payload.push_back('h');
    payload.push_back(static_cast<char>(ErrorModel::kHistogram));
    append_uvarint(payload, 16);
    append_uvarint(payload, nbuckets);
    append_uvarint(payload, 5);  // would-be edge0
    MaterializedView view;
    EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt)
        << "nbuckets " << nbuckets;
  }
}

TEST(WireStats, BadEdgeEncodingsRejected) {
  // A zero edge diff (edges must strictly ascend)...
  std::string payload = raw_header(FrameKind::kFull, 1, 1);
  append_uvarint(payload, 1);
  append_uvarint(payload, 1);
  payload.push_back('h');
  payload.push_back(static_cast<char>(ErrorModel::kHistogram));
  append_uvarint(payload, 16);
  append_uvarint(payload, 3);   // nbuckets: 2 finite edges + overflow
  append_uvarint(payload, 10);  // edge0
  append_uvarint(payload, 0);   // zero diff: edges would not ascend
  for (int i = 0; i < 3; ++i) append_uvarint(payload, 1);  // counts
  MaterializedView view;
  EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);

  // ...and an overflowing diff (edge past 2^64) are both corrupt.
  payload = raw_header(FrameKind::kFull, 1, 1);
  append_uvarint(payload, 1);
  append_uvarint(payload, 1);
  payload.push_back('h');
  payload.push_back(static_cast<char>(ErrorModel::kHistogram));
  append_uvarint(payload, 16);
  append_uvarint(payload, 3);
  append_uvarint(payload, std::numeric_limits<std::uint64_t>::max());
  append_uvarint(payload, 5);  // wraps past 2^64
  for (int i = 0; i < 3; ++i) append_uvarint(payload, 1);
  EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);
}

TEST(WireStats, VectorDeltaWithoutABaseNeedsAFull) {
  // A well-formed vector delta against a fresh view is kNeedFull, like
  // any delta that has no agreed name table to land on.
  std::vector<DeltaEntry> entries;
  entries.emplace_back(0, 0, std::vector<std::uint64_t>{1, 2, 3, 4, 5});
  std::string wire;
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  MaterializedView fresh;
  EXPECT_EQ(fresh.apply(payload_of(wire)), ApplyResult::kNeedFull);
  EXPECT_TRUE(fresh.samples().empty());
}

TEST(WireStats, DeltaShapeMismatchesAreCorruptAndAtomic) {
  TelemetryFrame frame = mixed_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  const std::vector<Sample> before = view.samples();

  // Scalar key (even) aimed at the histogram row.
  std::vector<DeltaEntry> entries;
  entries.emplace_back(1, 4242);
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // Vector key (odd) aimed at a scalar row.
  entries.clear();
  entries.emplace_back(0, 0, std::vector<std::uint64_t>{1, 2, 3, 4, 5});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // Bucket-count mismatch against the row's layout (4 ≠ 5).
  entries.clear();
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2, 3, 4});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // A single-count vector is never a histogram (its tag 1 names top-k
  // rows, and the count that follows is no row list).
  entries.clear();
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{7});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // Hand-assembled vector keys on the histogram row (key = 1·2 + 1):
  // tag 0 names no vector at all, and tag 1 (ranked top-k rows) is the
  // wrong shape for a histogram row.
  const auto vector_delta = [](std::uint64_t tag) {
    std::string payload = raw_header(FrameKind::kDelta, 2, 1);
    append_uvarint(payload, 1);  // base_seq
    append_uvarint(payload, 1);  // entry count
    append_uvarint(payload, 3);  // key: index 1, vector
    append_uvarint(payload, tag);
    return payload;
  };
  std::string tag0 = vector_delta(0);
  append_uvarint(tag0, 5);  // would-be value
  EXPECT_EQ(view.apply(tag0), ApplyResult::kCorrupt);
  std::string tag1 = vector_delta(1);
  append_uvarint(tag1, 1);  // nrows
  append_uvarint(tag1, 1);  // label_len
  tag1.push_back('a');
  append_uvarint(tag1, 5);  // row value
  EXPECT_EQ(view.apply(tag1), ApplyResult::kCorrupt);

  // A mixed delta where a LATER entry is malformed: nothing from the
  // earlier (valid) entries may stick — corrupt applies atomically.
  entries.clear();
  entries.emplace_back(0, 999);
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2, 3});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  ASSERT_EQ(view.samples().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(view.samples()[i].value, before[i].value) << i;
    EXPECT_EQ(view.samples()[i].bucket_counts, before[i].bucket_counts) << i;
  }
  EXPECT_EQ(view.sequence(), 1u);  // no corrupt frame advanced the view

  // The happy path still works after all those rejections.
  entries.clear();
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{11, 90, 400, 500, 2});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  EXPECT_EQ(view.samples()[1].bucket_counts,
            (std::vector<std::uint64_t>{11, 90, 400, 500, 2}));
  EXPECT_EQ(view.samples()[1].value, 1003u);
  EXPECT_EQ(view.sequence(), 2u);
}

}  // namespace
}  // namespace approx::svc
