// Wire tests for labeled (top-k) registry entries riding FULL/DELTA
// frames, their decode hardening (row/label caps, rank-order
// enforcement, shape mismatches, truncation), and the metricsz
// exposition pair (request control record + text data frame) — an
// untrusted frame may be rejected, never misdecoded.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

Sample topk_sample(const std::string& name) {
  Sample sample;
  sample.name = name;
  sample.model = ErrorModel::kTopK;
  sample.error_bound = 0;  // max-register rows: exact
  sample.top_labels = {"10.0.0.1:4242", "10.0.0.2:4242", "10.0.0.3:4242"};
  sample.bucket_counts = {5000, 1200, 37};  // ranked, value-descending
  sample.value = 5000;
  return sample;
}

TelemetryFrame topk_frame(std::uint64_t sequence,
                          std::uint64_t registry_version) {
  TelemetryFrame frame;
  frame.sequence = sequence;
  frame.registry_version = registry_version;
  Sample a;
  a.name = "aa_scalar";
  a.model = ErrorModel::kExact;
  a.value = 7;
  frame.samples.push_back(a);
  frame.samples.push_back(topk_sample("tt_talkers"));
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

/// A hand-assembled full carrying one top-k entry with the given
/// rows; lets the hardening tests lie about counts and ordering.
std::string raw_topk_full(
    std::uint64_t nrows_claim,
    const std::vector<std::pair<std::string, std::uint64_t>>& rows) {
  std::string payload = raw_header(FrameKind::kFull, 1, 1);
  append_uvarint(payload, 1);  // entry count
  append_uvarint(payload, 1);  // name_len
  payload.push_back('t');
  payload.push_back(static_cast<char>(ErrorModel::kTopK));
  append_uvarint(payload, 0);  // bound
  append_uvarint(payload, nrows_claim);
  for (const auto& [label, value] : rows) {
    append_uvarint(payload, label.size());
    payload.append(label);
    append_uvarint(payload, value);
  }
  return payload;
}

TEST(WireObs, TopKFullRoundTrip) {
  TelemetryFrame frame = topk_frame(3, 2);
  std::string wire;
  encode_full_frame(frame, 77, wire);

  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  ASSERT_EQ(view.samples().size(), 2u);
  const Sample& topk = view.samples()[1];
  EXPECT_EQ(topk.name, "tt_talkers");
  EXPECT_EQ(topk.model, ErrorModel::kTopK);
  EXPECT_EQ(topk.top_labels,
            (std::vector<std::string>{"10.0.0.1:4242", "10.0.0.2:4242",
                                      "10.0.0.3:4242"}));
  EXPECT_EQ(topk.bucket_counts, (std::vector<std::uint64_t>{5000, 1200, 37}));
  // The scalar value is derived from row 0, never shipped.
  EXPECT_EQ(topk.value, 5000u);
  EXPECT_EQ(view.samples()[0].value, 7u);

  // An empty directory (no rows yet) round-trips with value 0.
  TelemetryFrame empty = topk_frame(4, 3);
  empty.samples[1].top_labels.clear();
  empty.samples[1].bucket_counts.clear();
  empty.samples[1].value = 0;
  encode_full_frame(empty, 0, wire);
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  EXPECT_TRUE(view.samples()[1].top_labels.empty());
  EXPECT_EQ(view.samples()[1].value, 0u);
}

TEST(WireObs, TopKDeltaRoundTripGrowsAndReranks) {
  TelemetryFrame frame = topk_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);

  // The directory grew a row and re-ranked; the delta ships the whole
  // ranked list (top-k rows are small by construction).
  std::vector<DeltaEntry> entries;
  entries.emplace_back(
      1, 0, std::vector<std::uint64_t>{9000, 5000, 1300, 37},
      std::vector<std::string>{"10.0.0.9:1", "10.0.0.1:4242",
                               "10.0.0.2:4242", "10.0.0.3:4242"});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  const Sample& topk = view.samples()[1];
  ASSERT_EQ(topk.top_labels.size(), 4u);
  EXPECT_EQ(topk.top_labels[0], "10.0.0.9:1");
  EXPECT_EQ(topk.bucket_counts[0], 9000u);
  EXPECT_EQ(topk.value, 9000u);  // derived top value moved with the rank
  EXPECT_EQ(view.sequence(), 2u);
}

TEST(WireObs, TopKHardeningRejectsBadRowLists) {
  // Row count beyond the cap: rejected before any allocation.
  {
    MaterializedView view;
    const std::string payload = raw_topk_full(kMaxWireTopKRows + 1, {});
    EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);
    EXPECT_TRUE(view.samples().empty());
  }
  // Label longer than the cap.
  {
    MaterializedView view;
    const std::string big(kMaxTopKLabelBytes + 1, 'x');
    const std::string payload = raw_topk_full(1, {{big, 5}});
    EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);
  }
  // The cap itself is fine (boundary).
  {
    MaterializedView view;
    const std::string edge(kMaxTopKLabelBytes, 'x');
    const std::string payload = raw_topk_full(1, {{edge, 5}});
    EXPECT_EQ(view.apply(payload), ApplyResult::kApplied);
  }
  // Rows not value-descending: rows ride ranked or not at all.
  {
    MaterializedView view;
    const std::string payload = raw_topk_full(2, {{"a", 5}, {"b", 6}});
    EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);
  }
  // Ties are legal (equal values are a valid ranking).
  {
    MaterializedView view;
    const std::string payload = raw_topk_full(2, {{"a", 5}, {"b", 5}});
    EXPECT_EQ(view.apply(payload), ApplyResult::kApplied);
  }
}

TEST(WireObs, TopKDeltaShapeMismatchesAreCorruptAndAtomic) {
  TelemetryFrame frame = topk_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  const std::vector<Sample> before = view.samples();

  // Scalar delta aimed at the top-k row.
  std::vector<DeltaEntry> entries;
  entries.emplace_back(1, 4242);
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // Top-k delta aimed at the scalar row.
  entries.clear();
  entries.emplace_back(0, 0, std::vector<std::uint64_t>{5},
                       std::vector<std::string>{"a"});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // Histogram-shaped delta aimed at the top-k row.
  entries.clear();
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2, 3});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // A valid scalar entry followed by an unranked row list: the frame is
  // corrupt as a whole, so the earlier entry must not stick either.
  entries.clear();
  entries.emplace_back(0, 999);
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2},
                       std::vector<std::string>{"a", "b"});
  encode_delta_frame(2, 1, 0, 1, entries, wire);
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);

  // An EMPTY top-k row list in a delta is malformed by construction
  // (hand-assembled: vector key, tag 1, nrows 0 — an unchanged
  // directory simply does not ride the delta).
  std::string payload = raw_header(FrameKind::kDelta, 2, 1);
  append_uvarint(payload, 1);  // base_seq
  append_uvarint(payload, 1);  // entry count
  append_uvarint(payload, 3);  // key: index 1, vector
  append_uvarint(payload, 1);  // tag: top-k
  append_uvarint(payload, 0);  // nrows 0
  EXPECT_EQ(view.apply(payload), ApplyResult::kCorrupt);

  // Nothing stuck.
  ASSERT_EQ(view.samples().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(view.samples()[i].value, before[i].value) << i;
    EXPECT_EQ(view.samples()[i].top_labels, before[i].top_labels) << i;
  }
  EXPECT_EQ(view.sequence(), 1u);
}

TEST(WireObs, TopKTruncationAtEveryLengthRejects) {
  TelemetryFrame frame = topk_frame(1, 1);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  const std::string_view payload = payload_of(wire);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    MaterializedView view;
    EXPECT_EQ(view.apply(payload.substr(0, len)), ApplyResult::kCorrupt)
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_TRUE(view.samples().empty());
  }
}

TEST(WireObs, MetricszRequestRecordRoundTrip) {
  std::string record;
  encode_metricsz_request_record(record);
  // Control-channel framing: 0xC5 + u32le length + payload.
  ASSERT_GT(record.size(), 5u);
  const std::string_view payload = std::string_view(record).substr(5);
  ControlFrame control;
  ASSERT_TRUE(decode_control_payload(payload, control));
  EXPECT_EQ(control.kind, FrameKind::kMetricszRequest);

  // The request is bodyless: trailing garbage is a protocol violation.
  std::string padded(payload);
  padded.push_back('\0');
  EXPECT_FALSE(decode_control_payload(padded, control));
}

TEST(WireObs, MetricszFrameRoundTrip) {
  const std::string text =
      "# __sys/server.tick.collect_ns model=hist bound=4\n"
      "approx_sys_server_tick_collect_ns_count 56\n";
  std::string wire;
  encode_metricsz_frame(41, 7, 123456, text, wire);
  ASSERT_GT(wire.size(), kFramePrefixBytes);
  EXPECT_EQ(read_u32le(wire.data()), wire.size() - kFramePrefixBytes);
  const std::string_view payload = payload_of(wire);
  EXPECT_EQ(static_cast<FrameKind>(payload[3]), FrameKind::kMetricsz);

  std::string decoded;
  ASSERT_TRUE(decode_metricsz(payload, decoded));
  EXPECT_EQ(decoded, text);

  // Empty pages are legal (a server with no __sys/ entries and no
  // trace ring still answers).
  encode_metricsz_frame(1, 1, 0, "", wire);
  ASSERT_TRUE(decode_metricsz(payload_of(wire), decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(WireObs, MetricszDecodeRejectsForeignAndTruncatedPayloads) {
  const std::string text = "approx_sys_x 1\n";
  std::string wire;
  encode_metricsz_frame(41, 7, 123456, text, wire);
  const std::string payload(payload_of(wire));
  std::string decoded;

  // Truncated header (the text itself may be any length, including 0,
  // so only the 7 header fields are length-checkable).
  for (std::size_t len = 0; len < 7; ++len) {
    EXPECT_FALSE(decode_metricsz(payload.substr(0, len), decoded)) << len;
  }
  // Wrong kind / magic.
  std::string wrong = payload;
  wrong[3] = static_cast<char>(FrameKind::kFull);
  EXPECT_FALSE(decode_metricsz(wrong, decoded));
  wrong = payload;
  wrong[0] = 0;
  EXPECT_FALSE(decode_metricsz(wrong, decoded));

  // A regular data frame is not a metricsz frame.
  TelemetryFrame frame = topk_frame(1, 1);
  encode_full_frame(frame, 0, wire);
  EXPECT_FALSE(decode_metricsz(payload_of(wire), decoded));

  // And the view rejects the metricsz kind (clients that never asked
  // never see it; ones that did intercept it before apply).
  encode_metricsz_frame(41, 7, 0, text, wire);
  MaterializedView view;
  EXPECT_EQ(view.apply(payload_of(wire)), ApplyResult::kCorrupt);
  EXPECT_TRUE(view.samples().empty());
}

}  // namespace
}  // namespace approx::svc
