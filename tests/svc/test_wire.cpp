// Tests for the telemetry wire format (src/svc/wire.hpp): varint
// primitives, full/delta round trips over every error-model/bound
// combination, fuzz-ish truncation and corruption rejection, and the
// delta-on-top-of-full reconstruction contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "base/step_recorder.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "sim/workload.hpp"
#include "stats/histogram.hpp"
#include "stats/topk.hpp"
#include "svc/wire.hpp"

namespace approx::svc {
namespace {

using shard::ErrorModel;
using shard::Sample;
using shard::TelemetryFrame;

/// Payload view of a stream-ready encode (skips the u32le prefix).
std::string_view payload_of(const std::string& wire) {
  return std::string_view(wire).substr(kFramePrefixBytes);
}

std::uint32_t prefix_of(const std::string& wire) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(wire[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(wire[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(wire[2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(wire[3]))
             << 24;
}

TEST(Varint, RoundTripBoundaries) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 (1ull << 63) - 1,
                                 1ull << 63,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t value : cases) {
    std::string buf;
    append_uvarint(buf, value);
    ASSERT_LE(buf.size(), 10u);
    const char* cursor = buf.data();
    std::uint64_t decoded = 0;
    ASSERT_TRUE(read_uvarint(&cursor, buf.data() + buf.size(), decoded));
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(cursor, buf.data() + buf.size());
  }
}

TEST(Varint, RejectsTruncatedAndOverlong) {
  std::string buf;
  append_uvarint(buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const char* cursor = buf.data();
    std::uint64_t value = 0;
    EXPECT_FALSE(read_uvarint(&cursor, buf.data() + len, value))
        << "accepted a varint truncated to " << len << " bytes";
  }
  // 10 continuation bytes and beyond: overlong.
  const std::string overlong(11, static_cast<char>(0x80));
  const char* cursor = overlong.data();
  std::uint64_t value = 0;
  EXPECT_FALSE(
      read_uvarint(&cursor, overlong.data() + overlong.size(), value));
  // A 10th byte that would overflow 64 bits.
  std::string overflow(9, static_cast<char>(0x80));
  overflow.push_back(0x02);  // bit 64
  cursor = overflow.data();
  EXPECT_FALSE(
      read_uvarint(&cursor, overflow.data() + overflow.size(), value));
}

/// Hand-assembled frames covering every model × a spread of bounds and
/// values, incl. the u64 extremes the varint must carry.
TelemetryFrame synthetic_frame(std::uint64_t sequence,
                               std::uint64_t registry_version) {
  TelemetryFrame frame;
  frame.sequence = sequence;
  frame.registry_version = registry_version;
  const ErrorModel models[] = {ErrorModel::kExact, ErrorModel::kMultiplicative,
                               ErrorModel::kAdditive};
  const std::uint64_t bounds[] = {0, 1, 2, 64, 1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  const std::uint64_t values[] = {0, 1, 127, 128, 1ull << 40,
                                  std::numeric_limits<std::uint64_t>::max()};
  unsigned i = 0;
  for (const ErrorModel model : models) {
    for (const std::uint64_t bound : bounds) {
      Sample sample;
      sample.name = "stat_" + std::to_string(i);
      if (i % 5 == 0) sample.name += std::string(40, 'x');  // long names
      sample.model = model;
      sample.error_bound = bound;
      sample.value = values[i % (sizeof(values) / sizeof(values[0]))];
      frame.samples.push_back(sample);
      ++i;
    }
  }
  return frame;
}

void expect_view_matches(const MaterializedView& view,
                         const TelemetryFrame& frame) {
  ASSERT_EQ(view.samples().size(), frame.samples.size());
  for (std::size_t i = 0; i < frame.samples.size(); ++i) {
    EXPECT_EQ(view.samples()[i].name, frame.samples[i].name) << i;
    EXPECT_EQ(view.samples()[i].model, frame.samples[i].model) << i;
    EXPECT_EQ(view.samples()[i].error_bound, frame.samples[i].error_bound)
        << i;
    EXPECT_EQ(view.samples()[i].value, frame.samples[i].value) << i;
  }
  EXPECT_EQ(view.sequence(), frame.sequence);
  EXPECT_EQ(view.registry_version(), frame.registry_version);
}

TEST(WireFull, RoundTripEveryModelAndBound) {
  const TelemetryFrame frame = synthetic_frame(7, 42);
  std::string wire;
  encode_full_frame(frame, 123456789, wire);
  EXPECT_EQ(prefix_of(wire), wire.size() - kFramePrefixBytes);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  expect_view_matches(view, frame);
  EXPECT_EQ(view.last_collect_ns(), 123456789u);
  EXPECT_EQ(view.full_frames(), 1u);
  EXPECT_EQ(view.entry_update_seq().size(), frame.samples.size());
  for (const std::uint64_t seq : view.entry_update_seq()) {
    EXPECT_EQ(seq, frame.sequence);
  }
}

TEST(WireFull, RoundTripRandomFleetsProperty) {
  sim::Rng rng(2027);
  for (int iteration = 0; iteration < 50; ++iteration) {
    TelemetryFrame frame;
    frame.sequence = 1 + rng.below(1u << 30);
    frame.registry_version = 1 + rng.below(1u << 30);
    const unsigned count = rng.below(40);
    for (unsigned i = 0; i < count; ++i) {
      Sample sample;
      const unsigned name_len = rng.below(24);
      for (unsigned c = 0; c < name_len; ++c) {
        sample.name.push_back(static_cast<char>('a' + rng.below(26)));
      }
      sample.model = static_cast<ErrorModel>(rng.below(3));
      sample.error_bound = rng.below(1u << 31);
      sample.value =
          static_cast<std::uint64_t>(rng.below(1u << 31)) << rng.below(33);
      frame.samples.push_back(std::move(sample));
    }
    std::string wire;
    encode_full_frame(frame, 0, wire);
    MaterializedView view;
    ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
    expect_view_matches(view, frame);
  }
}

TEST(WireFull, TruncationRejectedAtEveryLength) {
  const TelemetryFrame frame = synthetic_frame(3, 9);
  std::string wire;
  encode_full_frame(frame, 55, wire);
  const std::string_view payload = payload_of(wire);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    MaterializedView view;
    EXPECT_EQ(view.apply(payload.substr(0, len)), ApplyResult::kCorrupt)
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_EQ(view.sequence(), 0u) << "truncated frame mutated the view";
    EXPECT_TRUE(view.samples().empty());
  }
}

TEST(WireFull, CorruptHeaderAndModelRejected) {
  const TelemetryFrame frame = synthetic_frame(3, 9);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  const std::string payload(payload_of(wire));

  auto corrupted = [&](std::size_t index, char value) {
    std::string copy = payload;
    copy[index] = value;
    return copy;
  };
  MaterializedView view;
  EXPECT_EQ(view.apply(corrupted(0, 0x00)), ApplyResult::kCorrupt);  // magic0
  EXPECT_EQ(view.apply(corrupted(1, 0x00)), ApplyResult::kCorrupt);  // magic1
  EXPECT_EQ(view.apply(corrupted(2, 0x7F)), ApplyResult::kCorrupt);  // version
  EXPECT_EQ(view.apply(corrupted(3, 0x07)), ApplyResult::kCorrupt);  // kind
  EXPECT_EQ(view.apply(std::string_view{}), ApplyResult::kCorrupt);  // empty
  // Model byte of the first entry: header(4) + seq/regver/ns varints +
  // count varint + name_len varint + name bytes. Locate it by decoding.
  const char* cursor = payload.data() + 4;
  const char* const end = payload.data() + payload.size();
  std::uint64_t skip = 0;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(read_uvarint(&cursor, end, skip));
  std::uint64_t name_len = 0;
  ASSERT_TRUE(read_uvarint(&cursor, end, name_len));
  const std::size_t model_at =
      static_cast<std::size_t>(cursor - payload.data()) +
      static_cast<std::size_t>(name_len);
  EXPECT_EQ(view.apply(corrupted(model_at, 0x09)), ApplyResult::kCorrupt);
  EXPECT_EQ(view.sequence(), 0u);
  // And the pristine payload still applies.
  EXPECT_EQ(view.apply(payload), ApplyResult::kApplied);
}

TEST(WireFull, ByteFlipFuzzNeverCorruptsSilently) {
  // Flip every byte of a valid payload in turn: each mutation must
  // either decode to kCorrupt/kNeedFull or apply cleanly — never crash
  // or leave a half-applied view (ASan/UBSan guard the memory side).
  const TelemetryFrame frame = synthetic_frame(3, 9);
  std::string wire;
  encode_full_frame(frame, 77, wire);
  const std::string payload(payload_of(wire));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = payload;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      MaterializedView view;
      const ApplyResult result = view.apply(mutated);
      if (result != ApplyResult::kApplied) {
        EXPECT_TRUE(view.samples().empty())
            << "rejected frame mutated the view (byte " << i << ")";
      }
    }
  }
}

TEST(WireGrammar, FullAndDeltaBytesSpellTheGrammar) {
  // One row of each shape, spelled byte for byte from the grammar in
  // wire.hpp. Full frames and delta records share the varint, top-k row
  // and bucket-count writers, so both must match it exactly.
  TelemetryFrame frame;
  frame.sequence = 5;
  frame.registry_version = 300;
  Sample scalar;
  scalar.name = "a";
  scalar.value = 200;
  Sample hist;
  hist.name = "h";
  hist.model = ErrorModel::kHistogram;
  hist.error_bound = 1;
  hist.bucket_bounds = {10, 300};
  hist.bucket_counts = {1, 2, 130};
  Sample top;
  top.name = "t";
  top.model = ErrorModel::kTopK;
  top.top_labels = {"x", "yz"};
  top.bucket_counts = {500, 3};
  frame.samples = {scalar, hist, top};
  const auto bytes = [](std::initializer_list<int> list) {
    std::string out;
    for (const int byte : list) out.push_back(static_cast<char>(byte));
    return out;
  };
  const std::string prefix = bytes({kWireMagic0, kWireMagic1, kWireVersion});

  std::string full;
  encode_full_frame(frame, 7, full);
  EXPECT_EQ(payload_of(full),
            prefix + bytes({0,                 // kind: full
                            5, 0xAC, 0x02, 7,  // sequence, version 300, stamp
                            3,                 // count
                            // "a": exact, bound 0, value 200
                            1, 'a', 0, 0, 0xC8, 0x01,
                            // "h": bound 1, 3 buckets, edge 10, diff 290,
                            // counts 1 2 130
                            1, 'h', 3, 1, 3, 10, 0xA2, 0x02, 1, 2, 0x82, 0x01,
                            // "t": bound 0, rows ("x", 500) ("yz", 3)
                            1, 't', 4, 0, 2, 1, 'x', 0xF4, 0x03, 2, 'y', 'z',
                            3}));

  std::vector<DeltaEntry> entries;
  entries.emplace_back(0, 201);
  entries.emplace_back(1, 0, std::vector<std::uint64_t>{1, 2, 131});
  entries.emplace_back(2, 0, std::vector<std::uint64_t>{600, 3},
                       std::vector<std::string>{"yz", "x"});
  std::string delta;
  encode_delta_frame(6, 300, 8, 5, entries, delta);
  EXPECT_EQ(payload_of(delta),
            prefix + bytes({1,                 // kind: delta
                            6, 0xAC, 0x02, 8,  // sequence, version 300, stamp
                            5, 3,              // base_seq, count
                            0, 0xC9, 0x01,     // key 0 (scalar): 201
                            3, 3, 1, 2, 0x83, 0x01,  // key 3, tag 3: counts
                            // key 5, tag 1: rows ("yz", 600) ("x", 3)
                            5, 1, 2, 2, 'y', 'z', 0xD8, 0x04, 1, 'x', 3}));

  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(full)), ApplyResult::kApplied);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.samples()[0].value, 201u);
  EXPECT_EQ(view.samples()[1].bucket_counts,
            (std::vector<std::uint64_t>{1, 2, 131}));
  EXPECT_EQ(view.samples()[2].top_labels,
            (std::vector<std::string>{"yz", "x"}));
}

TEST(WireDelta, AppliesOnTopOfFull) {
  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);

  const std::vector<DeltaEntry> entries = {
      {0, 999}, {3, std::numeric_limits<std::uint64_t>::max()}, {17, 0}};
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, entries, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.sequence(), 6u);
  EXPECT_EQ(view.delta_frames(), 1u);
  EXPECT_EQ(view.samples()[0].value, 999u);
  EXPECT_EQ(view.samples()[3].value,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(view.samples()[17].value, 0u);
  // Untouched entries keep their full-frame values and update seqs.
  EXPECT_EQ(view.samples()[1].value, frame.samples[1].value);
  EXPECT_EQ(view.entry_update_seq()[0], 6u);
  EXPECT_EQ(view.entry_update_seq()[1], 5u);
  // Names/models/bounds never move via deltas.
  EXPECT_EQ(view.samples()[0].name, frame.samples[0].name);
  EXPECT_EQ(view.samples()[0].model, frame.samples[0].model);
}

TEST(WireDelta, EmptyDeltaIsAHeartbeat) {
  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, {}, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.sequence(), 6u);
  EXPECT_EQ(view.entries_updated(), frame.samples.size());  // no new ones
}

TEST(WireDelta, RejectedWithoutAgreedBase) {
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, {{0, 1}}, delta);
  MaterializedView fresh;  // no full frame yet
  EXPECT_EQ(fresh.apply(payload_of(delta)), ApplyResult::kNeedFull);

  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  // Wrong registry version: the name table moved underneath the delta.
  std::string wrong_version;
  encode_delta_frame(6, 12, 0, 5, {{0, 1}}, wrong_version);
  EXPECT_EQ(view.apply(payload_of(wrong_version)), ApplyResult::kNeedFull);
  // Sequence gap: delta's base is newer than the view.
  std::string gapped;
  encode_delta_frame(9, 11, 0, 8, {{0, 1}}, gapped);
  EXPECT_EQ(view.apply(payload_of(gapped)), ApplyResult::kNeedFull);
  // Out-of-range index against the agreed table: corrupt.
  std::string out_of_range;
  encode_delta_frame(6, 11, 0, 5, {{frame.samples.size(), 1}}, out_of_range);
  EXPECT_EQ(view.apply(payload_of(out_of_range)), ApplyResult::kCorrupt);
  // The view survived all three rejections untouched.
  expect_view_matches(view, frame);
}

TEST(WireDelta, StaleAndDuplicateFramesAreSkipped) {
  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);  // dup
  EXPECT_EQ(view.stale_frames_skipped(), 1u);
  EXPECT_EQ(view.full_frames(), 1u);
  std::string delta;
  encode_delta_frame(4, 11, 0, 2, {{0, 123}}, delta);  // older than view
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.stale_frames_skipped(), 2u);
  EXPECT_EQ(view.samples()[0].value, frame.samples[0].value);  // untouched
}

// --- subscription filters + control frames ----------------------------

/// Payload view of a control record (skips the 0xC5 + u32le framing).
std::string_view control_payload_of(const std::string& record) {
  return std::string_view(record).substr(kControlPrefixBytes);
}

TEST(Filter, MatchSemanticsNormalizationAndCanonicalKey) {
  SubscriptionFilter filter;
  filter.exact = {"errors", "requests", "errors"};  // dup
  filter.prefixes = {"svc_", "db_"};
  filter.normalize();
  EXPECT_EQ(filter.exact.size(), 2u);  // deduped
  EXPECT_TRUE(filter.matches("requests"));
  EXPECT_TRUE(filter.matches("errors"));
  EXPECT_TRUE(filter.matches("svc_anything"));
  EXPECT_TRUE(filter.matches("db_"));  // prefix matches itself
  EXPECT_FALSE(filter.matches("request"));  // exact is not a prefix
  EXPECT_FALSE(filter.matches("sv"));
  EXPECT_FALSE(filter.matches(""));

  SubscriptionFilter everything;
  EXPECT_TRUE(everything.pass_all());
  EXPECT_FALSE(filter.pass_all());

  // Reordered lists normalize to the same canonical key (one server
  // filter group), and different filters never collide.
  SubscriptionFilter reordered;
  reordered.exact = {"requests", "errors"};
  reordered.prefixes = {"db_", "svc_"};
  reordered.normalize();
  EXPECT_EQ(filter.canonical_key(), reordered.canonical_key());
  SubscriptionFilter other;
  other.exact = {"requests"};
  other.normalize();
  EXPECT_NE(filter.canonical_key(), other.canonical_key());
  // Exact names vs prefixes are distinct subscriptions.
  SubscriptionFilter as_prefix;
  as_prefix.prefixes = {"requests"};
  EXPECT_NE(other.canonical_key(), as_prefix.canonical_key());
}

TEST(ControlFrame, SubscribeRoundTrip) {
  SubscriptionFilter filter;
  filter.exact = {"zeta", "alpha"};
  filter.prefixes = {"svc_"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  ASSERT_GT(record.size(), kControlPrefixBytes);
  EXPECT_EQ(static_cast<unsigned char>(record[0]), kControlByte);

  ControlFrame decoded;
  ASSERT_TRUE(decode_control_payload(control_payload_of(record), decoded));
  EXPECT_EQ(decoded.kind, FrameKind::kSubscribe);
  ASSERT_EQ(decoded.filter.exact.size(), 2u);
  EXPECT_EQ(decoded.filter.exact[0], "alpha");  // normalized on decode
  EXPECT_EQ(decoded.filter.exact[1], "zeta");
  ASSERT_EQ(decoded.filter.prefixes.size(), 1u);
  EXPECT_EQ(decoded.filter.prefixes[0], "svc_");

  // An empty filter (pass-all) round-trips too.
  std::string empty_record;
  ASSERT_TRUE(encode_subscribe_record(SubscriptionFilter{}, empty_record));
  ControlFrame empty_decoded;
  ASSERT_TRUE(
      decode_control_payload(control_payload_of(empty_record), empty_decoded));
  EXPECT_TRUE(empty_decoded.filter.pass_all());
}

TEST(ControlFrame, ResyncRoundTrip) {
  std::string record;
  encode_resync_record(record);
  ControlFrame decoded;
  ASSERT_TRUE(decode_control_payload(control_payload_of(record), decoded));
  EXPECT_EQ(decoded.kind, FrameKind::kResync);
  // A resync smuggling a body is malformed.
  std::string padded(control_payload_of(record));
  padded.push_back('\0');
  EXPECT_FALSE(decode_control_payload(padded, decoded));
}

TEST(ControlFrame, TruncationRejectedAtEveryLength) {
  SubscriptionFilter filter;
  filter.exact = {"alpha", "beta"};
  filter.prefixes = {"svc_", "db_"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  const std::string payload(control_payload_of(record));
  ControlFrame decoded;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_control_payload(payload.substr(0, len), decoded))
        << "accepted a control payload truncated to " << len << " bytes";
  }
  // And the pristine payload still decodes.
  EXPECT_TRUE(decode_control_payload(payload, decoded));
}

TEST(ControlFrame, ByteFlipFuzzNeverAcceptsOverLimitFilters) {
  SubscriptionFilter filter;
  filter.exact = {"alpha", "a_rather_longer_counter_name"};
  filter.prefixes = {"svc_"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  const std::string payload(control_payload_of(record));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = payload;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      ControlFrame decoded;
      // Any outcome but a crash/overflow is fine; whatever decodes must
      // be a filter the limits admit (ASan/UBSan guard the memory side).
      if (decode_control_payload(mutated, decoded)) {
        EXPECT_TRUE(decoded.filter.within_limits());
      }
    }
  }
}

TEST(ControlFrame, MalformedFilterListsRejected) {
  // Hand-assembled SUBSCRIBE payloads around the hardening limits.
  auto subscribe_header = [] {
    std::string payload;
    payload.push_back(static_cast<char>(kWireMagic0));
    payload.push_back(static_cast<char>(kWireMagic1));
    payload.push_back(static_cast<char>(kWireVersion));
    payload.push_back(static_cast<char>(FrameKind::kSubscribe));
    return payload;
  };
  ControlFrame decoded;

  // Entry count beyond the limit: rejected before any allocation.
  std::string too_many = subscribe_header();
  append_uvarint(too_many, kMaxFilterEntries + 1);
  EXPECT_FALSE(decode_control_payload(too_many, decoded));

  // Oversized prefix length: rejected.
  std::string oversized = subscribe_header();
  append_uvarint(oversized, 0);  // no exact names
  append_uvarint(oversized, 1);  // one prefix...
  append_uvarint(oversized, kMaxFilterNameBytes + 1);  // ...too long
  oversized.append(kMaxFilterNameBytes + 1, 'x');
  EXPECT_FALSE(decode_control_payload(oversized, decoded));

  // A name length claiming more bytes than the payload holds.
  std::string lying = subscribe_header();
  append_uvarint(lying, 1);
  append_uvarint(lying, 200);
  lying.append(3, 'x');  // only 3 bytes present
  EXPECT_FALSE(decode_control_payload(lying, decoded));

  // Trailing garbage after a well-formed filter.
  SubscriptionFilter filter;
  filter.exact = {"ok"};
  std::string record;
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  std::string trailing(control_payload_of(record));
  trailing.push_back('\0');
  EXPECT_FALSE(decode_control_payload(trailing, decoded));

  // A data kind in a control payload.
  std::string data_kind = subscribe_header();
  data_kind[3] = static_cast<char>(FrameKind::kFull);
  EXPECT_FALSE(decode_control_payload(data_kind, decoded));

  // Encoding refuses an over-limit filter outright.
  SubscriptionFilter huge;
  huge.exact.assign(kMaxFilterEntries + 1, "name");
  std::string refused;
  EXPECT_FALSE(encode_subscribe_record(huge, refused));
  SubscriptionFilter long_name;
  long_name.prefixes = {std::string(kMaxFilterNameBytes + 1, 'p')};
  EXPECT_FALSE(encode_subscribe_record(long_name, refused));
}

TEST(ControlFrame, DataStreamRejectsControlKinds) {
  // A SUBSCRIBE/RESYNC payload arriving where data frames live (the
  // server→client direction) must be kCorrupt, not misapplied.
  std::string record;
  encode_resync_record(record);
  MaterializedView view;
  EXPECT_EQ(view.apply(control_payload_of(record)), ApplyResult::kCorrupt);
  SubscriptionFilter filter;
  filter.prefixes = {"svc_"};
  ASSERT_TRUE(encode_subscribe_record(filter, record));
  EXPECT_EQ(view.apply(control_payload_of(record)), ApplyResult::kCorrupt);
  EXPECT_TRUE(view.samples().empty());
}

TEST(WireVersion, EveryRecordCarriesSixAndEveryOtherByteIsRejected) {
  // One protocol version: every encoder stamps kWireVersion, and every
  // decoder rejects a record carrying any other version byte — a view
  // keeps its table and sequence untouched.
  ASSERT_EQ(kWireVersion, 6);
  const TelemetryFrame frame = synthetic_frame(5, 11);
  std::string wire;
  encode_full_frame(frame, 0, wire);
  MaterializedView base;
  ASSERT_EQ(base.apply(payload_of(wire)), ApplyResult::kApplied);

  // Data channel (payload after the u32le stream prefix).
  TelemetryFrame later = frame;
  later.sequence = 6;
  std::string full;
  encode_full_frame(later, 0, full);
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, {{0, 999}}, delta);
  std::string metricsz;
  encode_metricsz_frame(6, 11, 0, "approx_x 1\n", metricsz);
  std::string offer;
  ASSERT_TRUE(encode_shm_offer_frame({"/approx-ring-test", 3, 8, 4096}, offer));
  // Control channel (payload after the 0xC5 + u32le framing).
  std::vector<std::string> controls(5);
  SubscriptionFilter filter;
  filter.exact = {"stat_1"};
  ASSERT_TRUE(encode_subscribe_record(filter, controls[0]));
  encode_resync_record(controls[1]);
  encode_shm_request_record(controls[2]);
  encode_shm_accept_record(3, controls[3]);
  encode_metricsz_request_record(controls[4]);

  const auto with_version = [](std::string_view payload, int version) {
    std::string copy(payload);
    copy[2] = static_cast<char>(version);
    return copy;
  };
  for (const std::string* data : {&full, &delta, &metricsz, &offer}) {
    EXPECT_EQ(static_cast<unsigned char>(payload_of(*data)[2]), kWireVersion);
  }
  for (const std::string& record : controls) {
    EXPECT_EQ(static_cast<unsigned char>(control_payload_of(record)[2]),
              kWireVersion);
  }

  for (const int version : {6, 0, 1, 2, 3, 4, 5, 7, 255}) {
    const bool ours = version == kWireVersion;
    MaterializedView view = base;
    EXPECT_EQ(view.apply(with_version(payload_of(delta), version)),
              ours ? ApplyResult::kApplied : ApplyResult::kCorrupt)
        << version;
    EXPECT_EQ(view.apply(with_version(payload_of(full), version)),
              ours ? ApplyResult::kApplied : ApplyResult::kCorrupt)
        << version;
    if (!ours) {
      expect_view_matches(view, frame);
      EXPECT_EQ(view.frames_applied(), base.frames_applied());
    }
    std::string text;
    EXPECT_EQ(
        decode_metricsz(with_version(payload_of(metricsz), version), text),
        ours)
        << version;
    ShmOffer decoded_offer;
    EXPECT_EQ(decode_shm_offer(with_version(payload_of(offer), version),
                               decoded_offer),
              ours)
        << version;
    for (const std::string& record : controls) {
      ControlFrame control;
      EXPECT_EQ(decode_control_payload(
                    with_version(control_payload_of(record), version), control),
                ours)
          << version << " kind "
          << static_cast<int>(record[kControlPrefixBytes + 3]);
    }
  }
}

TEST(WireFiltered, FilteredFullDefinesSubsetTableAndSubsetDeltasApply) {
  // A filter group's full carries only its rows, in table order — the
  // subscriber's whole name table. Deltas for the subset then index
  // into it positionally.
  const TelemetryFrame frame = synthetic_frame(5, 11);
  const std::vector<std::uint64_t> selection = {1, 4, 7};
  TelemetryFrame rows;
  rows.sequence = frame.sequence;
  rows.registry_version = frame.registry_version;
  for (const std::uint64_t index : selection) {
    rows.samples.push_back(frame.samples[index]);
  }
  std::string wire;
  encode_full_frame(rows, 777, wire);
  EXPECT_EQ(prefix_of(wire), wire.size() - kFramePrefixBytes);

  MaterializedView view;
  view.expect_rebase();
  EXPECT_TRUE(view.rebase_pending());
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);
  EXPECT_FALSE(view.rebase_pending());  // the re-basing full arrived
  ASSERT_EQ(view.samples().size(), selection.size());
  for (std::size_t j = 0; j < selection.size(); ++j) {
    const Sample& expected = frame.samples[selection[j]];
    EXPECT_EQ(view.samples()[j].name, expected.name) << j;
    EXPECT_EQ(view.samples()[j].model, expected.model) << j;
    EXPECT_EQ(view.samples()[j].error_bound, expected.error_bound) << j;
    EXPECT_EQ(view.samples()[j].value, expected.value) << j;
  }
  EXPECT_EQ(view.last_collect_ns(), 777u);

  // Subset delta: position 0 = flat 1, position 2 = flat 7.
  std::string delta;
  encode_delta_frame(6, 11, 0, 5, {{0, 1234}, {2, 4321}}, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);
  EXPECT_EQ(view.samples()[0].value, 1234u);
  EXPECT_EQ(view.samples()[1].value, frame.samples[4].value);  // untouched
  EXPECT_EQ(view.samples()[2].value, 4321u);
  // An index beyond the subset table is corrupt, exactly as unfiltered.
  std::string beyond;
  encode_delta_frame(7, 11, 0, 6, {{selection.size(), 1}}, beyond);
  EXPECT_EQ(view.apply(payload_of(beyond)), ApplyResult::kCorrupt);
}

TEST(WireIntegration, DeltaOnTopOfFullEqualsSnapshotAll) {
  // The satellite contract: a view reconstructed from full + registry
  // for_each_changed_since deltas equals a direct snapshot_all of the
  // quiesced fleet.
  shard::RegistryT<base::DirectBackend> registry(2);
  auto& mult = registry.create(
      "mult", {ErrorModel::kMultiplicative, 2, 2, shard::ShardPolicy::kHashPinned});
  auto& add = registry.create(
      "add", {ErrorModel::kAdditive, 8, 2, shard::ShardPolicy::kHashPinned});
  auto& exact = registry.create(
      "exact", {ErrorModel::kExact, 0, 1, shard::ShardPolicy::kHashPinned});
  for (int i = 0; i < 300; ++i) mult.increment(0);
  for (int i = 0; i < 200; ++i) add.increment(0);
  for (int i = 0; i < 100; ++i) exact.increment(0);

  shard::AggregatorT<base::DirectBackend> aggregator(registry, 1);
  shard::TickRecord tick;
  aggregator.collect_tick(tick);
  TelemetryFrame full;
  full.sequence = tick.pass_seq;
  full.registry_version = tick.registry_version;
  tick.rows_into(nullptr, full.samples);
  std::string wire;
  encode_full_frame(full, 0, wire);
  MaterializedView view;
  ASSERT_EQ(view.apply(payload_of(wire)), ApplyResult::kApplied);

  for (int i = 0; i < 50; ++i) exact.increment(0);
  for (int i = 0; i < 500; ++i) mult.increment(0);
  aggregator.collect_tick(tick);

  std::vector<DeltaEntry> entries;
  const auto upto = registry.for_each_changed_since(
      full.sequence, tick.registry_version,
      [&](std::size_t index, const std::string& /*name*/,
          std::uint64_t value, std::uint64_t changed_seq,
          const std::vector<std::uint64_t>* /*counts*/,
          const std::vector<std::string>* /*labels*/) {
        ASSERT_LE(changed_seq, tick.pass_seq);
        entries.push_back({index, value});
      });
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(*upto, tick.pass_seq);
  std::string delta;
  encode_delta_frame(*upto, tick.registry_version, 0, full.sequence,
                     entries, delta);
  ASSERT_EQ(view.apply(payload_of(delta)), ApplyResult::kApplied);

  // The reconstructed view IS the registry's snapshot_all (fleet is
  // quiescent, so fresh reads reproduce the collected values).
  const std::vector<Sample> direct = registry.snapshot_all(1);
  ASSERT_EQ(view.samples().size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(view.samples()[i].name, direct[i].name) << i;
    EXPECT_EQ(view.samples()[i].value, direct[i].value) << i;
    EXPECT_EQ(view.samples()[i].model, direct[i].model) << i;
    EXPECT_EQ(view.samples()[i].error_bound, direct[i].error_bound) << i;
  }
}

TEST(WireIntegration, TickEncodedDeltasEqualWalkDeltasByteForByte) {
  // The server reads every delta straight from its pass's tick record:
  // the rows of a selection (null: pass-all) the record stamps after the
  // delta's basis — a group delta from the group's basis, a catch-up
  // from a lagging client's. Each must equal, byte for byte,
  // encode_delta_frame of the DeltaEntry list a changed-since walk run
  // at the same pass builds (restricted to the selection), and move a
  // view to exactly that pass.
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& exact = registry.create("app/exact", {ErrorModel::kExact});
  shard::AnyCounter& mult =
      registry.create("app/mult", {ErrorModel::kMultiplicative, 2, 2});
  shard::AnyCounter& other = registry.create("other/x", {ErrorModel::kExact});
  stats::HistogramSpec spec;
  spec.bounds = {10, 100, 1000};
  spec.k = 1;
  shard::AnyHistogram* lat =
      stats::create_histogram<base::DirectBackend>(registry, "app/lat", spec);
  shard::AnyTopK* top =
      stats::create_topk<base::DirectBackend>(registry, "app/top", 4);
  ASSERT_NE(lat, nullptr);
  ASSERT_NE(top, nullptr);
  shard::AggregatorT<base::DirectBackend> aggregator(registry, 1);

  // The "app/" prefix filter's rows in a pass's name table.
  const auto app_selection = [](const shard::TickRecord& tick) {
    std::vector<std::uint64_t> rows;
    for (std::size_t i = 0; i < tick.names->size(); ++i) {
      if ((*tick.names)[i].name.rfind("app/", 0) == 0) rows.push_back(i);
    }
    return rows;
  };
  // The reference: the DeltaEntry list a changed-since walk builds,
  // values and all, keeping the selection's rows at their positions in
  // it.
  const auto walk_entries = [&](std::uint64_t since, std::uint64_t version,
                                const std::vector<std::uint64_t>* selection) {
    std::vector<DeltaEntry> entries;
    EXPECT_TRUE(registry
                    .for_each_changed_since(
                        since, version,
                        [&](std::size_t row, const std::string&,
                            std::uint64_t value, std::uint64_t,
                            const std::vector<std::uint64_t>* counts,
                            const std::vector<std::string>* labels) {
                          std::size_t position = row;
                          if (selection != nullptr) {
                            const auto it = std::lower_bound(
                                selection->begin(), selection->end(), row);
                            if (it == selection->end() || *it != row) return;
                            position = static_cast<std::size_t>(
                                it - selection->begin());
                          }
                          entries.emplace_back(
                              position, value,
                              counts ? *counts : std::vector<std::uint64_t>{},
                              labels ? *labels : std::vector<std::string>{});
                        })
                    .has_value());
    return entries;
  };
  const auto expect_view_at = [](const MaterializedView& view,
                                 const shard::TickRecord& tick,
                                 const std::vector<std::uint64_t>* selection) {
    std::vector<Sample> rows;
    tick.rows_into(selection, rows);
    ASSERT_EQ(view.sequence(), tick.pass_seq);
    ASSERT_EQ(view.samples().size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(view.samples()[i].name, rows[i].name) << i;
      EXPECT_EQ(view.samples()[i].value, rows[i].value) << i;
      EXPECT_EQ(view.samples()[i].bucket_counts, rows[i].bucket_counts) << i;
      EXPECT_EQ(view.samples()[i].top_labels, rows[i].top_labels) << i;
    }
  };
  // Encodes one delta both ways, checks the bytes match, and applies it.
  // The walk reads the registry's newest columns, so `tick` must be the
  // newest pass.
  const auto check = [&](const shard::TickRecord& tick, std::uint64_t since,
                         std::uint64_t wire_version,
                         const std::vector<std::uint64_t>* selection,
                         MaterializedView& view) {
    std::string from_tick;
    std::string from_walk;
    encode_delta_frame(tick.pass_seq, wire_version, 99, since, tick,
                       selection, from_tick);
    encode_delta_frame(tick.pass_seq, wire_version, 99, since,
                       walk_entries(since, tick.registry_version, selection),
                       from_walk);
    EXPECT_EQ(from_tick, from_walk);
    EXPECT_LE(from_tick.capacity(), from_tick.size() + 32);  // no slack
    // A buffer with room is written in place, not reallocated.
    const char* const reused = from_walk.data();
    encode_delta_frame(tick.pass_seq, wire_version, 99, since, tick,
                       selection, from_walk);
    EXPECT_EQ(from_walk.data(), reused);
    EXPECT_EQ(from_walk, from_tick);
    MaterializedView twin = view;
    ASSERT_EQ(view.apply(payload_of(from_tick)), ApplyResult::kApplied);
    ASSERT_EQ(twin.apply(payload_of(from_walk)), ApplyResult::kApplied);
    expect_view_at(view, tick, selection);
    expect_view_at(twin, tick, selection);
  };
  const auto full_of = [](const shard::TickRecord& tick,
                          const std::vector<std::uint64_t>* selection) {
    TelemetryFrame frame;
    frame.sequence = tick.pass_seq;
    frame.registry_version = tick.registry_version;
    tick.rows_into(selection, frame.samples);
    std::string wire;
    encode_full_frame(frame, 0, wire);
    return wire;
  };
  // Whether a delta from `since` read from `tick` names flat row `row`.
  const auto names_row = [](const shard::TickRecord& tick, std::uint64_t since,
                            const std::vector<std::uint64_t>* selection,
                            std::uint64_t row) {
    bool named = false;
    tick.for_each_changed(selection, since, [&](std::size_t, std::size_t r) {
      named |= r == row;
    });
    return named;
  };

  for (int i = 0; i < 5; ++i) exact.increment(0);
  top->update(0, "peer-a", 40);
  shard::TickRecord first;
  aggregator.collect_tick(first);
  const std::vector<std::uint64_t> app = app_selection(first);
  ASSERT_EQ(app.size(), 4u);
  const std::uint64_t app_wire_version = first.registry_version;
  MaterializedView all_view;
  MaterializedView app_view;
  ASSERT_EQ(all_view.apply(payload_of(full_of(first, nullptr))),
            ApplyResult::kApplied);
  ASSERT_EQ(app_view.apply(payload_of(full_of(first, &app))),
            ApplyResult::kApplied);

  // Every kind moves: group deltas for both groups.
  for (int i = 0; i < 300; ++i) mult.increment(0);
  exact.increment(0);
  other.increment(0);
  lat->record(0, 50);
  lat->record(0, 5000);
  lat->flush(0);
  top->update(0, "peer-b", 90);
  shard::TickRecord second;
  aggregator.collect_tick(second);
  ASSERT_EQ(std::count(second.changed_seq.begin(), second.changed_seq.end(),
                       second.pass_seq),
            5);
  check(second, first.pass_seq, second.registry_version, nullptr, all_view);
  check(second, first.pass_seq, app_wire_version, &app, app_view);
  MaterializedView lagging = app_view;  // a member that will fall behind

  // Two more passes; the catch-up from `second` covers both, including a
  // row that moved in the first of them only.
  other.increment(0);
  top->update(0, "peer-a", 500);
  shard::TickRecord third;
  aggregator.collect_tick(third);
  exact.increment(0);
  shard::TickRecord fourth;
  aggregator.collect_tick(fourth);
  check(fourth, second.pass_seq, app_wire_version, &app, lagging);
  MaterializedView all_lagging = all_view;
  check(fourth, second.pass_seq, fourth.registry_version, nullptr,
        all_lagging);

  // A row created between two passes, sorted ahead of the filter's rows:
  // every flat index shifts, the filter's subset (and so its pinned wire
  // version) does not. Pass-all sees the new row changed; the filtered
  // group's delta and catch-up still apply under the old label.
  shard::AnyCounter& created = registry.create("aaa/new", {ErrorModel::kExact});
  created.increment(0);
  mult.increment(0);
  lat->record(0, 7);
  lat->flush(0);
  shard::TickRecord fifth;
  aggregator.collect_tick(fifth);
  ASSERT_NE(fifth.registry_version, fourth.registry_version);
  EXPECT_EQ(fifth.changed_seq.front(), fifth.pass_seq);  // "aaa/new" is row 0
  const std::vector<std::uint64_t> shifted = app_selection(fifth);
  ASSERT_EQ(shifted.size(), app.size());
  check(fifth, fourth.pass_seq, app_wire_version, &shifted, lagging);
  std::string all_from_tick;
  std::string all_from_walk;
  encode_delta_frame(fifth.pass_seq, fifth.registry_version, 0,
                     fourth.pass_seq, fifth, nullptr, all_from_tick);
  encode_delta_frame(fifth.pass_seq, fifth.registry_version, 0,
                     fourth.pass_seq,
                     walk_entries(fourth.pass_seq, fifth.registry_version,
                                  nullptr),
                     all_from_walk);
  EXPECT_EQ(all_from_tick, all_from_walk);
  check(fifth, second.pass_seq, app_wire_version, &shifted, app_view);

  // A top-k still empty at pass P is unstamped in P's record, so a
  // catch-up read from P does not name it — and cannot, however late it
  // is encoded: the record holds P's stamps, never a later pass's. Once
  // its first row lands at P + 1, the catch-up read from P + 1 names it.
  shard::AnyTopK* idle =
      stats::create_topk<base::DirectBackend>(registry, "app/idle", 4);
  ASSERT_NE(idle, nullptr);
  shard::TickRecord sixth;
  aggregator.collect_tick(sixth);
  const std::vector<std::uint64_t> grown = app_selection(sixth);
  ASSERT_EQ(grown.size(), app.size() + 1);
  MaterializedView grown_view;
  MaterializedView whole_view;
  ASSERT_EQ(grown_view.apply(payload_of(full_of(sixth, &grown))),
            ApplyResult::kApplied);
  ASSERT_EQ(whole_view.apply(payload_of(full_of(sixth, nullptr))),
            ApplyResult::kApplied);
  std::uint64_t idle_row = 0;
  while ((*sixth.names)[idle_row].name != "app/idle") ++idle_row;
  exact.increment(0);
  shard::TickRecord seventh;  // P: "app/idle" is still empty
  aggregator.collect_tick(seventh);
  EXPECT_EQ(seventh.changed_seq[idle_row], 0u);
  const std::vector<std::uint64_t>* selections[] = {&grown, nullptr};
  MaterializedView* views[] = {&grown_view, &whole_view};
  std::string from_p[2];
  for (int s = 0; s < 2; ++s) {
    EXPECT_FALSE(names_row(seventh, sixth.pass_seq, selections[s], idle_row));
    MaterializedView at_p = *views[s];
    check(seventh, sixth.pass_seq, sixth.registry_version, selections[s],
          at_p);
    encode_delta_frame(seventh.pass_seq, sixth.registry_version, 99,
                       sixth.pass_seq, seventh, selections[s], from_p[s]);
  }
  idle->update(0, "peer-z", 7);
  lat->record(0, 3);
  lat->flush(0);
  other.increment(0);
  shard::TickRecord eighth;  // P + 1: stamps "app/idle"
  aggregator.collect_tick(eighth);
  ASSERT_EQ(eighth.registry_version, seventh.registry_version);
  EXPECT_EQ(eighth.changed_seq[idle_row], eighth.pass_seq);
  for (int s = 0; s < 2; ++s) {
    std::string late;
    encode_delta_frame(seventh.pass_seq, sixth.registry_version, 99,
                       sixth.pass_seq, seventh, selections[s], late);
    EXPECT_EQ(late, from_p[s]);
    EXPECT_TRUE(names_row(eighth, sixth.pass_seq, selections[s], idle_row));
    check(eighth, sixth.pass_seq, sixth.registry_version, selections[s],
          *views[s]);
  }
}

TEST(WireIntegration, MarkedCollectEqualsAFullSweepByteForByte) {
  // The sequenced collect reads a relaxed row only when the row marked a
  // publish since its last read. Replay one op sequence into two
  // registries: `marked` is collected by collect_tick; `swept` reads
  // every row every pass (snapshot_all_into), with the stamps kept here
  // by collect_tick's rule. Every pass — across creates that shift the
  // rows and a restarted stream — must agree on values, stamps and
  // readings, and so encode to identical full and delta bytes.
  using Registry = shard::RegistryT<base::InstrumentedBackend>;
  using Backend = base::InstrumentedBackend;
  constexpr unsigned kPids = 4;
  constexpr unsigned kCollector = 3;  // pids 0–2 drive the ops
  struct Rows {
    std::vector<shard::AnyCounter*> counters;
    std::vector<shard::AnyHistogram*> hists;
    std::vector<shard::AnyTopK*> tops;
  };
  Registry marked(kPids);
  Registry swept(kPids);
  Rows rows[2];
  stats::HistogramSpec spec;
  spec.bounds = {10, 100};
  spec.k = 4;  // each bucket writes a pid's slot every other record
  const auto create = [&](const std::string& prefix) {
    Registry* registries[2] = {&marked, &swept};
    for (int side = 0; side < 2; ++side) {
      Registry& registry = *registries[side];
      rows[side].counters.push_back(&registry.create(
          prefix + "mult", {ErrorModel::kMultiplicative, 2, 2}));
      rows[side].counters.push_back(&registry.create(
          prefix + "add", {ErrorModel::kAdditive, 8, 2}));
      rows[side].counters.push_back(
          &registry.create(prefix + "exact", {ErrorModel::kExact, 0, 2}));
      rows[side].hists.push_back(
          stats::create_histogram<Backend>(registry, prefix + "lat", spec));
      rows[side].tops.push_back(
          stats::create_topk<Backend>(registry, prefix + "top", 4));
    }
  };
  create("m/");

  // The full sweep's stamps, by name (creates shift rows).
  struct Seen {
    std::uint64_t value = 0;
    std::vector<std::uint64_t> counts;
    std::vector<std::string> labels;
  };
  std::map<std::string, Seen> seen;
  std::map<std::string, std::uint64_t> stamps;
  std::uint64_t last_seq = 0;
  const auto sweep = [&](std::uint64_t seq, const shard::TickRecord& tick) {
    std::vector<Sample> now;
    (void)swept.snapshot_all_into(kCollector, now, 0);
    if (seq <= last_seq) {
      for (auto& [name, stamp] : stamps) stamp = 0;
    }
    last_seq = seq;
    shard::TickRecord ref;
    ref.pass_seq = seq;
    ref.registry_version = tick.registry_version;
    ref.names = tick.names;
    for (std::size_t row = 0; row < now.size(); ++row) {
      const Sample& sample = now[row];
      EXPECT_EQ(sample.name, (*tick.names)[row].name) << row;
      const bool scalar = sample.model != ErrorModel::kHistogram &&
                          sample.model != ErrorModel::kTopK;
      const auto it = seen.find(sample.name);
      // A new row changes unless it is a still-empty top-k.
      const bool changed =
          it == seen.end()
              ? !sample.bucket_counts.empty() || scalar
              : (scalar ? sample.value != it->second.value
                        : sample.bucket_counts != it->second.counts ||
                              sample.top_labels != it->second.labels);
      if (changed) {
        seen[sample.name] = {sample.value, sample.bucket_counts,
                             sample.top_labels};
        stamps[sample.name] = seq;
      }
      ref.values.push_back(sample.value);
      ref.changed_seq.push_back(stamps[sample.name]);
      if (!scalar) {
        ref.vectors.push_back(
            {row, sample.bucket_counts, sample.top_labels});
      }
    }
    return ref;
  };
  const auto full_bytes = [](const shard::TickRecord& tick) {
    TelemetryFrame frame;
    frame.sequence = tick.pass_seq;
    frame.registry_version = tick.registry_version;
    tick.rows_into(nullptr, frame.samples);
    std::string wire;
    encode_full_frame(frame, 0, wire);
    return wire;
  };
  const auto delta_bytes = [](const shard::TickRecord& tick,
                              std::uint64_t since) {
    std::string wire;
    encode_delta_frame(tick.pass_seq, tick.registry_version, 0, since, tick,
                       nullptr, wire);
    return wire;
  };

  sim::Rng rng(2026);
  std::uint64_t seq = 0;
  std::uint64_t marked_steps = 0;  // the instrumented reads of each side
  std::uint64_t swept_steps = 0;
  for (int pass = 1; pass <= 40; ++pass) {
    if (pass == 15) create("a/");  // sorts first: every old row shifts
    if (pass == 25) create("z/");
    if (pass == 30) seq = 0;       // a restarted sequencer
    const int ops = pass % 5 == 0 ? 0 : static_cast<int>(rng.below(80));
    for (int op = 0; op < ops; ++op) {
      const auto pid = static_cast<unsigned>(rng.below(3));
      const std::uint64_t pick = rng.below(1000);
      const std::size_t which = rng.below(rows[0].counters.size());
      const std::uint64_t value = rng.below(200);
      for (Rows& side : rows) {
        if (pick < 700) {
          side.counters[which]->increment(pid);
        } else if (pick < 900) {
          side.hists[which / 3]->record(pid, value);
        } else if (pick < 960) {
          side.counters[which]->flush(pid);
          side.hists[which / 3]->flush(pid);
        } else {
          (void)side.tops[which / 3]->update(
              pid, "peer-" + std::to_string(value % 7), value);
        }
      }
    }
    const std::uint64_t since = seq;
    ++seq;
    shard::TickRecord tick;
    shard::TickRecord ref;
    marked_steps += base::steps_of(
        [&] { marked.collect_tick(kCollector, seq, tick); });
    swept_steps += base::steps_of([&] { ref = sweep(seq, tick); });
    ASSERT_EQ(tick.values, ref.values) << "pass " << pass;
    ASSERT_EQ(tick.changed_seq, ref.changed_seq) << "pass " << pass;
    ASSERT_EQ(tick.vectors.size(), ref.vectors.size()) << "pass " << pass;
    for (std::size_t v = 0; v < tick.vectors.size(); ++v) {
      EXPECT_EQ(tick.vectors[v].row, ref.vectors[v].row) << pass;
      EXPECT_EQ(tick.vectors[v].counts, ref.vectors[v].counts) << pass;
      EXPECT_EQ(tick.vectors[v].labels, ref.vectors[v].labels) << pass;
    }
    EXPECT_EQ(full_bytes(tick), full_bytes(ref)) << "pass " << pass;
    EXPECT_EQ(delta_bytes(tick, since), delta_bytes(ref, since))
        << "pass " << pass;
  }
  EXPECT_LT(marked_steps, swept_steps) << "the marked collect read every row";
}

}  // namespace
}  // namespace approx::svc
