// wire.cpp — telemetry wire format encode/decode (see wire.hpp).
#include "svc/wire.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

namespace approx::svc {
namespace {

/// Longest legal LEB128 encoding of a uint64 (10 × 7 bits ≥ 64).
constexpr int kMaxVarintBytes = 10;

/// Bytes put_uvarint writes for `value`.
std::size_t uvarint_size(std::uint64_t value) {
  return (static_cast<std::size_t>(std::bit_width(value | 1)) + 6) / 7;
}

/// Writes `value` as a varint at `p`; returns the byte after it. The one
/// varint writer: append_uvarint and the record writers below use it.
char* put_uvarint(char* p, std::uint64_t value) {
  while (value >= 0x80) {
    *p++ = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  *p++ = static_cast<char>(value);
  return p;
}

/// Upper bound on the entries reserved up front from an (untrusted)
/// frame count; larger lists grow geometrically as entries actually
/// parse, so a lying count cannot command a huge allocation.
constexpr std::uint64_t kReserveClamp = 4096;

void append_u32le(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

/// Patches a u32le length at out[at..at+3] with the byte count
/// assembled after it.
void patch_length_at(std::string& out, std::size_t at) {
  const std::uint32_t payload =
      static_cast<std::uint32_t>(out.size() - at - 4);
  out[at] = static_cast<char>(payload & 0xFF);
  out[at + 1] = static_cast<char>((payload >> 8) & 0xFF);
  out[at + 2] = static_cast<char>((payload >> 16) & 0xFF);
  out[at + 3] = static_cast<char>((payload >> 24) & 0xFF);
}

/// Patches the u32le length prefix at out[0..3] once the payload is
/// assembled behind it.
void patch_length_prefix(std::string& out) { patch_length_at(out, 0); }

void sort_dedup(std::vector<std::string>& list) {
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
}

/// Reads one length-prefixed name list of a SUBSCRIBE body, enforcing
/// the filter limits.
bool read_name_list(const char** cursor, const char* end,
                    std::vector<std::string>& out) {
  std::uint64_t count = 0;
  if (!read_uvarint(cursor, end, count)) return false;
  if (count > kMaxFilterEntries) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!read_uvarint(cursor, end, len)) return false;
    if (len > kMaxFilterNameBytes) return false;
    if (len > static_cast<std::uint64_t>(end - *cursor)) return false;
    out.emplace_back(*cursor, static_cast<std::size_t>(len));
    *cursor += len;
  }
  return true;
}

/// Grows `out` by `bytes` and returns where they start, for a put_*
/// writer that fills exactly that many.
char* grow(std::string& out, std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  return out.data() + at;
}

/// The one record-prefix writer: magic, version, kind.
char* put_prefix(char* p, FrameKind kind) {
  *p++ = static_cast<char>(kWireMagic0);
  *p++ = static_cast<char>(kWireMagic1);
  *p++ = static_cast<char>(kWireVersion);
  *p++ = static_cast<char>(kind);
  return p;
}

void append_prefix(std::string& out, FrameKind kind) {
  put_prefix(grow(out, 4), kind);
}

/// Bytes put_header writes: the record prefix, then three varints.
std::size_t header_size(std::uint64_t sequence, std::uint64_t registry_version,
                        std::uint64_t collect_ns) {
  return 4 + uvarint_size(sequence) + uvarint_size(registry_version) +
         uvarint_size(collect_ns);
}

/// The one data-frame header writer.
char* put_header(char* p, FrameKind kind, std::uint64_t sequence,
                 std::uint64_t registry_version, std::uint64_t collect_ns) {
  p = put_prefix(p, kind);
  p = put_uvarint(p, sequence);
  p = put_uvarint(p, registry_version);
  return put_uvarint(p, collect_ns);
}

void append_header(std::string& out, FrameKind kind, std::uint64_t sequence,
                   std::uint64_t registry_version, std::uint64_t collect_ns) {
  put_header(grow(out, header_size(sequence, registry_version, collect_ns)),
             kind, sequence, registry_version, collect_ns);
}

/// The one record-prefix reader. False when truncated or when the magic
/// or version byte is not ours; the kind is the caller's to check.
bool read_prefix(const char** cursor, const char* end, FrameKind& kind) {
  if (end - *cursor < 4) return false;
  const char* p = *cursor;
  if (static_cast<unsigned char>(p[0]) != kWireMagic0 ||
      static_cast<unsigned char>(p[1]) != kWireMagic1 ||
      static_cast<std::uint8_t>(p[2]) != kWireVersion) {
    return false;
  }
  kind = static_cast<FrameKind>(p[3]);
  *cursor += 4;
  return true;
}

/// A data-frame prefix + header, as read_header parses it.
struct Header {
  FrameKind kind = FrameKind::kFull;
  std::uint64_t sequence = 0;
  std::uint64_t registry_version = 0;
  std::uint64_t collect_ns = 0;
};

bool read_header(const char** cursor, const char* end, Header& header) {
  return read_prefix(cursor, end, header.kind) &&
         read_uvarint(cursor, end, header.sequence) &&
         read_uvarint(cursor, end, header.registry_version) &&
         read_uvarint(cursor, end, header.collect_ns);
}

bool read_u8(const char** cursor, const char* end, std::uint8_t& value) {
  if (*cursor == end) return false;
  value = static_cast<std::uint8_t>(**cursor);
  ++*cursor;
  return true;
}

}  // namespace

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void append_uvarint(std::string& out, std::uint64_t value) {
  put_uvarint(grow(out, uvarint_size(value)), value);
}

std::uint32_t read_u32le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

bool read_uvarint(const char** cursor, const char* end, std::uint64_t& value) {
  std::uint64_t result = 0;
  int shift = 0;
  const char* p = *cursor;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (p == end) return false;  // truncated
    const std::uint8_t byte = static_cast<std::uint8_t>(*p++);
    if (shift == 63 && (byte & 0x7E) != 0) return false;  // overflows u64
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *cursor = p;
      value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // overlong encoding
}

namespace {

/// A top-k row list, in full samples and delta records alike: row
/// count, then ranked (label_len, label, value) rows from the parallel
/// label/value vectors. rows_size is the bytes put_rows writes.
std::size_t rows_size(const std::vector<std::string>& labels,
                      const std::vector<std::uint64_t>& values) {
  std::size_t bytes = uvarint_size(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    bytes += uvarint_size(labels[i].size()) + labels[i].size() +
             uvarint_size(values[i]);
  }
  return bytes;
}

char* put_rows(char* p, const std::vector<std::string>& labels,
               const std::vector<std::uint64_t>& values) {
  p = put_uvarint(p, labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    p = put_uvarint(p, labels[i].size());
    std::memcpy(p, labels[i].data(), labels[i].size());
    p = put_uvarint(p + labels[i].size(), values[i]);
  }
  return p;
}

/// Histogram bucket counts, one varint each (their number travels
/// ahead of them). counts_size is the bytes put_counts writes.
std::size_t counts_size(const std::vector<std::uint64_t>& counts) {
  std::size_t bytes = 0;
  for (const std::uint64_t count : counts) bytes += uvarint_size(count);
  return bytes;
}

char* put_counts(char* p, const std::vector<std::uint64_t>& counts) {
  for (const std::uint64_t count : counts) p = put_uvarint(p, count);
  return p;
}

/// A histogram's i-th edge as the wire carries it: edge0, then the
/// ascending diffs.
std::uint64_t wire_edge(const std::vector<std::uint64_t>& bounds,
                        std::size_t i) {
  return i == 0 ? bounds[0] : bounds[i] - bounds[i - 1];
}

/// One FULL record (the fbody grammar). record_size is the bytes
/// put_record writes.
std::size_t record_size(const shard::Sample& sample) {
  const std::size_t bytes = uvarint_size(sample.name.size()) +
                            sample.name.size() + 1 +
                            uvarint_size(sample.error_bound);
  if (sample.model == shard::ErrorModel::kTopK) {
    return bytes + rows_size(sample.top_labels, sample.bucket_counts);
  }
  if (sample.model == shard::ErrorModel::kHistogram) {
    std::size_t edges = 0;
    for (std::size_t i = 0; i < sample.bucket_bounds.size(); ++i) {
      edges += uvarint_size(wire_edge(sample.bucket_bounds, i));
    }
    return bytes + uvarint_size(sample.bucket_counts.size()) + edges +
           counts_size(sample.bucket_counts);
  }
  return bytes + uvarint_size(sample.value);
}

char* put_record(char* p, const shard::Sample& sample) {
  p = put_uvarint(p, sample.name.size());
  std::memcpy(p, sample.name.data(), sample.name.size());
  p += sample.name.size();
  *p++ = static_cast<char>(sample.model);
  p = put_uvarint(p, sample.error_bound);
  if (sample.model == shard::ErrorModel::kTopK) {
    return put_rows(p, sample.top_labels, sample.bucket_counts);
  }
  if (sample.model == shard::ErrorModel::kHistogram) {
    // Bucket count, edge0 + ascending diffs, then the counts.
    p = put_uvarint(p, sample.bucket_counts.size());
    for (std::size_t i = 0; i < sample.bucket_bounds.size(); ++i) {
      p = put_uvarint(p, wire_edge(sample.bucket_bounds, i));
    }
    return put_counts(p, sample.bucket_counts);
  }
  return put_uvarint(p, sample.value);
}

/// One DELTA record as the writer reads it (the dbody grammar): ranked
/// top-k rows when `labels` holds any (their values in `counts`), else
/// bucket counts when `counts` holds any, else the scalar `value`.
struct DeltaRecord {
  std::uint64_t index = 0;
  std::uint64_t value = 0;
  const std::vector<std::uint64_t>* counts = nullptr;
  const std::vector<std::string>* labels = nullptr;

  [[nodiscard]] bool rows() const { return labels && !labels->empty(); }
  [[nodiscard]] bool vector() const {
    return rows() || (counts && !counts->empty());
  }
  [[nodiscard]] std::uint64_t key() const {
    return index * 2 + (vector() ? 1 : 0);
  }
};

std::size_t record_size(const DeltaRecord& record) {
  const std::size_t key = uvarint_size(record.key());
  if (record.rows()) {
    return key + uvarint_size(1) + rows_size(*record.labels, *record.counts);
  }
  if (record.vector()) {
    return key + uvarint_size(record.counts->size()) +
           counts_size(*record.counts);
  }
  return key + uvarint_size(record.value);
}

char* put_record(char* p, const DeltaRecord& record) {
  p = put_uvarint(p, record.key());
  if (record.rows()) {
    p = put_uvarint(p, 1);  // tag: ranked top-k rows
    return put_rows(p, *record.labels, *record.counts);
  }
  if (record.vector()) {
    p = put_uvarint(p, record.counts->size());  // tag: bucket count
    return put_counts(p, *record.counts);
  }
  return put_uvarint(p, record.value);
}

/// The one FULL/DELTA frame writer: length prefix, header, a delta's
/// `base_seq` (null for a full), the record count, then the `Record`s
/// `for_each(fn)` hands to fn in wire order. It runs twice — once to
/// count and size the records exactly, once to write the frame through
/// a raw pointer into `out` resized to just that — so a fresh `out` is
/// allocated once, and a reused one keeps its capacity.
template <typename Record, typename ForEach>
void write_frame(FrameKind kind, std::uint64_t sequence,
                 std::uint64_t registry_version, std::uint64_t collect_ns,
                 const std::uint64_t* base_seq, const ForEach& for_each,
                 std::string& out) {
  std::size_t count = 0;
  std::size_t bytes = 0;
  for_each([&](const Record& record) {
    ++count;
    bytes += record_size(record);
  });
  bytes += 4 + header_size(sequence, registry_version, collect_ns) +
           (base_seq != nullptr ? uvarint_size(*base_seq) : 0) +
           uvarint_size(count);
  out.clear();
  out.resize(bytes);
  char* p = out.data() + 4;  // after the length prefix, patched below
  p = put_header(p, kind, sequence, registry_version, collect_ns);
  if (base_seq != nullptr) p = put_uvarint(p, *base_seq);
  p = put_uvarint(p, count);
  for_each([&](const Record& record) { p = put_record(p, record); });
  assert(p == out.data() + out.size());
  patch_length_prefix(out);
}

}  // namespace

void encode_full_frame(const shard::TelemetryFrame& frame,
                       std::uint64_t collect_ns, std::string& out) {
  write_frame<shard::Sample>(
      FrameKind::kFull, frame.sequence, frame.registry_version, collect_ns,
      nullptr,
      [&](const auto& emit) {
        for (const shard::Sample& sample : frame.samples) emit(sample);
      },
      out);
}

void encode_delta_frame(std::uint64_t sequence, std::uint64_t registry_version,
                        std::uint64_t collect_ns, std::uint64_t base_seq,
                        const std::vector<DeltaEntry>& entries,
                        std::string& out) {
  write_frame<DeltaRecord>(
      FrameKind::kDelta, sequence, registry_version, collect_ns, &base_seq,
      [&](const auto& emit) {
        for (const DeltaEntry& entry : entries) {
          emit({entry.index, entry.value, &entry.buckets, &entry.labels});
        }
      },
      out);
}

void encode_delta_frame(std::uint64_t sequence, std::uint64_t registry_version,
                        std::uint64_t collect_ns, std::uint64_t base_seq,
                        const shard::TickRecord& tick,
                        const std::vector<std::uint64_t>* selection,
                        std::string& out) {
  write_frame<DeltaRecord>(
      FrameKind::kDelta, sequence, registry_version, collect_ns, &base_seq,
      [&](const auto& emit) {
        auto reading = tick.vectors.begin();
        tick.for_each_changed(
            selection, base_seq, [&](std::size_t position, std::size_t row) {
              while (reading != tick.vectors.end() && reading->row < row) {
                ++reading;
              }
              if (reading == tick.vectors.end() || reading->row != row) {
                emit({position, tick.values[row]});
              } else {
                emit({position, tick.values[row], &reading->counts,
                      &reading->labels});
              }
            });
      },
      out);
}

bool SubscriptionFilter::matches(std::string_view name) const {
  for (const std::string& candidate : exact) {
    if (name == candidate) return true;
  }
  for (const std::string& prefix : prefixes) {
    if (name.size() >= prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

void SubscriptionFilter::normalize() {
  sort_dedup(exact);
  sort_dedup(prefixes);
}

std::string SubscriptionFilter::canonical_key() const {
  // Length-prefixed concatenation: injective over arbitrary name bytes.
  // This IS the SUBSCRIBE cbody layout (see the header grammar) —
  // encode_subscribe_record appends it verbatim, so group identity and
  // wire encoding cannot drift apart.
  std::string key;
  append_uvarint(key, exact.size());
  for (const std::string& name : exact) {
    append_uvarint(key, name.size());
    key.append(name);
  }
  append_uvarint(key, prefixes.size());
  for (const std::string& prefix : prefixes) {
    append_uvarint(key, prefix.size());
    key.append(prefix);
  }
  return key;
}

bool SubscriptionFilter::within_limits() const noexcept {
  if (exact.size() > kMaxFilterEntries ||
      prefixes.size() > kMaxFilterEntries) {
    return false;
  }
  for (const std::string& name : exact) {
    if (name.size() > kMaxFilterNameBytes) return false;
  }
  for (const std::string& prefix : prefixes) {
    if (prefix.size() > kMaxFilterNameBytes) return false;
  }
  return true;
}

namespace {

void append_control_header(std::string& out, FrameKind kind) {
  out.push_back(static_cast<char>(kControlByte));
  append_u32le(out, 0);  // payload length, patched by the caller
  append_prefix(out, kind);
}

}  // namespace

bool encode_subscribe_record(const SubscriptionFilter& filter,
                             std::string& out) {
  out.clear();
  if (!filter.within_limits()) return false;
  append_control_header(out, FrameKind::kSubscribe);
  out.append(filter.canonical_key());  // == the cbody grammar, verbatim
  patch_length_at(out, 1);
  return true;
}

void encode_resync_record(std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kResync);
  patch_length_at(out, 1);
}

void encode_shm_request_record(std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kShmRequest);
  patch_length_at(out, 1);
}

void encode_shm_accept_record(std::uint64_t generation, std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kShmAccept);
  append_uvarint(out, generation);
  patch_length_at(out, 1);
}

void encode_metricsz_request_record(std::string& out) {
  out.clear();
  append_control_header(out, FrameKind::kMetricszRequest);
  patch_length_at(out, 1);
}

void encode_metricsz_frame(std::uint64_t sequence,
                           std::uint64_t registry_version,
                           std::uint64_t collect_ns, std::string_view text,
                           std::string& out) {
  out.clear();
  append_u32le(out, 0);  // stream length prefix, patched below
  append_header(out, FrameKind::kMetricsz, sequence, registry_version,
                collect_ns);
  out.append(text);
  patch_length_prefix(out);
}

bool decode_metricsz(std::string_view payload, std::string& text) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  Header header;
  if (!read_header(&cursor, end, header) ||
      header.kind != FrameKind::kMetricsz) {
    return false;
  }
  text.assign(cursor, static_cast<std::size_t>(end - cursor));
  return true;
}

bool encode_shm_offer_frame(const ShmOffer& offer, std::string& out) {
  out.clear();
  if (offer.name.empty() || offer.name.size() > kMaxShmNameBytes) return false;
  append_u32le(out, 0);  // stream length prefix, patched below
  append_prefix(out, FrameKind::kShmOffer);
  append_uvarint(out, offer.name.size());
  out.append(offer.name);
  append_uvarint(out, offer.generation);
  append_uvarint(out, offer.slot_count);
  append_uvarint(out, offer.slot_payload_bytes);
  patch_length_prefix(out);
  return true;
}

bool decode_shm_offer(std::string_view payload, ShmOffer& out) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  FrameKind kind = FrameKind::kFull;
  if (!read_prefix(&cursor, end, kind) || kind != FrameKind::kShmOffer) {
    return false;
  }
  std::uint64_t name_len = 0;
  if (!read_uvarint(&cursor, end, name_len) ||
      name_len == 0 || name_len > kMaxShmNameBytes ||
      name_len > static_cast<std::uint64_t>(end - cursor)) {
    return false;
  }
  out.name.assign(cursor, static_cast<std::size_t>(name_len));
  cursor += name_len;
  std::uint64_t slot_count = 0;
  if (!read_uvarint(&cursor, end, out.generation) ||
      !read_uvarint(&cursor, end, slot_count) ||
      !read_uvarint(&cursor, end, out.slot_payload_bytes)) {
    return false;
  }
  if (out.generation == 0 || slot_count == 0 ||
      slot_count > std::numeric_limits<std::uint32_t>::max() ||
      out.slot_payload_bytes == 0) {
    return false;
  }
  out.slot_count = static_cast<std::uint32_t>(slot_count);
  return cursor == end;  // trailing garbage = not our frame
}

bool decode_control_payload(std::string_view payload, ControlFrame& out) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  if (!read_prefix(&cursor, end, out.kind)) return false;
  out.filter = SubscriptionFilter{};
  out.shm_generation = 0;
  switch (out.kind) {
    case FrameKind::kSubscribe:
      if (!read_name_list(&cursor, end, out.filter.exact) ||
          !read_name_list(&cursor, end, out.filter.prefixes)) {
        return false;
      }
      out.filter.normalize();
      break;
    case FrameKind::kShmAccept:
      if (!read_uvarint(&cursor, end, out.shm_generation) ||
          out.shm_generation == 0) {
        return false;
      }
      break;
    case FrameKind::kResync:
    case FrameKind::kShmRequest:
    case FrameKind::kMetricszRequest:
      break;  // bodyless
    default:
      return false;  // a data-channel kind, or no kind at all
  }
  return cursor == end;  // no trailing garbage
}

ApplyResult MaterializedView::apply(std::string_view payload) {
  const char* cursor = payload.data();
  const char* const end = cursor + payload.size();
  Header header;
  if (!read_header(&cursor, end, header)) return ApplyResult::kCorrupt;
  switch (header.kind) {
    case FrameKind::kFull:
      return apply_full(cursor, end, header.sequence, header.registry_version,
                        header.collect_ns);
    case FrameKind::kDelta:
      return apply_delta(cursor, end, header.sequence,
                         header.registry_version, header.collect_ns);
    default:
      return ApplyResult::kCorrupt;
  }
}

namespace {

/// Reads `n` bucket counts (n within kMaxWireBuckets, checked against
/// the remaining bytes before allocating) and their saturated sum.
bool read_counts(const char** cursor, const char* end, std::uint64_t n,
                 std::vector<std::uint64_t>& counts, std::uint64_t& total) {
  if (n > kMaxWireBuckets || n > static_cast<std::uint64_t>(end - *cursor)) {
    return false;  // ≥ 1 byte per count
  }
  counts.resize(static_cast<std::size_t>(n));
  total = 0;
  for (std::uint64_t& count : counts) {
    if (!read_uvarint(cursor, end, count)) return false;
    total = base::sat_add(total, count);
  }
  return true;
}

/// Parses a FULL entry's histogram body into the sample's bucket
/// vectors and derives the scalar value as the saturated count sum.
/// False on any malformed byte: a bucket count below 2, beyond the
/// limit or the remaining bytes, a zero/overflowing edge diff,
/// truncation.
bool read_histogram(const char** cursor, const char* end,
                    shard::Sample& sample) {
  std::uint64_t nbuckets = 0;
  if (!read_uvarint(cursor, end, nbuckets) || nbuckets < 2 ||
      nbuckets > kMaxWireBuckets) {
    return false;
  }
  // Plausibility before any allocation: nbuckets−1 edges + nbuckets
  // counts, each at least one byte.
  if (2 * nbuckets - 1 > static_cast<std::uint64_t>(end - *cursor)) {
    return false;
  }
  sample.bucket_bounds.resize(static_cast<std::size_t>(nbuckets) - 1);
  std::uint64_t edge = 0;
  for (std::size_t i = 0; i + 1 < nbuckets; ++i) {
    std::uint64_t piece = 0;
    if (!read_uvarint(cursor, end, piece)) return false;
    if (i == 0) {
      edge = piece;
    } else {
      // Diffs are strictly positive and must not wrap: edges ascend.
      if (piece == 0 || piece > ~std::uint64_t{0} - edge) return false;
      edge += piece;
    }
    sample.bucket_bounds[i] = edge;
  }
  return read_counts(cursor, end, nbuckets, sample.bucket_counts,
                     sample.value);
}

/// Parses a top-k row list into parallel label/value vectors. False on
/// any malformed byte: a row count or label length beyond the limits or
/// the remaining bytes, truncation, or values not descending (rows ride
/// ranked — see wire.hpp).
bool read_rows(const char** cursor, const char* end,
               std::vector<std::string>& labels,
               std::vector<std::uint64_t>& values) {
  std::uint64_t nrows = 0;
  if (!read_uvarint(cursor, end, nrows) || nrows > kMaxWireTopKRows) {
    return false;
  }
  // Plausibility before any allocation: each row is at least a
  // label_len byte + a value byte.
  if (2 * nrows > static_cast<std::uint64_t>(end - *cursor)) return false;
  labels.clear();
  values.clear();
  labels.reserve(static_cast<std::size_t>(nrows));
  values.reserve(static_cast<std::size_t>(nrows));
  for (std::uint64_t i = 0; i < nrows; ++i) {
    std::uint64_t label_len = 0;
    if (!read_uvarint(cursor, end, label_len) ||
        label_len > kMaxTopKLabelBytes ||
        label_len > static_cast<std::uint64_t>(end - *cursor)) {
      return false;
    }
    labels.emplace_back(*cursor, static_cast<std::size_t>(label_len));
    *cursor += label_len;
    std::uint64_t value = 0;
    if (!read_uvarint(cursor, end, value)) return false;
    if (!values.empty() && value > values.back()) return false;  // not ranked
    values.push_back(value);
  }
  return true;
}

/// Parses one DELTA entry: a key, then a scalar's value or a vector's
/// tag and body — 1: ranked top-k rows, never empty (an unchanged
/// directory does not ride a delta); ≥ 2: that many bucket counts;
/// 0: corrupt.
bool read_delta_entry(const char** cursor, const char* end,
                      DeltaEntry& entry) {
  std::uint64_t key = 0;
  if (!read_uvarint(cursor, end, key)) return false;
  entry.index = key >> 1;
  if ((key & 1) == 0) return read_uvarint(cursor, end, entry.value);
  std::uint64_t tag = 0;
  if (!read_uvarint(cursor, end, tag) || tag == 0) return false;
  if (tag >= 2) {
    return read_counts(cursor, end, tag, entry.buckets, entry.value);
  }
  if (!read_rows(cursor, end, entry.labels, entry.buckets) ||
      entry.labels.empty()) {
    return false;
  }
  entry.value = entry.buckets.front();
  return true;
}

}  // namespace

ApplyResult MaterializedView::apply_full(const char* cursor, const char* end,
                                         std::uint64_t sequence,
                                         std::uint64_t registry_version,
                                         std::uint64_t collect_ns) {
  std::uint64_t count = 0;
  if (!read_uvarint(&cursor, end, count)) return ApplyResult::kCorrupt;
  // Each entry costs ≥ 4 payload bytes (empty name: len + model + bound
  // + value); reject counts the remaining bytes cannot possibly hold
  // before reserving anything, and clamp the reserve regardless — a
  // corrupt-but-length-valid frame must cost O(bytes actually parsed),
  // not a count-sized allocation up front.
  if (count > static_cast<std::uint64_t>(end - cursor) / 4) {
    return ApplyResult::kCorrupt;
  }
  scratch_.clear();
  scratch_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, kReserveClamp)));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t name_len = 0;
    if (!read_uvarint(&cursor, end, name_len)) return ApplyResult::kCorrupt;
    if (name_len > static_cast<std::uint64_t>(end - cursor)) {
      return ApplyResult::kCorrupt;
    }
    shard::Sample sample;
    sample.name.assign(cursor, static_cast<std::size_t>(name_len));
    cursor += name_len;
    std::uint8_t model = 0;
    if (!read_u8(&cursor, end, model) ||
        model > static_cast<std::uint8_t>(shard::ErrorModel::kTopK)) {
      return ApplyResult::kCorrupt;
    }
    sample.model = static_cast<shard::ErrorModel>(model);
    if (!read_uvarint(&cursor, end, sample.error_bound)) {
      return ApplyResult::kCorrupt;
    }
    bool ok = true;
    if (sample.model == shard::ErrorModel::kTopK) {
      ok = read_rows(&cursor, end, sample.top_labels, sample.bucket_counts);
      sample.value =
          sample.bucket_counts.empty() ? 0 : sample.bucket_counts.front();
    } else if (sample.model == shard::ErrorModel::kHistogram) {
      ok = read_histogram(&cursor, end, sample);
    } else {
      ok = read_uvarint(&cursor, end, sample.value);
    }
    if (!ok) return ApplyResult::kCorrupt;
    scratch_.push_back(std::move(sample));
  }
  if (cursor != end) return ApplyResult::kCorrupt;  // trailing garbage
  // A replayed/reordered full frame from the past must not roll the view
  // back. Same sequence domain only (same registry version); a version
  // change restarts the table, so its full frame always applies.
  if (registry_version == registry_version_ && sequence <= sequence_) {
    ++stale_frames_skipped_;
    return ApplyResult::kApplied;
  }
  samples_.swap(scratch_);
  entry_update_seq_.assign(samples_.size(), sequence);
  sequence_ = sequence;
  registry_version_ = registry_version;
  collect_ns_ = collect_ns;
  last_data_sequence_ = sequence;  // a (re)based table is fresh data
  last_data_collect_ns_ = collect_ns;
  rebase_pending_ = false;  // the awaited re-basing full, if one was due
  ++frames_applied_;
  ++full_frames_;
  entries_updated_ += samples_.size();
  return ApplyResult::kApplied;
}

ApplyResult MaterializedView::apply_delta(const char* cursor, const char* end,
                                          std::uint64_t sequence,
                                          std::uint64_t registry_version,
                                          std::uint64_t collect_ns) {
  std::uint64_t base_seq = 0;
  std::uint64_t count = 0;
  if (!read_uvarint(&cursor, end, base_seq) ||
      !read_uvarint(&cursor, end, count)) {
    return ApplyResult::kCorrupt;
  }
  if (count > static_cast<std::uint64_t>(end - cursor) / 2) {
    return ApplyResult::kCorrupt;  // ≥ 2 bytes per entry; count is a lie
  }
  // Parse the whole entry list into scratch before touching the view:
  // a corrupt tail must not leave a half-applied frame. Clamped reserve
  // as in apply_full: allocation follows what actually parses.
  delta_scratch_.clear();
  delta_scratch_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, kReserveClamp)));
  for (std::uint64_t i = 0; i < count; ++i) {
    DeltaEntry entry;
    if (!read_delta_entry(&cursor, end, entry)) return ApplyResult::kCorrupt;
    if (entry.index >= samples_.size() && full_frames_ > 0 &&
        registry_version == registry_version_) {
      return ApplyResult::kCorrupt;  // index beyond the agreed name table
    }
    delta_scratch_.push_back(std::move(entry));
  }
  if (cursor != end) return ApplyResult::kCorrupt;
  // Deltas need an agreed base: same name table and no sequence gap.
  if (full_frames_ == 0 || registry_version != registry_version_ ||
      base_seq > sequence_) {
    return ApplyResult::kNeedFull;
  }
  if (sequence <= sequence_) {
    ++stale_frames_skipped_;  // duplicate/older delta; view already newer
    return ApplyResult::kApplied;
  }
  // Validate every entry against the agreed table BEFORE mutating: each
  // entry's shape (scalar / histogram counts / top-k rows) must match
  // its row's model — a histogram entry must match its row's bucket
  // count exactly, a top-k entry may only land on a top-k row (row
  // counts may grow as labels are admitted) — and a failed check must
  // leave the view untouched.
  for (const DeltaEntry& entry : delta_scratch_) {
    if (entry.index >= samples_.size()) return ApplyResult::kCorrupt;
    const shard::Sample& target = samples_[entry.index];
    if (!entry.labels.empty()) {
      if (target.model != shard::ErrorModel::kTopK) {
        return ApplyResult::kCorrupt;
      }
    } else if (!entry.buckets.empty()) {
      if (target.model != shard::ErrorModel::kHistogram ||
          entry.buckets.size() != target.bucket_counts.size()) {
        return ApplyResult::kCorrupt;
      }
    } else if (target.model == shard::ErrorModel::kHistogram ||
               target.model == shard::ErrorModel::kTopK) {
      return ApplyResult::kCorrupt;
    }
  }
  for (const DeltaEntry& entry : delta_scratch_) {
    shard::Sample& target = samples_[entry.index];
    if (!entry.labels.empty()) target.top_labels = entry.labels;
    if (!entry.buckets.empty()) target.bucket_counts = entry.buckets;
    target.value = entry.value;
    entry_update_seq_[entry.index] = sequence;
  }
  entries_updated_ += delta_scratch_.size();
  sequence_ = sequence;
  collect_ns_ = collect_ns;
  if (delta_scratch_.empty()) {
    ++heartbeat_frames_;  // stream freshness only; the data did not move
  } else {
    last_data_sequence_ = sequence;
    last_data_collect_ns_ = collect_ns;
  }
  ++frames_applied_;
  ++delta_frames_;
  return ApplyResult::kApplied;
}

}  // namespace approx::svc
