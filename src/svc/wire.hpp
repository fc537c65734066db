// wire.hpp — the telemetry wire format: TelemetryFrame as bytes.
//
// The service layer (src/svc) ships registry snapshots off-process. The
// format is compact and self-describing, mirroring what the in-process
// TelemetryFrame already guarantees: every figure carries its error
// model + bound, so a consumer can interpret it without knowing how the
// counter was configured. There is one protocol version,
// kWireVersion = 6, and every record carries it; a decoder rejects any
// other version byte.
//
// (uv = unsigned LEB128 varint; u32le = little-endian fixed 32-bit.)
//
//   prefix   := magic[2] version:u8 kind:u8        (every record below)
//
// Data channel (server→client):
//
//   stream   := { u32le payload_length, payload }*
//   payload  := prefix header body                 (FULL, DELTA, METRICSZ)
//             | prefix shm_offer                   (SHM_OFFER: no header)
//   header   := sequence:uv registry_version:uv collect_ns:uv
//   full     := count:uv { name_len:uv name model:u8 bound:uv fbody }*
//   fbody    := value:uv                           — model 0–2 (scalar)
//             | hist                               — model 3
//             | rows                               — model 4 (top-k)
//   hist     := nbuckets:uv edge0:uv { edge_diff:uv }*(nbuckets−2)
//               { count:uv }*nbuckets
//   rows     := nrows:uv { label_len:uv label value:uv }*
//   delta    := base_seq:uv count:uv { key:uv dbody }*
//   key      := index·2 + (1 iff the entry is a vector)
//   dbody    := value:uv                           — even key (scalar)
//             | tag:uv rows                        — odd key, tag = 1
//             | tag:uv { count:uv }*tag            — odd key, tag ≥ 2
//   metricsz := text bytes (rest of payload)
//   shm_offer:= name_len:uv name generation:uv
//               slot_count:uv slot_payload_bytes:uv
//
// Control channel (client→server, same socket):
//
//   inbound  := { ack | control }*
//   ack      := 0xAC seq:uv
//   control  := 0xC5 u32le payload_length prefix cbody
//   cbody    := exact_count:uv { len:uv name }*
//               prefix_count:uv { len:uv prefix }*  (SUBSCRIBE)
//             | generation:uv                      (SHM_ACCEPT)
//             | (empty)             (RESYNC, SHM_REQUEST, METRICSZ_REQUEST)
//
// Name-table interning: a FULL frame carries each entry's name, model
// and bound once, in the registry's name-sorted flat-table order — that
// order IS the name table. A DELTA frame then references entries by
// table index only, carrying just those that changed since `base_seq`
// (the rows a sequenced pass's record stamps after it); an empty delta
// is the unchanged-fleet heartbeat. A delta key below 128 (a scalar at
// index < 64) is one byte. Deltas are only meaningful against the same
// `registry_version` (otherwise the table grew — the server sends a
// full frame instead, and a decoder must reject the mismatch with
// kNeedFull).
//
// Vector entries. A histogram (model 3) ships its bucket edges as edge0
// + strictly-positive diffs; nbuckets counts buckets INCLUDING the
// overflow bucket, so there are nbuckets−1 finite edges, and a delta
// ships the counts alone (tag = nbuckets ≥ 2). A top-k directory
// (model 4) ships ranked rows, value-descending as the registry
// collects them; a delta ships the whole list (tag 1) and is never
// empty. Neither kind ships its scalar value: decoders derive a
// histogram's as the saturated count sum and a top-k's as its top
// row's (0 when empty). Decoders reject bucket counts beyond
// kMaxWireBuckets, row counts beyond kMaxWireTopKRows, labels beyond
// kMaxTopKLabelBytes and unranked rows, each before allocating.
//
// SUBSCRIBE installs a subscription filter: the client henceforth
// receives only entries whose name is in `exact` or starts with one of
// `prefixes` (both lists empty = everything). The server answers with a
// FULL frame of the matching subset — the subset of a name-sorted table
// is itself name-sorted, so that frame simply *is* the client's new
// name table and later DELTA indices are subset positions. RESYNC asks
// for an immediate fresh FULL frame of the client's current subset.
//
// SHM_REQUEST asks a same-host server for its shared-memory snapshot
// ring; a server with a healthy ring answers on the data channel with
// SHM_OFFER (solicited only), the client maps the segment and confirms
// with SHM_ACCEPT, after which per-tick data frames ride the ring while
// the TCP connection stays up for control, liveness and resync fulls.
// METRICSZ_REQUEST asks for one METRICSZ frame of exposition text,
// stamped with the tick it was rendered from (solicited only too).
//
// collect_ns is the server's steady-clock timestamp (nanoseconds) of the
// collect pass the frame's values come from — every data frame,
// per-client catch-up deltas included, carries its tick's stamp.
// Same-host consumers subtract it from their own steady clock for
// end-to-end latency, and every frame (heartbeats included) refreshes
// it. 0 = not recorded. Steady-clock values are process-portable on one
// host but NOT across hosts.
//
// Decode safety: every read is bounds-checked; a truncated buffer, bad
// magic/version/kind/model/tag byte, overlong varint, out-of-range
// delta index, delta shape that does not match its row, or trailing
// garbage yields kCorrupt and leaves the MaterializedView untouched
// (frames are parsed and validated in scratch storage before being
// applied).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "shard/aggregator.hpp"
#include "shard/registry.hpp"

namespace approx::svc {

inline constexpr unsigned char kWireMagic0 = 0xA5;
inline constexpr unsigned char kWireMagic1 = 0xC7;
/// The protocol version every record carries (prefix byte 2).
inline constexpr std::uint8_t kWireVersion = 6;

/// Record kinds on the wire (prefix byte 3).
enum class FrameKind : std::uint8_t {
  kFull = 0,        // complete snapshot incl. the name table
  kDelta = 1,       // changed entries since base_seq
  kSubscribe = 2,   // client→server: install a subscription filter
  kResync = 3,      // client→server: send a fresh full now
  kShmRequest = 4,  // client→server: offer me your shm ring
  kShmOffer = 5,    // server→client data channel: ring coordinates
  kShmAccept = 6,   // client→server: ring mapped, stop TCP data
  kMetricszRequest = 7,  // client→server: send one metricsz text
  kMetricsz = 8,         // server→client data channel: exposition
};

/// One changed entry in a delta frame: flat-table index + new value.
/// A vector (histogram) entry carries its full bucket-count vector in
/// `buckets` and ignores `value` (the wire never ships it; decoders
/// derive the sum); a scalar entry leaves `buckets` empty. A labeled
/// (top-k) entry carries its ranked row labels in `labels` with the
/// matching row values in `buckets` (value = the top row's, derived).
struct DeltaEntry {
  DeltaEntry() = default;
  DeltaEntry(std::uint64_t index_arg, std::uint64_t value_arg,
             std::vector<std::uint64_t> buckets_arg = {},
             std::vector<std::string> labels_arg = {})
      : index(index_arg), value(value_arg), buckets(std::move(buckets_arg)),
        labels(std::move(labels_arg)) {}
  std::uint64_t index = 0;
  std::uint64_t value = 0;
  std::vector<std::uint64_t> buckets;
  std::vector<std::string> labels;  // top-k rows only
};

/// Bytes the stream framing adds in front of every payload (u32le
/// length).
inline constexpr std::size_t kFramePrefixBytes = 4;

// --- control channel (client→server) ----------------------------------

/// Type byte introducing an inbound control record (vs 0xAC for acks).
inline constexpr unsigned char kControlByte = 0xC5;

/// Bytes of inbound control framing: type byte + u32le payload length.
inline constexpr std::size_t kControlPrefixBytes = 5;

/// Decode-hardening limits: a SUBSCRIBE frame beyond any of these is
/// malformed, full stop — the server closes the speaker rather than
/// letting an untrusted count command a large allocation.
inline constexpr std::size_t kMaxControlPayload = 128 * 1024;
inline constexpr std::size_t kMaxFilterEntries = 128;    // per list
inline constexpr std::size_t kMaxFilterNameBytes = 256;  // per name/prefix
/// Largest bucket count a histogram entry may claim. Must cover every
/// histogram the stats layer can build (stats::kMaxHistogramBuckets
/// equals it; stats.cpp static_asserts the two stay in lockstep).
inline constexpr std::size_t kMaxWireBuckets = 512;
/// Longest shm segment name an SHM_OFFER may carry (ours are ~40
/// bytes; POSIX portable shm names are NAME_MAX-ish).
inline constexpr std::size_t kMaxShmNameBytes = 128;
/// Largest row count a top-k entry may claim. Must cover every
/// directory the stats layer publishes (stats::kMaxTopKRows equals it;
/// stats.cpp static_asserts the two stay in lockstep).
inline constexpr std::size_t kMaxWireTopKRows = 64;
/// Longest label a top-k row may carry.
inline constexpr std::size_t kMaxTopKLabelBytes = 128;

/// A subscription filter: which counters a subscriber wants. A name
/// matches if it equals one of `exact` or starts with one of
/// `prefixes`; both lists empty means "everything".
struct SubscriptionFilter {
  std::vector<std::string> exact;
  std::vector<std::string> prefixes;

  [[nodiscard]] bool pass_all() const noexcept {
    return exact.empty() && prefixes.empty();
  }
  [[nodiscard]] bool matches(std::string_view name) const;

  /// Sorts + dedupes both lists. Two filters selecting the same set the
  /// same way normalize to equal lists — the basis of canonical_key().
  void normalize();

  /// Injective encoding of the (normalized) lists; the server keys its
  /// per-filter-group encode cache on it, so identically-filtered
  /// subscribers land in one group and share one encode per tick.
  [[nodiscard]] std::string canonical_key() const;

  /// True when every list/name is within the decode-hardening limits —
  /// the only filters encode_subscribe_record will emit.
  [[nodiscard]] bool within_limits() const noexcept;
};

/// Encodes a send-ready SUBSCRIBE record (control framing + payload)
/// into `out`. False (out cleared) if `filter` exceeds the limits.
bool encode_subscribe_record(const SubscriptionFilter& filter,
                             std::string& out);

/// Encodes a send-ready RESYNC record into `out`.
void encode_resync_record(std::string& out);

// --- shared-memory ring negotiation -----------------------------------

/// The coordinates an SHM_OFFER carries: everything a same-host client
/// needs to map the server's snapshot ring and verify it attached to
/// the offering incarnation (the generation doubles as the ring's
/// writer-restart detector — see base/seqlock_ring.hpp).
struct ShmOffer {
  std::string name;  // POSIX shm segment name ("/approx-ring-...")
  std::uint64_t generation = 0;
  std::uint32_t slot_count = 0;
  std::uint64_t slot_payload_bytes = 0;
};

/// Encodes a send-ready SHM_REQUEST control record into `out`.
void encode_shm_request_record(std::string& out);

/// Encodes a send-ready SHM_ACCEPT control record into `out`.
void encode_shm_accept_record(std::uint64_t generation, std::string& out);

/// Encodes `offer` as a stream-ready DATA-channel frame (u32le length +
/// record prefix + body). False (out cleared) on an empty or over-long name.
bool encode_shm_offer_frame(const ShmOffer& offer, std::string& out);

/// Strictly decodes a data-channel payload as an SHM_OFFER. False when
/// the payload is not a (well-formed) offer — the caller then hands it
/// to MaterializedView::apply as usual. Clients MUST try this before
/// apply(): the view rejects the SHM_OFFER kind as corrupt.
bool decode_shm_offer(std::string_view payload, ShmOffer& out);

/// A decoded control payload (SUBSCRIBE carries its filter, normalized;
/// SHM_ACCEPT carries the accepted ring generation; the rest carry
/// nothing).
struct ControlFrame {
  FrameKind kind = FrameKind::kResync;
  SubscriptionFilter filter;
  std::uint64_t shm_generation = 0;  // kShmAccept only
};

/// Decodes one control payload (the bytes AFTER the 0xC5 + u32le
/// framing). False on anything malformed: bad magic/version/kind,
/// truncation, a count or name length beyond the limits, or trailing
/// garbage. `out` is unspecified on failure.
bool decode_control_payload(std::string_view payload, ControlFrame& out);

// --- metricsz exposition ----------------------------------------------

/// Encodes a send-ready METRICSZ_REQUEST control record into `out`.
void encode_metricsz_request_record(std::string& out);

/// Encodes exposition `text` as a stream-ready METRICSZ data-channel
/// frame (u32le length + prefix + header + text bytes). The header stamps the
/// frame's source snapshot: sequence/registry_version/collect_ns of the
/// tick the text was rendered from.
void encode_metricsz_frame(std::uint64_t sequence,
                           std::uint64_t registry_version,
                           std::uint64_t collect_ns, std::string_view text,
                           std::string& out);

/// Strictly decodes a data-channel payload as a METRICSZ frame. False
/// when the payload is not one — the caller then hands it to
/// MaterializedView::apply as usual (same try-before-apply discipline as
/// decode_shm_offer: the view rejects the unknown kind as corrupt).
bool decode_metricsz(std::string_view payload, std::string& text);

/// Steady-clock "now" in nanoseconds — the clock collect_ns stamps use
/// (comparable across threads/processes on ONE host; see header).
std::uint64_t steady_now_ns();

// --- primitive encoding (exposed for tests) ---------------------------

/// Appends `value` as an unsigned LEB128 varint (1–10 bytes).
void append_uvarint(std::string& out, std::uint64_t value);

/// Reads a varint from [*cursor, end); advances *cursor past it. False on
/// truncation or an overlong (> 10 byte / overflowing) encoding.
bool read_uvarint(const char** cursor, const char* end, std::uint64_t& value);

/// Reads the little-endian fixed 32-bit the stream/control framing uses
/// (caller guarantees 4 readable bytes at `p`).
std::uint32_t read_u32le(const char* p);

// --- frame encoding ---------------------------------------------------

/// Encodes `frame` as a stream-ready FULL frame: out is cleared and
/// filled with the u32le length prefix followed by the payload.
/// `collect_ns` stamps the header (0 = unknown). A filter group's full
/// is the same frame over the group's rows: a subset of the name-sorted
/// table keeps its order, so it is the receiving view's complete name
/// table and later deltas index into it positionally.
void encode_full_frame(const shard::TelemetryFrame& frame,
                       std::uint64_t collect_ns, std::string& out);

/// Encodes a stream-ready DELTA frame carrying `entries` (flat-table
/// index + value, any order) relative to `base_seq`: a view at sequence
/// `base_seq` (or newer, same registry_version) becomes sequence
/// `sequence` after applying it. An empty `entries` is valid — the
/// unchanged-fleet heartbeat. An entry with `labels` rides as top-k
/// rows, else one with `buckets` as histogram counts, else as a scalar.
void encode_delta_frame(std::uint64_t sequence, std::uint64_t registry_version,
                        std::uint64_t collect_ns, std::uint64_t base_seq,
                        const std::vector<DeltaEntry>& entries,
                        std::string& out);

/// The same DELTA frame read straight from a sequenced pass: one record
/// per row of `selection` (ascending flat rows; null = every row)
/// stamped after `base_seq` in `tick`, carrying the tick's reading under
/// the row's position in the selection — the receiving view's name
/// table index. Every record comes from that one pass, so the frame
/// moves a view at `base_seq` to exactly `tick`. Both forms share one
/// record writer, so equal records encode to equal bytes.
void encode_delta_frame(std::uint64_t sequence, std::uint64_t registry_version,
                        std::uint64_t collect_ns, std::uint64_t base_seq,
                        const shard::TickRecord& tick,
                        const std::vector<std::uint64_t>* selection,
                        std::string& out);

// --- decoding ---------------------------------------------------------

/// Outcome of applying one payload to a MaterializedView.
enum class ApplyResult : std::uint8_t {
  kApplied,   // view updated (or a stale/duplicate frame skipped)
  kCorrupt,   // malformed bytes; view untouched
  kNeedFull,  // well-formed delta the view has no base for (registry
              // version mismatch or a sequence gap); view untouched —
              // the consumer should wait for / request a full frame
};

/// Client-side materialization of a full+delta stream: the decoded fleet
/// view plus the staleness metadata a dashboard needs to caveat what it
/// shows. Samples keep the server's name-sorted flat-table order, so
/// delta indices apply positionally.
///
/// Subset tracking: after a SUBSCRIBE, the server's next FULL
/// frame carries only the matching counters — that frame re-bases the
/// view, whose table then IS the subscription. Absent (unsubscribed)
/// entries are simply not in the table, so nothing here can misread
/// them as stale; per-entry ages stay meaningful because every entry
/// the view holds is one the stream keeps updating. Between sending a
/// SUBSCRIBE/RESYNC and the re-basing full, the view still shows the
/// previous table — expect_rebase()/rebase_pending() let a consumer
/// caveat that window.
class MaterializedView {
 public:
  /// Applies one frame payload (WITHOUT the u32le stream prefix).
  ApplyResult apply(std::string_view payload);

  /// Marks the view as awaiting a re-basing full frame (a filter change
  /// or resync is in flight); cleared when the next full applies.
  void expect_rebase() noexcept { rebase_pending_ = true; }
  [[nodiscard]] bool rebase_pending() const noexcept {
    return rebase_pending_;
  }

  /// Decoded samples, name-sorted (server flat-table order). Values are
  /// as of each entry's last applied frame; entry_update_seq() tells
  /// which.
  [[nodiscard]] const std::vector<shard::Sample>& samples() const noexcept {
    return samples_;
  }

  /// Per-sample sequence of the frame that last wrote its value —
  /// per-counter staleness: sequence() − entry_update_seq()[i] frames
  /// have passed since counter i moved.
  [[nodiscard]] const std::vector<std::uint64_t>& entry_update_seq()
      const noexcept {
    return entry_update_seq_;
  }

  /// Sequence of the newest applied frame (0 = nothing applied yet).
  [[nodiscard]] std::uint64_t sequence() const noexcept { return sequence_; }

  /// Registry version the current name table reflects.
  [[nodiscard]] std::uint64_t registry_version() const noexcept {
    return registry_version_;
  }

  /// collect_ns stamp of the newest applied frame (the server's steady
  /// clock at the collect its values come from; 0 = server did not
  /// stamp).
  /// Advances on heartbeats too — this is STREAM freshness ("how stale
  /// is my connection"), as opposed to the data-freshness pair below.
  [[nodiscard]] std::uint64_t last_collect_ns() const noexcept {
    return collect_ns_;
  }

  /// DATA freshness: sequence/stamp of the newest frame that actually
  /// changed the table (wrote ≥ 1 entry or re-based it) — heartbeats
  /// advance sequence()/last_collect_ns() but not these. sequence() −
  /// last_data_sequence() is "frames since anything I watch moved".
  [[nodiscard]] std::uint64_t last_data_sequence() const noexcept {
    return last_data_sequence_;
  }
  [[nodiscard]] std::uint64_t last_data_collect_ns() const noexcept {
    return last_data_collect_ns_;
  }

  // Stream statistics (staleness / health metadata).
  [[nodiscard]] std::uint64_t frames_applied() const noexcept {
    return frames_applied_;
  }
  [[nodiscard]] std::uint64_t full_frames() const noexcept {
    return full_frames_;
  }
  [[nodiscard]] std::uint64_t delta_frames() const noexcept {
    return delta_frames_;
  }
  /// Applied deltas that carried no entries (liveness heartbeats).
  [[nodiscard]] std::uint64_t heartbeat_frames() const noexcept {
    return heartbeat_frames_;
  }
  [[nodiscard]] std::uint64_t entries_updated() const noexcept {
    return entries_updated_;
  }
  /// Well-formed frames skipped as stale (sequence ≤ current).
  [[nodiscard]] std::uint64_t stale_frames_skipped() const noexcept {
    return stale_frames_skipped_;
  }

 private:
  ApplyResult apply_full(const char* cursor, const char* end,
                         std::uint64_t sequence,
                         std::uint64_t registry_version,
                         std::uint64_t collect_ns);
  ApplyResult apply_delta(const char* cursor, const char* end,
                          std::uint64_t sequence,
                          std::uint64_t registry_version,
                          std::uint64_t collect_ns);

  std::vector<shard::Sample> samples_;
  std::vector<std::uint64_t> entry_update_seq_;
  std::uint64_t sequence_ = 0;
  std::uint64_t registry_version_ = 0;
  std::uint64_t collect_ns_ = 0;
  std::uint64_t last_data_sequence_ = 0;
  std::uint64_t last_data_collect_ns_ = 0;
  std::uint64_t frames_applied_ = 0;
  std::uint64_t full_frames_ = 0;
  std::uint64_t delta_frames_ = 0;
  std::uint64_t heartbeat_frames_ = 0;
  std::uint64_t entries_updated_ = 0;
  std::uint64_t stale_frames_skipped_ = 0;
  bool rebase_pending_ = false;  // filter change / resync in flight
  std::vector<shard::Sample> scratch_;  // full-frame parse staging
  std::vector<DeltaEntry> delta_scratch_;
};

}  // namespace approx::svc
