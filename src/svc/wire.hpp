// wire.hpp — the telemetry wire format: TelemetryFrame as bytes.
//
// The service layer (src/svc) ships registry snapshots off-process. The
// format is compact, versioned and self-describing, mirroring what the
// in-process TelemetryFrame already guarantees (every figure carries its
// error model + bound):
//
//   stream   := { u32le payload_length, payload }*        (server→client)
//   payload  := header body
//   header   := magic[2] version:u8 kind:u8
//               sequence:uv registry_version:uv collect_ns:uv
//   full     := count:uv { name_len:uv name model:u8 bound:uv value:uv }*
//   delta    := base_seq:uv count:uv { index:uv value:uv }*
//
// (uv = unsigned LEB128 varint; u32le = little-endian fixed 32-bit.)
//
// Protocol v4 adds vector-valued (histogram) entries. A data frame that
// carries at least one vector entry is stamped header version 4; a
// frame whose entries are all scalars keeps the frozen v1 byte stream
// EXACTLY (a scalar-only fleet is byte-identical under a v4 server, and
// an idle histogram drops out of deltas entirely, so steady-state delta
// bytes do not move). Old clients reject the unknown version byte as
// corrupt instead of misdecoding — vector entries never reach a decoder
// that cannot represent them. The v4 grammar:
//
//   full4    := count:uv { name_len:uv name model:u8 bound:uv
//                          ( value:uv                       — model ≤ 2
//                          | nbuckets:uv edge0:uv
//                            { edge_diff:uv }*(nbuckets−2)
//                            { count:uv }*nbuckets ) }*     — model = 3
//   delta4   := base_seq:uv count:uv
//               { index:uv nbuckets:uv
//                 ( value:uv                                — nbuckets = 0
//                 | { count:uv }*nbuckets ) }*              — nbuckets ≥ 2
//
// A vector entry's bucket edges ride as edge0 + strictly-positive
// diffs (ascending by construction); nbuckets counts buckets INCLUDING
// the overflow bucket, so there are nbuckets−1 finite edges. No scalar
// value rides the wire for a vector entry — the decoder derives it as
// the saturated count sum. nbuckets is bounded by kMaxWireBuckets and a
// bytes-remaining plausibility check before any allocation.
//
// Protocol v5 adds labeled (top-k) vector entries and the metricsz
// exposition pair. The version-stamping rule is the same ratchet as v4:
// a data frame is stamped 5 only when a top-k entry actually rides it,
// 4 when its vectors are all histograms, and the frozen 1 when every
// entry is scalar — existing fleets do not move a byte. The v5 grammar:
//
//   full5    := full4, plus model = 4 (top-k) entries whose body is
//                 nrows:uv { label_len:uv label value:uv }*
//   delta5   := base_seq:uv count:uv
//               { index:uv tag:uv
//                 ( value:uv                                — tag = 0
//                 | nrows:uv { label_len:uv label value:uv }* — tag = 1
//                 | { count:uv }*tag ) }*                   — tag ≥ 2
//
// (tag reuses the v4 nbuckets position: 0 still marks a scalar, ≥ 2 is
// still a histogram's bucket count — 1 is impossible as a bucket count,
// so v5 claims it for top-k rows.) Rows ride ranked: value-descending,
// exactly as the registry collects them; decoders reject a non-sorted
// row list along with over-limit row counts (kMaxWireTopKRows) and
// label lengths (kMaxTopKLabelBytes). A top-k entry's scalar value is
// its top row's value (0 when empty) — derived, never shipped.
//
// metricsz (v5) is the self-observability exposition pair: a client
// sends a bodyless METRICSZ_REQUEST control record; the server answers
// on the DATA channel with one METRICSZ frame whose body is plain
// exposition text (solicited only, like SHM_OFFER, so a client that
// never asks never sees the unknown kind):
//
//   metricsz_req := (empty)                               (kind 7, c→s)
//   metricsz     := text bytes (rest of payload)          (kind 8, s→c)
//
// Protocol v2 adds a client→server control channel on the same socket.
// Inbound records are type-byte discriminated (an 0xAC ack record is
// unchanged from v1; v1 clients never send anything else, which is the
// whole backward-compatibility story):
//
//   inbound  := { ack | control }*                        (client→server)
//   ack      := 0xAC seq:uv                               (v1)
//   control  := 0xC5 u32le payload_length cpayload        (v2)
//   cpayload := magic[2] version:u8 kind:u8 cbody
//   subscribe:= exact_count:uv { len:uv name }*
//               prefix_count:uv { len:uv prefix }*        (kind 2)
//   resync   := (empty)                                   (kind 3)
//
// Protocol v3 adds the same-host shared-memory ring negotiation. A
// client that wants the zero-syscall read path sends SHM_REQUEST; the
// server — iff it has a healthy ring — answers on the DATA channel with
// SHM_OFFER (stream framing, v3 header; solicited only, so a v1/v2
// client that never asks never sees an unknown frame); the client maps
// the segment and confirms with SHM_ACCEPT, after which the server
// stops sending it per-tick data frames (the ring carries them) while
// the TCP connection stays up for control, liveness and resync fulls:
//
//   shm_req  := (empty)                                   (kind 4, c→s)
//   shm_offer:= name_len:uv name generation:uv
//               slot_count:uv slot_payload_bytes:uv       (kind 5, s→c)
//   shm_acc  := generation:uv                             (kind 6, c→s)
//
// The header version byte names the protocol revision that introduced
// the frame's layout: FULL/DELTA are v1 layouts (frozen — a v2 server's
// data frames still decode on a v1 client), SUBSCRIBE/RESYNC are v2,
// the SHM records are v3. A decoder accepts a frame iff it knows that
// (version, kind) pair.
//
// SUBSCRIBE installs a subscription filter: the client henceforth
// receives only counters whose name is in `exact` or starts with one of
// `prefixes` (both lists empty = everything, v1 behavior). The server
// answers with a FULL frame of the matching subset — the subset of a
// name-sorted table is itself name-sorted, so that frame simply *is*
// the client's new name table and subsequent DELTA indices are subset
// positions; MaterializedView needs no new decode path to track a
// subset. RESYNC asks for an immediate fresh FULL frame (of the
// client's current subset) without waiting for a table change.
//
// Name-table interning: a FULL frame carries each counter's name, model
// and bound once, in the registry's name-sorted flat-table order — that
// order IS the name table. A DELTA frame then references counters by
// flat-table index only, carrying just the values that changed since
// `base_seq` (the registry's for_each_changed_since walk): on the
// 48-counter / 4-hot fleet E17 measures, a steady-state delta is an
// order of magnitude smaller than the full frame. Deltas are only
// meaningful against the same `registry_version` (the table grew
// otherwise — the server falls back to a full frame, and a decoder must
// reject the mismatch with kNeedFull).
//
// collect_ns is the server's steady-clock timestamp (nanoseconds) taken
// when the frame was ENCODED — for the shared per-tick frames that is
// the moment their samples were collected; a per-client catch-up delta
// is stamped at its own encode. Same-host consumers (E17's load
// generator) subtract it from their own steady clock for end-to-end
// latency, and every frame (heartbeats included) refreshes it. 0 = not
// recorded. Steady-clock values are process-portable on one host but
// NOT across hosts; cross-host consumers should treat it as opaque.
//
// Decode safety: every read is bounds-checked; a truncated buffer, bad
// magic/version/kind/model byte, overlong varint or out-of-range delta
// index yields kCorrupt and leaves the MaterializedView untouched
// (frames are parsed into scratch storage before being applied).
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
/// Layout version of scalar-only DATA frames (FULL/DELTA). Frozen at 1:
/// the v2/v3 protocol upgrades added control frames without touching the
/// data layout, and v4 stamps its version byte only on frames that
/// actually carry a vector entry — so v1 clients keep decoding every
/// scalar frame any newer server emits.
inline constexpr std::uint8_t kWireVersion = 1;
/// Layout version of DATA frames carrying ≥ 1 vector (histogram) entry.
inline constexpr std::uint8_t kVectorVersion = 4;
/// Layout version of DATA frames carrying ≥ 1 labeled (top-k) entry,
/// and of the metricsz exposition records (the v5 additions).
inline constexpr std::uint8_t kTopKVersion = 5;
/// Layout version of the CONTROL frames (SUBSCRIBE/RESYNC) — the v2
/// additions.
inline constexpr std::uint8_t kControlVersion = 2;
/// Layout version of the shared-memory negotiation records (v3).
inline constexpr std::uint8_t kShmVersion = 3;

/// Frame kinds on the wire (header byte 3).
enum class FrameKind : std::uint8_t {
  kFull = 0,        // complete snapshot incl. the name table (v1)
  kDelta = 1,       // changed (index, value) pairs since base_seq (v1)
  kSubscribe = 2,   // client→server: install a subscription filter (v2)
  kResync = 3,      // client→server: send a fresh full now (v2)
  kShmRequest = 4,  // client→server: offer me your shm ring (v3)
  kShmOffer = 5,    // server→client data channel: ring coordinates (v3)
  kShmAccept = 6,   // client→server: ring mapped, stop TCP data (v3)
  kMetricszRequest = 7,  // client→server: send one metricsz text (v5)
  kMetricsz = 8,         // server→client data channel: exposition (v5)
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

// --- v2 control channel (client→server) -------------------------------

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
/// Largest bucket count a v4 vector entry may claim. Must cover every
/// histogram the stats layer can build (stats::kMaxHistogramBuckets
/// equals it; stats.cpp static_asserts the two stay in lockstep).
inline constexpr std::size_t kMaxWireBuckets = 512;
/// Longest shm segment name an SHM_OFFER may carry (ours are ~40
/// bytes; POSIX portable shm names are NAME_MAX-ish).
inline constexpr std::size_t kMaxShmNameBytes = 128;
/// Largest row count a v5 top-k entry may claim. Must cover every
/// directory the stats layer publishes (stats::kMaxTopKRows equals it;
/// stats.cpp static_asserts the two stay in lockstep).
inline constexpr std::size_t kMaxWireTopKRows = 64;
/// Longest label a v5 top-k row may carry.
inline constexpr std::size_t kMaxTopKLabelBytes = 128;

/// A subscription filter: which counters a subscriber wants. A name
/// matches if it equals one of `exact` or starts with one of
/// `prefixes`; both lists empty means "everything" (v1 behavior).
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

// --- v3 shared-memory ring negotiation --------------------------------

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

/// Encodes `offer` as a stream-ready DATA-channel frame (u32le prefix +
/// v3 header + body). False (out cleared) on an over-long name.
bool encode_shm_offer_frame(const ShmOffer& offer, std::string& out);

/// Strictly decodes a data-channel payload as an SHM_OFFER. False when
/// the payload is not a (well-formed) v3 offer — the caller then hands
/// it to MaterializedView::apply as usual. Clients MUST try this before
/// apply(): the view rejects the v3 version byte as corrupt.
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

// --- v5 metricsz exposition -------------------------------------------

/// Encodes a send-ready METRICSZ_REQUEST control record into `out`.
void encode_metricsz_request_record(std::string& out);

/// Encodes exposition `text` as a stream-ready METRICSZ data-channel
/// frame (u32le prefix + v5 header + text bytes). The header stamps the
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
/// unchanged-fleet heartbeat. The frame is stamped version 5 iff some
/// entry carries labels (top-k rows), else 4 iff some entry carries
/// buckets; otherwise the bytes are exactly the frozen v1 layout.
void encode_delta_frame(std::uint64_t sequence, std::uint64_t registry_version,
                        std::uint64_t collect_ns, std::uint64_t base_seq,
                        const std::vector<DeltaEntry>& entries,
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
/// Subset tracking (wire v2): after a SUBSCRIBE, the server's next FULL
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
  /// clock when the frame was encoded; 0 = server did not stamp).
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
                         std::uint64_t collect_ns, std::uint8_t version);
  ApplyResult apply_delta(const char* cursor, const char* end,
                          std::uint64_t sequence,
                          std::uint64_t registry_version,
                          std::uint64_t collect_ns, std::uint8_t version);

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
