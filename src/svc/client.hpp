// client.hpp — TelemetryClient: subscribe to a SnapshotServer stream.
//
// The consuming half of the service layer, used by tests, the E17 load
// generator and examples/telemetry_dashboard. A client owns one TCP
// connection and one MaterializedView; poll_frame() blocks (bounded)
// for the next frame on the wire, applies it to the view, acks it, and
// records receive-side staleness metadata:
//
//   * last_latency_ns() — end-to-end collect→apply latency of the last
//     frame, from the server's steady-clock stamp (same-host only; 0
//     when the server did not stamp or clocks are not comparable);
//   * bytes/frame counters split by kind (full vs delta) — the numbers
//     E17's full-vs-delta comparison reports;
//   * the view's own sequence/entry_update_seq staleness (wire.hpp).
//
// A kNeedFull delta (version change raced past us) is skipped and the
// stream keeps going — the server hands mismatched subscribers a full
// frame on its next tick. Corrupt bytes close the connection: after a
// framing error nothing downstream can be trusted.
//
// Control channel: subscribe(filter) asks the server for a named
// subset of the fleet (exact names and/or prefixes; an empty filter is
// the everything-stream), and request_resync() asks for an immediate
// fresh full of the current subset — recovery the CLIENT drives,
// instead of waiting out the server's next table change. Both mark the
// view rebase-pending until the re-basing full applies (at the server's
// next tick at the latest). Control records ride the same
// socket as acks; a record is never split (whole records or nothing),
// so the outbound stream cannot desync.
//
// Shm transport: request_shm() asks a same-host server for its
// shared-memory snapshot ring. When the SHM_OFFER arrives, poll_frame
// maps the segment read-only, confirms with SHM_ACCEPT, and from then
// on pulls data frames out of the ring: no socket round-trip, no data
// bytes through the kernel, no acks, zero per-reader work on the
// server. Waiting rides the ring's futex doorbell (one shared wake per
// tick), so ring frames arrive at scheduler speed; the TCP connection
// stays up for control, liveness and recovery, checked without
// blocking on every doorbell wake. A reader that loses the seqlock
// race or falls a full ring behind (overrun) skips to the ring's head
// and RESYNCs; the server demotes it to TCP (recovery full, then live
// deltas) until a ring frame applies cleanly again, at which point the
// client re-ACCEPTs and the data path moves back off the socket —
// mirroring the initial adoption handoff. A dead ring (server
// restart, broken segment) drops the client back to plain TCP frames.
// Every filter group has its own ring, so subscribe() always detaches
// the ring first; request_shm() after it asks for the new group's.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "svc/shm.hpp"
#include "svc/wire.hpp"

namespace approx::obs {
class TraceRing;
}  // namespace approx::obs

namespace approx::svc {

class TelemetryClient {
 public:
  TelemetryClient() = default;
  ~TelemetryClient();

  TelemetryClient(const TelemetryClient&) = delete;
  TelemetryClient& operator=(const TelemetryClient&) = delete;

  /// Connects to a server on `host`:`port` (default loopback, matching
  /// where SnapshotServer binds). False on failure; retryable.
  /// `rcvbuf` > 0 shrinks SO_RCVBUF (set pre-connect so the TCP window
  /// honors it) — with the server's sndbuf knob, tests bound the bytes
  /// in flight to force the backpressure/coalescing path.
  bool connect(std::uint16_t port, const std::string& host = "127.0.0.1",
               int rcvbuf = 0);

  /// Blocks until one frame is received AND applied to the view (then
  /// acks it), or `timeout` elapses. Skipped frames (stale duplicates,
  /// kNeedFull deltas) do not count — the call keeps waiting for a
  /// frame that advances the view. False on timeout, disconnect, or a
  /// corrupt stream (the latter two also close()).
  bool poll_frame(std::chrono::milliseconds timeout);

  /// Sends a SUBSCRIBE control record: from the server's next tick the
  /// stream carries only counters the filter matches (empty filter =
  /// everything again). The next full frame re-bases the view onto the
  /// subset. view().rebase_pending() stays true until a full CONSISTENT
  /// with this subscription applies: newer than the view was at this
  /// call, and (for a selective filter) a table the filter admits.
  /// That blocks the common false all-clear — an in-flight full whose
  /// table the new filter does not admit — but consistency is judged
  /// client-side, so a racing full whose table the filter happens to
  /// admit (a pass-all subscription, a rapid re-subscribe to a
  /// superset of the previous filter, a fleet that fits the filter
  /// entirely) can clear the flag one tick before the true re-basing
  /// full; exact detection would need the server to echo a
  /// subscription generation, which the wire does not carry. False if
  /// disconnected or the filter exceeds the wire limits (nothing is
  /// sent).
  bool subscribe(const SubscriptionFilter& filter);

  /// Sends a RESYNC control record: the server's next frame for this
  /// subscriber is a fresh full of its current subset, within one tick
  /// — no waiting for a table change. Use after a suspected gap (long
  /// stall, silent proxy) to re-anchor the view. False if disconnected.
  bool request_resync();

  /// Sends an SHM_REQUEST control record: a same-host server with a
  /// live snapshot ring answers with an SHM_OFFER, which poll_frame
  /// adopts (maps the segment, confirms with SHM_ACCEPT) — from then
  /// on shm_active() and data frames come off the ring. A server
  /// without a ring (disabled, remote, broken) never answers and the
  /// stream simply stays on TCP; request again later if desired.
  /// False if disconnected.
  bool request_shm();

  /// True while a mapped shm ring is this client's data path.
  [[nodiscard]] bool shm_active() const noexcept { return ring_.mapped(); }

  [[nodiscard]] const MaterializedView& view() const noexcept {
    return view_;
  }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close();

  // Receive-side statistics.
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }
  /// Wire bytes of full / delta frames applied (incl. the u32 prefix) —
  /// divide by the view's full_frames()/delta_frames() for bytes/frame.
  [[nodiscard]] std::uint64_t full_frame_bytes() const noexcept {
    return full_frame_bytes_;
  }
  [[nodiscard]] std::uint64_t delta_frame_bytes() const noexcept {
    return delta_frame_bytes_;
  }
  /// Collect→apply latency of the last applied frame (steady-clock ns;
  /// 0 before the first frame).
  [[nodiscard]] std::uint64_t last_latency_ns() const noexcept {
    return last_latency_ns_;
  }
  /// Frames / payload bytes applied off the shm ring (no TCP bytes or
  /// syscalls behind these — the shm-vs-TCP split E19 reports).
  [[nodiscard]] std::uint64_t shm_frames() const noexcept {
    return shm_frames_;
  }
  [[nodiscard]] std::uint64_t shm_frame_bytes() const noexcept {
    return shm_frame_bytes_;
  }
  /// Ring overruns survived (each cost one skip-to-head + TCP resync).
  [[nodiscard]] std::uint64_t shm_overruns() const noexcept {
    return shm_overruns_;
  }
  /// Rings abandoned for a DEAD writer (no head advance across
  /// consecutive doorbell timeouts for the idle deadline) — the
  /// shm→TCP rung of the degradation ladder. Overruns and generation
  /// mismatches are counted separately (shm_overruns, silent close).
  [[nodiscard]] std::uint64_t shm_demotions() const noexcept {
    return shm_demotions_;
  }
  /// How long the ring's head may sit frozen across doorbell timeouts
  /// before the writer is presumed dead and the client demotes to TCP
  /// (close ring + RESYNC). Zero disables the probe (a quiet fleet and
  /// a dead writer then look identical forever — the pre-ladder
  /// behavior). Default 2 s: generous against a merely slow collector,
  /// far below any human-visible outage. Tests shrink it.
  void set_ring_idle_deadline(std::chrono::milliseconds deadline) noexcept {
    ring_idle_deadline_ = deadline;
  }
  /// Optional structured-event sink: ladder transitions (shm overrun /
  /// demotion, resync requests) are recorded into `trace` as they
  /// happen. The ring must outlive this client; nullptr disables.
  void set_trace(obs::TraceRing* trace) noexcept { trace_ = trace; }

 private:
  void send_ack(std::uint64_t sequence);
  bool queue_record(std::string_view record);
  void flush_outbox();
  /// Post-apply bookkeeping shared by the TCP and ring pumps: byte/kind
  /// counters, the rebase guard, the latency sample and (TCP only) the
  /// ack. True when the frame advanced the view — poll_frame's "one
  /// frame" is delivered.
  bool record_applied(std::uint64_t frames_before,
                      std::uint64_t fulls_before, std::size_t wire_bytes,
                      bool via_ring);
  /// Polls the socket for up to `wait_ms` (0 = probe) and drains
  /// readable bytes into buf_ / flushes the outbox when writable.
  /// False when the connection died (already close()d).
  bool drain_socket(int wait_ms);

  int fd_ = -1;
  MaterializedView view_;
  std::string buf_;  // raw stream bytes awaiting a complete frame
  std::string outbox_;  // unsent tail of partially-written records
  // Rebase guard: armed by subscribe()/request_resync(). A full frame
  // only counts as the awaited re-base if the view moved past where it
  // was at arm time AND its table matches the subscribed filter — a
  // pre-request full already in flight (the server services new
  // clients before reading their subscribe) must not clear
  // rebase_pending() while the view still shows the old table.
  bool rebase_guard_armed_ = false;
  std::uint64_t rebase_floor_seq_ = 0;
  SubscriptionFilter subscribed_filter_;  // in effect; pass-all initially
  std::uint64_t bytes_received_ = 0;
  std::uint64_t full_frame_bytes_ = 0;
  std::uint64_t delta_frame_bytes_ = 0;
  std::uint64_t last_latency_ns_ = 0;
  // Shm ring state. shm_requested_ gates offer adoption — offers are
  // solicited-only, an unrequested one is just skipped.
  ShmRingReader ring_;
  bool shm_requested_ = false;
  // SHM_ACCEPT is deferred until a ring frame APPLIES: at adoption, and
  // again after an overrun's RESYNC (which demotes us to TCP
  // server-side), the live TCP stream is what walks the view up to the
  // ring's delta chain — accepting earlier would freeze TCP while every
  // ring delta is still a future gap, stranding both paths.
  bool ring_accept_pending_ = false;
  std::uint64_t shm_frames_ = 0;
  std::uint64_t shm_frame_bytes_ = 0;
  std::uint64_t shm_overruns_ = 0;
  std::uint64_t shm_demotions_ = 0;
  obs::TraceRing* trace_ = nullptr;
  std::string ring_scratch_;   // reused poll() payload buffer
  std::uint32_t ring_wait_count_ = 0;  // schedules periodic socket probes
  // Dead-writer probe state: the head as of the last doorbell timeout,
  // when it last moved, and how many consecutive timeouts saw it
  // frozen. Strikes alone would misfire on the non-futex wait fallback
  // (~1 ms sleeps each "time out"), so demotion requires BOTH a strike
  // minimum and the elapsed idle deadline.
  std::chrono::milliseconds ring_idle_deadline_{2000};
  std::uint64_t ring_last_head_ = 0;
  std::uint64_t ring_last_progress_ns_ = 0;
  std::uint32_t ring_idle_strikes_ = 0;
};

}  // namespace approx::svc
