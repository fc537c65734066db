// server.hpp — SnapshotServer: the registry behind a network facade.
//
// The fifth layer's serving half. A SnapshotServer owns one background
// aggregator over a counter registry and fans its frames out to TCP
// subscribers on the loopback interface:
//
//   * filter groups — every subscriber is a member of exactly one
//     group, keyed by the canonical form of its subscription filter. A
//     client that never subscribes is in the pass-all group (the whole
//     fleet); a SUBSCRIBE (see wire.hpp) moves it to its filter's
//     group, and from the next tick it receives only the matching
//     subset — a full re-bases its name table, then group-shared
//     deltas. The pass-all group is an ordinary group that
//     simply outlives its members, so there is one serving path.
//
//   * collector thread — every `period` (a tick waits on a condition
//     variable until its start + period; stop() wakes it early), ONE
//     sweep of the registry: the aggregator's sequenced collect_tick
//     fills an immutable tick record with every value, the vector
//     readings, every row's change stamp (the pass that last changed
//     it) and the name table (shared per registry version). Then one
//     pass over the groups: per group at most ONE delta encode — the
//     rows of its subset the record stamps after the group's basis —
//     shared by every in-step member (ServerStats::
//     filtered_delta_encodes), and nothing at all on a tick where no
//     row of the subset is stamped after it (ServerStats::
//     group_deltas_suppressed) until a heartbeat is due (every 16th
//     quiet tick) — a subscriber's receive cost scales with its
//     subset's activity, not the fleet's. Fulls are lazy: a group's
//     full is materialized from the record and encoded only when a
//     member needs one, at most once per group and tick. Encoded
//     buffers are retired by refcount when the last subscriber drains
//     them, so a slow reader never blocks the next encode.
//
//   * N I/O worker threads — a non-blocking poll() loop each, over a
//     share of the subscriber sockets plus a self-pipe the collector
//     rings every tick. Worker 0 also polls the listening socket and
//     deals accepted connections round-robin. Workers read the groups'
//     published ticks lock-free (RCU under an epoch guard) and never
//     touch the registry: every frame they send is read from a tick.
//
//   * per-client backpressure — each subscriber has AT MOST one
//     in-flight encoded frame (partial writes keep an offset; POLLOUT
//     resumes them) and no queue. A subscriber that drains slower than
//     the tick rate simply skips frames: when its buffer drains the
//     worker hands it the NEWEST state of its group — as the group's
//     shared delta if that covers it, as a per-client catch-up delta
//     (the rows of the group's subset the tick's record stamps after
//     the client's last frame, valued from the same record) if it
//     lagged but its name table is unchanged, or as the group's full
//     otherwise. A RESYNC asks for that full at the next tick at the
//     latest. Memory per client is O(one frame) regardless of how slow
//     it reads; nobody is disconnected for being slow.
//
//   * acks — subscribers send { 0xAC, seq:uvarint } after applying a
//     frame; the server tracks the fleet-wide acked floor purely as
//     observability (ServerStats::min_acked_seq), TCP already
//     guaranteeing delivery of fully-written frames. Unknown inbound
//     bytes are a protocol error and close that subscriber.
//
//   * shared-memory rings — when ServerOptions::shm_enable, a group's
//     first SHM_REQUEST creates a seqlock shm ring for it
//     (base/seqlock_ring.hpp via svc/shm.hpp), into which the collector
//     then publishes each tick's group frame (the delta, else the full).
//     The requester receives SHM_OFFER (segment name, generation,
//     geometry) on its data stream, maps the segment read-only and
//     confirms with SHM_ACCEPT — from then on the server sends it no
//     per-tick data frames (zero per-reader syscalls AND zero
//     per-reader server work), while its TCP connection stays up for
//     control, liveness and recovery: an overrun reader RESYNCs and the
//     full goes over TCP; a SUBSCRIBE moves it to TCP frames of its new
//     group (whose ring it may then request).
//
//   * one counter source — the server counts every event once, into its
//     own block of instruments sized for its own threads: an exact
//     atomic per ServerStats counter, the stage timing histograms and
//     the top-talker directory. stats() copies from the block; with
//     ServerOptions::self_metrics each `__sys/server.*` registry row is
//     a read-only view of it that shares the block's ownership, and a
//     restarted server re-points the rows at its own block
//     (obs/self_metrics.hpp). A METRICSZ_REQUEST is answered by the
//     client's I/O worker with a page rendered from its group's
//     published tick.
//
// One change source: a delta is sound only if every record in it comes
// from one collect pass. Group deltas and catch-ups alike take their
// rows (the stamps) and their values from the same immutable tick
// record, label the frame with its pass and stamp it with its collect
// time. A row that changed in (sent_seq, pass] carries a stamp >
// sent_seq in that record, and its values are absolute — exactly the
// state at that pass — so the delta is complete up to its label and
// names nothing later. Positions are the group's selection's, so a
// create outside the subset leaves catch-ups deltas; one inside it
// re-bases the group with a full.
//
// The server binds 127.0.0.1 only: the facade is an in-host scrape/
// stream endpoint (sidecar, dashboard, load generator), not an
// authenticated public service.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "base/backend.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"
#include "svc/wire.hpp"

namespace approx::obs {
class TraceRing;
}  // namespace approx::obs

namespace approx::svc {

/// Inbound ack record type byte (followed by one uvarint sequence).
inline constexpr unsigned char kAckByte = 0xAC;

struct ServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; port() reports the choice
  unsigned io_threads = 2;
  std::chrono::milliseconds period{20};  // collect/broadcast tick
  /// Per-subscriber SO_SNDBUF in bytes; 0 keeps the kernel default.
  /// Tests shrink it to force the backpressure/coalescing path without
  /// megabytes of loopback buffering in the way.
  int sndbuf = 0;
  /// Shared-memory snapshot rings (see shm.hpp): when enabled, a
  /// filter group's first SHM_REQUEST creates a POSIX shm ring into
  /// which the collector publishes the group's frame every tick, and
  /// same-host members that SHM_REQUEST it consume frames with zero
  /// syscalls and zero server-side per-reader work. Disabling (or a
  /// host without /dev/shm — create failure is tolerated) simply leaves
  /// everyone on TCP. Each ring is shm_slots × (shm_slot_bytes + 88)
  /// bytes of /dev/shm; a frame that outgrows a slot permanently breaks
  /// that ring (offers stop, accepted clients are demoted to TCP) —
  /// size slots for the group's full frame. The slot count is how many
  /// ticks a parked reader may lag before it overruns (and resyncs over
  /// TCP): 32 is 640 ms at the default period, and keeps two riding
  /// groups at one 64-slot ring's resident footprint.
  bool shm_enable = true;
  std::uint32_t shm_slots = 32;
  std::uint64_t shm_slot_bytes = 64 * 1024;
  /// Ack-deadline eviction: a subscriber that is OWED frames (an
  /// in-flight buffer it will not drain, or fully-sent frames it never
  /// acked) and shows no progress — no ack advance, no partial-write
  /// drain — for this many consecutive collector ticks is closed
  /// (ServerStats::clients_evicted_idle), releasing its socket and its
  /// pinned retired-encode refcount. Half-open TCP peers and SIGSTOP'd
  /// readers die within `ack_deadline_ticks × period`; a merely SLOW
  /// reader keeps resetting the clock with every ack or drained byte
  /// and is never evicted. Shm-consuming clients are exempt (they ack
  /// nothing by design; ring liveness is the client's job), as are
  /// idle-but-owed-nothing subscribers of a quiet filter group.
  /// 0 disables eviction. Default 250 ticks (5 s at the default 20 ms
  /// period).
  unsigned ack_deadline_ticks = 250;
  /// Flight recorder (src/obs): when non-null the server records one
  /// structured event per resilience-ladder decision (accept, evict,
  /// subscribe, shm offer/accept/demote, tick overrun, …) into this
  /// ring — wait-free, allocation-free, cheap enough to leave on. The
  /// ring must outlive the server. Null: no tracing (the default).
  obs::TraceRing* trace = nullptr;
  /// Self-metrics (src/obs): when true the server exports its own
  /// instruments into the registry it serves as the 23 read-only
  /// `__sys/server.*` rows — exact event counters and gauges, per-stage
  /// tick timing histograms and the top-talker directory — which then
  /// ride the standard wire like any fleet entry (subscribe with a
  /// `__sys/` prefix filter), and the kind-7/kind-8 metricsz exchange
  /// renders them as text. The server counts the same either way
  /// (stats() reads the same instruments); off by default, so a
  /// registry served without it carries no `__sys/` rows.
  bool self_metrics = false;
};

/// Monotonic counters describing a server's life so far. stats() may be
/// called from any thread at any time (it is serialized against
/// start()/stop() internally); while the server runs the counters are a
/// racy-but-coherent snapshot, exact once stop() returned. Each counter
/// is counted once, in the server's own instruments — the same ones its
/// `__sys/` rows read (ServerOptions::self_metrics).
struct ServerStats {
  std::uint64_t frames_collected = 0;
  std::uint64_t clients_accepted = 0;
  std::uint64_t clients_closed = 0;
  /// Subscribers closed by ack-deadline eviction (a subset of
  /// clients_closed). See ServerOptions::ack_deadline_ticks.
  std::uint64_t clients_evicted_idle = 0;
  /// GAUGE (not monotonic): encoded frames currently handed to
  /// subscribers and not yet fully written — each pins its tick's
  /// shared-encode refcount. Drains to zero when every peer is caught
  /// up or evicted; the eviction proof watches exactly this.
  std::uint64_t frames_in_flight = 0;
  std::uint64_t full_frames_sent = 0;    // full encodes handed to clients
  std::uint64_t delta_frames_sent = 0;   // shared group deltas
  std::uint64_t catchup_deltas_sent = 0; // per-client catch-up deltas
  /// Ticks lagging readers jumped over: each catch-up delta replaces
  /// the frames between the reader's last one and the tick it gets.
  std::uint64_t frames_coalesced = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t min_acked_seq = 0;  // slowest subscriber's acked frame
  // Control channel + filter groups.
  std::uint64_t subscribes_received = 0;
  std::uint64_t resyncs_received = 0;
  /// Distinct group encodes actually performed, over every group (the
  /// pass-all group included; a memberless group encodes nothing). The
  /// sharing pins: K identically-filtered in-step subscribers over T
  /// ticks cost ~T delta encodes (not K·T) and ≤ a handful of full
  /// encodes.
  std::uint64_t filtered_full_encodes = 0;
  std::uint64_t filtered_delta_encodes = 0;
  /// Group-ticks on which a group's subset was unchanged and no frame
  /// was shipped to it (not coalescing — there was nothing to say; a
  /// heartbeat bounds the silence).
  std::uint64_t group_deltas_suppressed = 0;
  // Shared-memory ring transport.
  std::uint64_t shm_requests_received = 0;
  std::uint64_t shm_offers_sent = 0;
  std::uint64_t shm_accepts_received = 0;  // clients moved off TCP data
  std::uint64_t shm_frames_published = 0;  // ring writes, all groups
  /// Frames that did not fit a ring slot; any > 0 means a ring broke
  /// and its shm clients were demoted back to TCP.
  std::uint64_t shm_publish_failures = 0;
  /// CPU time (CLOCK_THREAD_CPUTIME_ID, ns) burned by the collector
  /// thread / summed over the I/O workers so far. The shm scaling
  /// evidence: per-subscriber work lives in io_cpu_ns, and a ring
  /// consumer adds none (E19 pins server CPU flat in shm-swarm size).
  std::uint64_t collector_cpu_ns = 0;
  std::uint64_t io_cpu_ns = 0;
  /// Ticks whose work outran the period (the slow-tick watchdog).
  std::uint64_t ticks_overrun = 0;
};

namespace detail {
class ServerCore;
}  // namespace detail

/// Serves one registry. Uninstrumented backends only — the collector and
/// I/O threads are real OS threads outside any sim scheduler, exactly
/// like AggregatorT's background mode.
template <typename Backend>
  requires(!Backend::kInstrumented)
class SnapshotServerT {
 public:
  /// @param registry fleet to serve (must outlive the server). With
  ///   ServerOptions::self_metrics the `__sys/server.*` rows are
  ///   installed into it here, before serving begins — or, when a
  ///   previous server left them, re-pointed at this server.
  /// @param pid dedicated aggregation slot in the registry's pid space;
  ///   no worker may share it (one thread per pid, repo-wide).
  SnapshotServerT(shard::RegistryT<Backend>& registry, unsigned pid,
                  ServerOptions options = {});
  ~SnapshotServerT();

  SnapshotServerT(const SnapshotServerT&) = delete;
  SnapshotServerT& operator=(const SnapshotServerT&) = delete;

  /// Binds, listens and spawns the collector + I/O threads. False if the
  /// socket setup failed (port in use, fd limits); the server is then
  /// inert and start() may be retried with different options.
  bool start();

  /// Stops all threads and closes every socket. Idempotent.
  void stop();

  /// The bound TCP port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const;

  [[nodiscard]] ServerStats stats() const;

  /// The serving aggregator (e.g. to await frames_collected() ≥ N).
  [[nodiscard]] const shard::AggregatorT<Backend>& aggregator() const {
    return aggregator_;
  }

 private:
  shard::AggregatorT<Backend> aggregator_;
  std::unique_ptr<detail::ServerCore> core_;
};

using SnapshotServer = SnapshotServerT<base::DirectBackend>;
using RelaxedSnapshotServer = SnapshotServerT<base::RelaxedDirectBackend>;

extern template class SnapshotServerT<base::DirectBackend>;
extern template class SnapshotServerT<base::RelaxedDirectBackend>;

}  // namespace approx::svc
