// server.cpp — SnapshotServer internals: collector + poll() I/O workers.
//
// Layout: detail::ServerCore is the backend-agnostic machinery (sockets,
// threads, frame fan-out) driven through one hook — "collect a tick" —
// that the thin SnapshotServerT template binds to its AggregatorT.
// Everything socket-ish therefore compiles exactly once.
//
// One change source: the sequenced collect is the only pass over the
// registry. Its immutable TickRecord (values, vector readings, every
// row's change stamp, name table) is shared by every group's tick, and
// every frame the server sends is read from it — a group's shared
// delta, a lagging client's catch-up (the rows stamped after each one's
// basis) and a metricsz page. After the sweep nothing reads the
// registry, so the I/O workers never take its lock.
//
// One serving path: every subscriber is a member of exactly one filter
// group. A client that never subscribes sits in the pass-all group,
// which is an ordinary group except that it lives as long as the server
// does (so a new client's first full never waits for a tick). Each
// group gets at most one delta encode per tick, at most one full encode
// per tick (lazily, when a member or its ring needs one) and, once a
// same-host member asks, its own shm ring.
//
// One counter source: the core counts every event once, into its own
// block of instruments (kCounterTable names every slot). stats() copies
// from the block, and with ServerOptions::self_metrics each `__sys/` row
// is a read-only view of it (obs/self_metrics.hpp).
#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/epoch.hpp"
#include "obs/metricsz.hpp"
#include "obs/self_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "svc/shm.hpp"

namespace approx::svc {
namespace detail {
namespace {

/// Longest ack record: type byte + 10-byte varint.
constexpr std::size_t kMaxAckBytes = 11;

/// A filter group whose subset did not change ships nothing, except one
/// empty-delta heartbeat every this many quiet ticks (liveness and
/// sequence advance for its subscribers).
constexpr unsigned kGroupHeartbeatTicks = 16;

/// This thread's slot in the server's instrument block: 0 = the
/// collector, 1 + i = io worker i (assigned at the top of each loop).
/// The block's histograms keep the repo-wide one-thread-per-pid
/// discipline over these slots without borrowing fleet pids.
thread_local unsigned t_wpid = 0;

/// CPU time this thread has burned so far (ns) — the per-thread clock,
/// so sleeping out the tick costs nothing. Feeds the collector/io CPU
/// stats E19 uses to show shm fan-out keeps server CPU flat.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The core's counters: one exact atomic slot each, bumped once per
/// event by the thread that saw it. kFramesInFlight is a gauge (moves
/// both ways); kFramesCollected and kCollectorCpuNs are stored.
enum Counter : std::size_t {
  kFramesCollected,  // the newest collected sequence
  kClientsAccepted,
  kClientsClosed,
  kClientsEvicted,
  kFramesInFlight,
  kFullFramesSent,
  kDeltaFramesSent,
  kCatchupDeltasSent,
  kFramesCoalesced,
  kBytesSent,
  kAcksReceived,
  kSubscribesReceived,
  kResyncsReceived,
  kGroupFullEncodes,
  kGroupDeltaEncodes,
  kGroupDeltasSuppressed,
  kShmRequestsReceived,
  kShmOffersSent,
  kShmAcceptsReceived,
  kShmFramesPublished,
  kShmPublishFailures,
  kCollectorCpuNs,
  kRetiredIoCpuNs,  // exited workers' sum; stats() adds the live ones
  kTicksOverrun,
  kCounters
};

/// The one counter table: each slot, the ServerStats field stats()
/// copies it into, and its `__sys/server.` row name when self_metrics
/// exports it (nullptr: ServerStats only).
struct CounterRow {
  Counter slot;
  std::uint64_t ServerStats::*field;
  const char* sys_name;
};

constexpr CounterRow kCounterTable[] = {
    {kFramesCollected, &ServerStats::frames_collected, "frames_collected"},
    {kClientsAccepted, &ServerStats::clients_accepted, "clients_accepted"},
    {kClientsClosed, &ServerStats::clients_closed, "clients_closed"},
    {kClientsEvicted, &ServerStats::clients_evicted_idle, "clients_evicted"},
    {kFramesInFlight, &ServerStats::frames_in_flight, "frames_in_flight"},
    {kFullFramesSent, &ServerStats::full_frames_sent, "full_frames_sent"},
    {kDeltaFramesSent, &ServerStats::delta_frames_sent, "delta_frames_sent"},
    {kCatchupDeltasSent, &ServerStats::catchup_deltas_sent,
     "catchup_deltas_sent"},
    {kFramesCoalesced, &ServerStats::frames_coalesced, "frames_coalesced"},
    {kBytesSent, &ServerStats::bytes_sent, "bytes_sent"},
    {kAcksReceived, &ServerStats::acks_received, "acks_received"},
    {kSubscribesReceived, &ServerStats::subscribes_received,
     "subscribes_received"},
    {kResyncsReceived, &ServerStats::resyncs_received, "resyncs_received"},
    {kGroupFullEncodes, &ServerStats::filtered_full_encodes, nullptr},
    {kGroupDeltaEncodes, &ServerStats::filtered_delta_encodes, nullptr},
    {kGroupDeltasSuppressed, &ServerStats::group_deltas_suppressed, nullptr},
    {kShmRequestsReceived, &ServerStats::shm_requests_received, nullptr},
    {kShmOffersSent, &ServerStats::shm_offers_sent, "shm_offers_sent"},
    {kShmAcceptsReceived, &ServerStats::shm_accepts_received,
     "shm_accepts_received"},
    {kShmFramesPublished, &ServerStats::shm_frames_published,
     "shm_frames_published"},
    {kShmPublishFailures, &ServerStats::shm_publish_failures, nullptr},
    {kCollectorCpuNs, &ServerStats::collector_cpu_ns, "collector_cpu_ns"},
    {kRetiredIoCpuNs, &ServerStats::io_cpu_ns, nullptr},
    {kTicksOverrun, &ServerStats::ticks_overrun, "ticks_overrun"},
};
static_assert(std::size(kCounterTable) == kCounters, "one row per slot");

/// The timing histograms (ns observations) and their `__sys/server.`
/// row names.
enum Timing : std::size_t {
  kTickCollect,
  kTickEncode,
  kTickFlush,
  kApplyLag,
  kTimings
};

constexpr const char* kTimingNames[kTimings] = {
    "tick.collect_ns", "tick.encode_ns", "tick.flush_ns",
    "client.apply_lag_ns"};

/// The server's one block of instruments, sized for its own threads (see
/// t_wpid) and fed whether or not self_metrics exports it.
struct Instruments {
  explicit Instruments(unsigned threads)
      : timings{{{threads, obs::timing_histogram_spec()},
                 {threads, obs::timing_histogram_spec()},
                 {threads, obs::timing_histogram_spec()},
                 {threads, obs::timing_histogram_spec()}}} {}

  std::array<std::atomic<std::uint64_t>, kCounters> counters{};
  std::array<obs::ServerHistogram, kTimings> timings;
  /// Label = peer address, value = bytes flushed to that peer.
  obs::TopTalkers top_talkers;
};

}  // namespace

class ServerCore {
 public:
  /// Runs one sequenced aggregator pass into a fresh tick record.
  using Collect = std::function<void(shard::TickRecord&)>;

  ServerCore(const ServerOptions& options, Collect collect)
      : options_(options), collect_(std::move(collect)), trace_(options.trace) {
    if (options_.io_threads == 0) options_.io_threads = 1;
    if (options_.period <= std::chrono::milliseconds::zero()) {
      options_.period = std::chrono::milliseconds(1);
    }
    if (options_.shm_slots == 0) options_.shm_slots = 1;
    if (options_.shm_slot_bytes == 0) options_.shm_slot_bytes = 4096;
    instruments_ = std::make_shared<Instruments>(1 + options_.io_threads);
    group_table_.store(new_table(), std::memory_order_relaxed);
  }

  ~ServerCore() {
    stop();
    delete group_table_.load(std::memory_order_relaxed);
  }

  bool start() {
    // lifecycle_mutex_ serializes start/stop/stats: workers_ is rebuilt
    // here and torn down in stop(), and stats() walks it.
    std::lock_guard lifecycle(lifecycle_mutex_);
    if (running_.load(std::memory_order_acquire)) return true;
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) return false;
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    port_ = ntohs(addr.sin_port);

    workers_.clear();
    for (unsigned i = 0; i < options_.io_threads; ++i) {
      auto worker = std::make_unique<Worker>();
      if (::pipe2(worker->wake_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
        close_pipes_and_listener();
        return false;
      }
      workers_.push_back(std::move(worker));
    }
    running_.store(true, std::memory_order_release);
    for (unsigned i = 0; i < options_.io_threads; ++i) {
      workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
    }
    collector_ = std::thread([this] { collector_loop(); });
    return true;
  }

  void stop() {
    std::lock_guard lifecycle(lifecycle_mutex_);
    {
      std::lock_guard tick_lock(tick_mutex_);  // the tick wait reads running_
      if (!running_.exchange(false, std::memory_order_acq_rel)) {
        return;  // never started or already stopped
      }
    }
    tick_cv_.notify_all();
    for (auto& worker : workers_) wake(*worker);
    if (collector_.joinable()) collector_.join();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    close_pipes_and_listener();
    workers_.clear();
    {
      // Swap in a fresh table; post-join there are no readers, so the
      // old table — and through it every group, its last tick and its
      // shm ring (unlinked; a still-attached reader keeps its mapping and
      // sees EOF on its TCP side) — dies immediately, and the epoch
      // backlog drains unsafely.
      std::lock_guard wlock(groups_writer_mutex_);
      const GroupTable* old =
          group_table_.exchange(new_table(), std::memory_order_acq_rel);
      delete old;  // worker-held group refs died with workers_
    }
    epochs_.drain_unsafe();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] ServerStats stats() const {
    // Serialized against start()/stop() (which rebuild/free workers_);
    // the instrument block's atomics keep the counters themselves
    // race-free against the running threads.
    std::lock_guard lifecycle(lifecycle_mutex_);
    ServerStats out;
    for (const CounterRow& row : kCounterTable) {
      out.*row.field = count(row.slot);
    }
    std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
    for (const auto& worker : workers_) {
      out.io_cpu_ns += worker->cpu_ns.load(std::memory_order_relaxed);
      floor = std::min(floor,
                       worker->min_acked.load(std::memory_order_relaxed));
    }
    out.min_acked_seq =
        floor == std::numeric_limits<std::uint64_t>::max() ? 0 : floor;
    return out;
  }

  /// The instrument block the `__sys/` views read.
  [[nodiscard]] const std::shared_ptr<Instruments>& instruments() const {
    return instruments_;
  }

 private:
  void bump(Counter counter, std::uint64_t n = 1) noexcept {
    instruments_->counters[counter].fetch_add(n, std::memory_order_relaxed);
  }
  void set(Counter counter, std::uint64_t value) noexcept {
    instruments_->counters[counter].store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count(Counter counter) const noexcept {
    return instruments_->counters[counter].load(std::memory_order_relaxed);
  }
  /// Records a duration into one of the timing histograms.
  void record_ns(Timing timing, std::chrono::nanoseconds elapsed) {
    instruments_->timings[timing].record(
        t_wpid, static_cast<std::uint64_t>(elapsed.count()));
  }

  /// Flight-recorder shorthand: no-op without a ring.
  void trace(obs::TraceKind kind, std::uint64_t a = 0,
             std::uint64_t b = 0) noexcept {
    if (trace_ != nullptr) trace_->record(kind, a, b);
  }

  /// One group's published per-tick state: an immutable record the
  /// collector builds each pass and swings into FilterGroup::tick by
  /// RCU pointer swap, retiring the superseded one through the epoch
  /// domain. Workers copy it under an epoch guard (the shared_ptr
  /// payloads extend every buffer past the guard) and then serve
  /// entirely lock-free.
  struct GroupTick {
    std::uint64_t pass_seq = 0;     // collector pass that built it
    std::uint64_t collect_ns = 0;   // that pass's collect stamp
    /// The registry version the group's wire stream is labeled with
    /// (see FilterGroup::wire_regver for the pinning rationale).
    std::uint64_t wire_regver = 0;
    /// The group's delta basis AFTER this pass: sequence of the last
    /// frame shipped to the group (deltas cover (sent_seq, label]).
    std::uint64_t sent_seq = 0;
    /// This tick's shared group delta, covering (delta_base, pass_seq];
    /// null when suppressed, re-based or memberless.
    std::shared_ptr<const std::string> delta;
    std::uint64_t delta_base = 0;
    /// The pass's tick record (shared by every group) and the group's
    /// selection of its rows (null: every row) — the coherent pair lazy
    /// fulls, catch-up deltas and metricsz pages are read from.
    std::shared_ptr<const shard::TickRecord> record;
    std::shared_ptr<const std::vector<std::uint64_t>> selection;
  };

  /// A group's shared-memory snapshot ring: created by the worker
  /// serving the group's first SHM_REQUEST, published into by the
  /// collector only, destroyed (unlinked) with the group.
  struct GroupRing {
    ShmRingWriter writer;
    std::shared_ptr<const std::string> offer;  // shared by every offer
    /// Latched when a frame outgrows its slot: a ring reader could never
    /// decode past the gap, so the ring is done — offers stop and its
    /// consumers are demoted back to TCP.
    std::atomic<bool> broken{false};
  };

  /// One subscription filter's server-side state: every client that
  /// SUBSCRIBEd with the same canonical filter (or never subscribed: the
  /// pass-all group) shares one of these, and with it this tick's single
  /// delta encode, the lazily-built full and the group's ring.
  /// Ownership: `refs` changes only under groups_writer_mutex_; the
  /// selection/basis fields are collector-private pass scratch (workers
  /// only ever see the immutable copies published in GroupTicks); the
  /// full cache and ring creation have their own mutexes (rare paths).
  struct FilterGroup {
    std::string key;  // canonical filter key (the table map key)
    SubscriptionFilter filter;
    /// Members; a group other than pass-all is erased at zero. Read
    /// relaxed by the collector (a memberless group encodes nothing).
    std::atomic<std::size_t> refs{0};
    /// Flat-table indices matching the filter, ascending — valid for
    /// sel_regver's name table; rebuilt (as a fresh immutable vector)
    /// when the registry version moves. Null for the pass-all group:
    /// every entry, so subset positions are flat indices.
    std::shared_ptr<const std::vector<std::uint64_t>> selection;
    std::size_t subset_size = 0;
    std::uint64_t sel_regver = 0;
    /// The registry version the group's WIRE STREAM is labeled with.
    /// The registry is append-only and the name table name-sorted, so a
    /// fixed filter's subset can only grow — a version bump that leaves
    /// the subset SIZE unchanged left the subset (names and order)
    /// unchanged too, merely shifting its flat indices. The group then
    /// keeps streaming deltas under this pinned older label (its
    /// members' tables are untouched) instead of re-encoding a full per
    /// group on every disjoint create; only a create that actually lands
    /// in the subset bumps wire_regver and re-bases everyone.
    std::uint64_t wire_regver = 0;
    /// The group's delta basis (see GroupTick::sent_seq). Suppressed
    /// ticks do not advance it, so the next delta still covers them.
    std::uint64_t sent_seq = 0;
    unsigned ticks_suppressed = 0;
    /// The RCU-published per-tick state. Null until the collector's
    /// first pass over the group. Superseded ticks are retired through
    /// the epoch domain; the last one dies with the group (a reader
    /// holding a tick pointer always also holds the group shared_ptr
    /// that keeps this destructor from running).
    std::atomic<const GroupTick*> tick{nullptr};
    // Lazily-encoded full, cached per (group, pass). Its own tiny mutex:
    // only re-basing members and ring re-bases ever take it — never the
    // steady delta stream.
    std::mutex full_mutex;
    std::shared_ptr<const std::string> full;  // guarded by full_mutex
    std::uint64_t full_seq = 0;
    std::mutex ring_mutex;     // serializes ring creation
    bool ring_failed = false;  // guarded by ring_mutex: no shm here
    std::atomic<GroupRing*> ring{nullptr};

    ~FilterGroup() {
      delete tick.load(std::memory_order_acquire);
      delete ring.load(std::memory_order_acquire);
    }
  };

  /// The RCU-published group table: immutable once the writer swaps it
  /// in (the shared_ptr values keep groups alive across table
  /// turnover). Readers pin it with an epoch guard; superseded tables
  /// retire through the epoch domain.
  struct GroupTable {
    std::unordered_map<std::string, std::shared_ptr<FilterGroup>> by_key;
  };

  struct Client {
    int fd = -1;
    std::shared_ptr<const std::string> out;  // the ONE in-flight frame
    std::size_t off = 0;
    std::uint64_t sent_seq = 0;  // newest frame fully handed to out
    std::uint64_t sent_regver = 0;
    std::uint64_t acked_seq = 0;
    std::string inbuf;  // partial ack/control bytes
    std::shared_ptr<FilterGroup> group;  // set at adoption; null once closed
    bool force_full = false;  // RESYNC or filter change pending
    bool shm_offer_pending = false;  // SHM_REQUEST seen; offer next
    /// SHM_ACCEPT seen: the group's ring carries this client's data
    /// frames; we send nothing per tick.
    bool shm_consuming = false;
    /// Ack-deadline eviction clock (ServerOptions::ack_deadline_ticks).
    /// Armed (at the then-current tick) when the client is owed frames;
    /// re-armed on any progress (ack advance, partial-write drain);
    /// disarmed when nothing is owed. 0 = disarmed.
    std::uint64_t ack_wait_since = 0;
    std::uint64_t ack_wait_acked = 0;  // acked_seq when armed
    std::size_t ack_wait_off = 0;      // in-flight drain offset when armed
    /// The peer's top-talker byte count, claimed at adoption; null once
    /// the directory's rows all hold other peers.
    std::atomic<std::uint64_t>* talker = nullptr;
    /// kMetricszRequest read; served from the group's published tick.
    bool metricsz_pending = false;
  };

  struct Worker {
    std::thread thread;
    int wake_fds[2] = {-1, -1};  // [0] poll side, [1] ring side
    std::mutex inbox_mutex;
    std::vector<int> inbox;  // accepted fds awaiting adoption
    std::vector<Client> clients;  // worker-thread-owned
    std::atomic<std::uint64_t> min_acked{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> cpu_ns{0};  // this thread's CPU so far
  };

  /// A table holding only the pass-all group — the one group that is
  /// never erased, so a new client's first full is served from the last
  /// tick instead of waiting for the next.
  static GroupTable* new_table() {
    auto group = std::make_shared<FilterGroup>();
    group->key = SubscriptionFilter{}.canonical_key();
    auto* table = new GroupTable;
    table->by_key.emplace(group->key, std::move(group));
    return table;
  }

  void close_pipes_and_listener() {
    for (auto& worker : workers_) {
      for (int& fd : worker->wake_fds) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
      std::lock_guard lock(worker->inbox_mutex);
      for (int fd : worker->inbox) ::close(fd);
      worker->inbox.clear();
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }

  void wake(Worker& worker) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(worker.wake_fds[1], &byte, 1);
  }

  void collector_loop() {
    t_wpid = 0;  // the collector's slot in the instrument block
    while (running_.load(std::memory_order_acquire)) {
      const auto tick_start = std::chrono::steady_clock::now();
      // A fresh record per pass: the previous one stays published (and
      // immutable) until every group tick holding it is retired.
      auto pass = std::make_shared<shard::TickRecord>();
      collect_(*pass);
      const std::shared_ptr<const shard::TickRecord> record = std::move(pass);
      const auto collect_done = std::chrono::steady_clock::now();
      const std::uint64_t collect_ns = steady_now_ns();
      // The group pass, BEFORE the wake — and fully lock-free for the
      // workers: the collector reads the RCU-published group table under
      // an epoch guard and publishes ONE immutable GroupTick per group
      // (pointer swap; the superseded tick retires through the epoch
      // domain). A group created by a worker during this pass is simply
      // absent from the table we pinned — the NEXT pass seeds its basis,
      // and its members' first full lands at that pass or later, so no
      // delta ever skips a tick they saw.
      {
        const base::EpochDomain::Guard eguard(epochs_);
        const GroupTable* table =
            group_table_.load(std::memory_order_acquire);
        for (const auto& [key, group] : table->by_key) {
          collector_group_pass(*group, record, collect_ns);
        }
      }
      // Reap tables/ticks whose grace period has passed — outside the
      // guard (our own pin would hold the horizon back).
      epochs_.reclaim();
      const auto encode_done = std::chrono::steady_clock::now();
      // The sequences start at 1 and step by 1, so the newest collected
      // sequence is also the count of frames collected.
      set(kFramesCollected, record->pass_seq);
      last_pub_collect_ns_.store(collect_ns, std::memory_order_relaxed);
      for (auto& worker : workers_) wake(*worker);
      const auto flush_done = std::chrono::steady_clock::now();
      set(kCollectorCpuNs, thread_cpu_ns());
      // Per-stage timings: the next tick's collect pass picks them up, so
      // with self_metrics the vitals ride the very stream they describe.
      record_ns(kTickCollect, collect_done - tick_start);
      record_ns(kTickEncode, encode_done - collect_done);
      record_ns(kTickFlush, flush_done - encode_done);
      // Slow-tick watchdog: the work above outran the period — the
      // serving cadence is slipping and subscribers will see coalesced
      // ticks. Counted (and traced) rather than "handled": the honest
      // response to overload is visibility, the next tick starts late.
      const auto deadline = tick_start + options_.period;
      const auto now = std::chrono::steady_clock::now();
      if (now > deadline) {
        bump(kTicksOverrun);
        trace(obs::TraceKind::kTickOverrun,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      now - tick_start)
                      .count()),
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      options_.period)
                      .count()));
      }
      // Wait out the tick on the clock itself; stop() wakes us early.
      std::unique_lock tick_lock(tick_mutex_);
      tick_cv_.wait_until(tick_lock, deadline, [this] {
        return !running_.load(std::memory_order_acquire);
      });
    }
    set(kCollectorCpuNs, thread_cpu_ns());
  }

  void worker_loop(unsigned index) {
    t_wpid = 1 + index;  // this worker's slot in the instrument block
    Worker& worker = *workers_[index];
    std::vector<pollfd> pfds;
    while (running_.load(std::memory_order_acquire)) {
      adopt_inbox(worker);
      pfds.clear();
      pfds.push_back({worker.wake_fds[0], POLLIN, 0});
      if (index == 0) pfds.push_back({listen_fd_, POLLIN, 0});
      const std::size_t base = pfds.size();
      for (const Client& client : worker.clients) {
        short events = POLLIN;
        if (client.out) events |= POLLOUT;
        pfds.push_back({client.fd, events, 0});
      }
      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0 &&
          errno != EINTR) {
        break;
      }
      if (!running_.load(std::memory_order_acquire)) break;
      if (pfds[0].revents & POLLIN) drain_wake(worker);
      if (index == 0 && (pfds[1].revents & POLLIN)) accept_clients();
      // Clients accepted just now (possibly into our own inbox) join
      // this round: they sit beyond the pfds snapshot and are serviced
      // by the tail loop below.
      adopt_inbox(worker);
      for (std::size_t i = 0; i < worker.clients.size() &&
                              base + i < pfds.size();
           ++i) {
        Client& client = worker.clients[i];
        const short revents = pfds[base + i].revents;
        if (revents & (POLLERR | POLLNVAL)) {
          close_client(client);
          continue;
        }
        if ((revents & POLLIN) && !read_inbound(client)) {
          close_client(client);
          continue;
        }
        service_client(client);
      }
      // Clients adopted this round (beyond the pfds snapshot) get their
      // first frame immediately rather than next tick.
      for (std::size_t i = pfds.size() - base; i < worker.clients.size();
           ++i) {
        service_client(worker.clients[i]);
      }
      std::erase_if(worker.clients,
                    [](const Client& client) { return client.fd < 0; });
      publish_min_acked(worker);
      worker.cpu_ns.store(thread_cpu_ns(), std::memory_order_relaxed);
    }
    for (Client& client : worker.clients) {
      if (client.fd >= 0) ::close(client.fd);
      drop_inflight(client);  // keep the gauge exact across stop()
    }
    worker.clients.clear();
    // Retire this thread's CPU into the durable sum (stats() adds live
    // workers' cpu_ns on top; zero ours first so it never double
    // counts).
    worker.cpu_ns.store(0, std::memory_order_relaxed);
    bump(kRetiredIoCpuNs, thread_cpu_ns());
  }

  /// New connections join the pass-all group: until a SUBSCRIBE says
  /// otherwise, a client is served everything.
  void adopt_inbox(Worker& worker) {
    std::lock_guard lock(worker.inbox_mutex);
    if (worker.inbox.empty()) return;
    std::lock_guard wlock(groups_writer_mutex_);
    for (int fd : worker.inbox) {
      Client client;
      client.fd = fd;
      client.talker = instruments_->top_talkers.row_for(peer_label(fd));
      join_group_writer_locked(client, SubscriptionFilter{});
      worker.clients.push_back(std::move(client));
    }
    worker.inbox.clear();
  }

  /// "ip:port" of the connected peer — the top_talkers row label.
  static std::string peer_label(int fd) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
        addr.sin_family != AF_INET) {
      return "fd:" + std::to_string(fd);
    }
    char ip[INET_ADDRSTRLEN] = {0};
    if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip)) == nullptr) {
      return "fd:" + std::to_string(fd);
    }
    return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
  }

  void drain_wake(Worker& worker) {
    char buf[64];
    while (::read(worker.wake_fds[0], buf, sizeof(buf)) > 0) {
    }
  }

  void accept_clients() {
    while (true) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        // Fd exhaustion leaves the pending connection queued and the
        // listener readable, so poll() would return immediately and
        // spin this worker at 100% CPU; back off until an fd frees up.
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        break;  // EAGAIN / transient
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (options_.sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf,
                     sizeof(options_.sndbuf));
      }
      bump(kClientsAccepted);
      trace(obs::TraceKind::kClientConnect,
            static_cast<std::uint64_t>(fd));
      Worker& target =
          *workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                    workers_.size()];
      {
        std::lock_guard lock(target.inbox_mutex);
        target.inbox.push_back(fd);
      }
      wake(target);
    }
  }

  /// Hands `frame` to the client as its ONE in-flight buffer (the
  /// backpressure invariant guarantees none is pending) and maintains
  /// the fleet-wide frames_in_flight gauge — the refcount-pinning
  /// evidence the eviction proof drains to zero.
  void set_inflight(Client& client,
                    std::shared_ptr<const std::string> frame) {
    client.out = std::move(frame);
    client.off = 0;
    bump(kFramesInFlight);
  }

  void drop_inflight(Client& client) {
    if (!client.out) return;
    client.out.reset();
    client.off = 0;
    instruments_->counters[kFramesInFlight].fetch_sub(
        1, std::memory_order_relaxed);
  }

  /// The ack-deadline eviction check (ServerOptions::ack_deadline_ticks;
  /// runs per client per service round, after the flush attempt, against
  /// the newest collected tick `head`). True when the client was evicted
  /// (and closed). The predicate is "owed AND stalled": a peer holding an
  /// undrained in-flight buffer or unacked fully-sent frames, with
  /// neither its acked_seq nor its partial-write offset moving for the
  /// deadline's worth of ticks, is half-open or frozen — close it so its
  /// socket and pinned shared-encode refcount come back. A
  /// slow-but-live reader resets the clock on every ack or drained byte;
  /// an shm consumer never acks by design and is exempt; a caught-up
  /// subscriber of a quiet group owes nothing and is disarmed.
  bool evict_if_ack_stalled(Client& client, std::uint64_t head) {
    if (options_.ack_deadline_ticks == 0 || head == 0) return false;
    if (client.shm_consuming) {
      client.ack_wait_since = 0;
      return false;
    }
    const bool owed =
        client.out != nullptr || client.sent_seq > client.acked_seq;
    if (!owed) {
      client.ack_wait_since = 0;
      return false;
    }
    const bool progressed =
        client.acked_seq > client.ack_wait_acked ||
        (client.out != nullptr && client.off > client.ack_wait_off);
    if (client.ack_wait_since == 0 || progressed) {
      client.ack_wait_since = head;
      client.ack_wait_acked = client.acked_seq;
      client.ack_wait_off = client.out ? client.off : 0;
      return false;
    }
    if (head - client.ack_wait_since < options_.ack_deadline_ticks) {
      return false;
    }
    bump(kClientsEvicted);
    trace(obs::TraceKind::kClientEvict,
          static_cast<std::uint64_t>(client.fd),
          (head - client.ack_wait_since) *
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      options_.period)
                      .count()));
    close_client(client);
    return true;
  }

  void close_client(Client& client) {
    if (client.fd < 0) return;
    const int fd = client.fd;
    ::close(client.fd);
    client.fd = -1;
    drop_inflight(client);
    {
      std::lock_guard wlock(groups_writer_mutex_);
      release_group_writer_locked(client);
    }
    bump(kClientsClosed);
    trace(obs::TraceKind::kClientDisconnect, static_cast<std::uint64_t>(fd));
  }

  /// Caller holds groups_writer_mutex_. Drops the client's group ref;
  /// the last ref of any group but pass-all republishes the table
  /// without it.
  void release_group_writer_locked(Client& client) {
    if (!client.group) return;
    if (client.group->refs.fetch_sub(1, std::memory_order_relaxed) == 1 &&
        !client.group->filter.pass_all()) {
      const GroupTable* table =
          group_table_.load(std::memory_order_relaxed);
      auto next = std::make_unique<GroupTable>(*table);
      next->by_key.erase(client.group->key);
      publish_table_writer_locked(std::move(next));
    }
    client.group.reset();
  }

  /// Caller holds groups_writer_mutex_. Makes the client a member of
  /// `filter`'s group, creating the group if this is its first member.
  /// A fresh group enters the table with no tick: the collector's next
  /// pass seeds its basis at that pass's sequence, and its members'
  /// first full lands at or after it — no delta ever skips a tick they
  /// saw.
  void join_group_writer_locked(Client& client, SubscriptionFilter filter) {
    const GroupTable* table = group_table_.load(std::memory_order_relaxed);
    std::string key = filter.canonical_key();
    const auto it = table->by_key.find(key);
    if (it != table->by_key.end()) {
      client.group = it->second;
    } else {
      auto group = std::make_shared<FilterGroup>();
      group->key = key;
      group->filter = std::move(filter);
      client.group = group;
      auto next = std::make_unique<GroupTable>(*table);
      next->by_key.emplace(std::move(key), std::move(group));
      publish_table_writer_locked(std::move(next));
    }
    client.group->refs.fetch_add(1, std::memory_order_relaxed);
  }

  /// Caller holds groups_writer_mutex_. Swaps the published table in
  /// and retires the superseded one through the epoch domain (the
  /// collector's pass may still hold it pinned).
  void publish_table_writer_locked(std::unique_ptr<GroupTable> next) {
    const GroupTable* old =
        group_table_.exchange(next.release(), std::memory_order_acq_rel);
    if (old != nullptr) epochs_.retire(old);
  }

  /// Moves the client onto `filter`'s group (the pass-all group for an
  /// empty filter) and schedules the re-basing full. Membership changes
  /// are the RARE writer path of the RCU scheme: serialized on
  /// groups_writer_mutex_, they copy the current table (shared_ptr
  /// values — O(groups) pointer copies), edit the copy off to the side
  /// and publish it by pointer swap. Readers — the collector's pass and
  /// workers snapshotting ticks — never wait here.
  void apply_subscription(Client& client, SubscriptionFilter filter) {
    std::lock_guard wlock(groups_writer_mutex_);
    release_group_writer_locked(client);
    join_group_writer_locked(client, std::move(filter));
    trace(obs::TraceKind::kSubscribe, static_cast<std::uint64_t>(client.fd),
          client.group->refs.load(std::memory_order_relaxed));
    client.force_full = true;
  }

  /// Parses complete inbound records — { kAckByte, seq } acks and
  /// kControlByte-framed control records — out of the client's
  /// buffered bytes. False = EOF / error / protocol violation: close.
  bool read_inbound(Client& client) {
    char buf[256];
    while (true) {
      const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
      if (n == 0) return false;  // orderly EOF
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      client.inbuf.append(buf, static_cast<std::size_t>(n));
    }
    while (!client.inbuf.empty()) {
      const unsigned char type = static_cast<unsigned char>(client.inbuf[0]);
      if (type == kAckByte) {
        const char* cursor = client.inbuf.data() + 1;
        const char* const end = client.inbuf.data() + client.inbuf.size();
        std::uint64_t seq = 0;
        if (!read_uvarint(&cursor, end, seq)) {
          // Truncated varint: wait for more bytes — unless the buffer
          // already holds a full-size record, which makes it malformed.
          return client.inbuf.size() < kMaxAckBytes;
        }
        client.acked_seq = std::max(client.acked_seq, seq);
        bump(kAcksReceived);
        // Apply-lag proxy: collect-stamp → ack-receipt for the newest
        // published frame (older acks are skipped — their stamp is
        // gone; the racy seq/ns pair is at worst one tick stale, noise
        // at histogram granularity).
        if (seq != 0 && seq == count(kFramesCollected)) {
          const std::uint64_t collected =
              last_pub_collect_ns_.load(std::memory_order_relaxed);
          const std::uint64_t now = steady_now_ns();
          if (now > collected) {
            record_ns(kApplyLag, std::chrono::nanoseconds(now - collected));
          }
        }
        client.inbuf.erase(0, static_cast<std::size_t>(cursor -
                                                       client.inbuf.data()));
        continue;
      }
      if (type == kControlByte) {
        if (client.inbuf.size() < kControlPrefixBytes) return true;  // wait
        const std::uint64_t len = read_u32le(client.inbuf.data() + 1);
        if (len > kMaxControlPayload) return false;  // lying length
        if (client.inbuf.size() < kControlPrefixBytes + len) return true;
        ControlFrame control;
        if (!decode_control_payload(
                std::string_view(client.inbuf.data() + kControlPrefixBytes,
                                 static_cast<std::size_t>(len)),
                control)) {
          return false;  // malformed control frame
        }
        if (control.kind == FrameKind::kSubscribe) {
          apply_subscription(client, std::move(control.filter));
          // A subscription moves the client's data path back to TCP: the
          // ring it rode (or was about to be offered) carries the old
          // group's stream, and the client detached before sending
          // SUBSCRIBE. It may request the new group's ring afterwards.
          client.shm_consuming = false;
          client.shm_offer_pending = false;
          bump(kSubscribesReceived);
        } else if (control.kind == FrameKind::kMetricszRequest) {
          client.metricsz_pending = true;  // rendered by service_client
        } else if (control.kind == FrameKind::kShmRequest) {
          bump(kShmRequestsReceived);
          // Answered by service_client with the client's group ring —
          // unless shm is disabled or the ring cannot be made, in which
          // case the requester silently stays on TCP.
          client.shm_offer_pending = options_.shm_enable;
        } else if (control.kind == FrameKind::kShmAccept) {
          // Generation must match the client's group ring: a stale
          // accept (raced with a ring break, or with a SUBSCRIBE to
          // another group) keeps the client on TCP.
          const GroupRing* ring =
              client.group->ring.load(std::memory_order_acquire);
          if (ring != nullptr &&
              !ring->broken.load(std::memory_order_relaxed) &&
              control.shm_generation == ring->writer.generation()) {
            client.shm_consuming = true;
            bump(kShmAcceptsReceived);
            trace(obs::TraceKind::kShmAccept,
                  static_cast<std::uint64_t>(client.fd),
                  control.shm_generation);
          }
        } else {
          client.force_full = true;  // RESYNC: full at the next service
          // A RESYNC from a ring consumer means it lost the ring's
          // delta chain (overrun, corrupt slot): demote it to TCP so
          // deltas flow again after the recovery full. While the view
          // trails the ring, every ring delta is a future-gap skip —
          // only a live TCP stream can walk the view forward to where
          // the ring's chain picks it up. The client re-ACCEPTs once a
          // ring frame applies cleanly again, which re-freezes this
          // stream (sent_seq stays stale-low for the next demotion).
          client.shm_consuming = false;
          bump(kResyncsReceived);
          trace(obs::TraceKind::kResync,
                static_cast<std::uint64_t>(client.fd));
        }
        client.inbuf.erase(0, kControlPrefixBytes +
                                  static_cast<std::size_t>(len));
        continue;
      }
      return false;  // not speaking our protocol
    }
    return true;
  }

  /// Drains the in-flight buffer; true when fully written (or nothing
  /// pending), false when blocked or the client closed.
  bool flush(Client& client) {
    if (!client.out) return true;
    while (client.off < client.out->size()) {
      const ssize_t n =
          ::send(client.fd, client.out->data() + client.off,
                 client.out->size() - client.off, MSG_NOSIGNAL);
      if (n > 0) {
        client.off += static_cast<std::size_t>(n);
        bump(kBytesSent, static_cast<std::uint64_t>(n));
        if (client.talker != nullptr) {
          client.talker->fetch_add(static_cast<std::uint64_t>(n),
                                   std::memory_order_relaxed);
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n < 0 && errno == EINTR) continue;
      close_client(client);  // error, or the impossible 0-byte send
      return false;
    }
    drop_inflight(client);
    return true;
  }

  /// The group's ring, creating it on first use (worker thread, under
  /// the group's ring mutex). Null when the segment cannot be made (no
  /// /dev/shm, rlimits) — then never retried for this group.
  GroupRing* ring_for(FilterGroup& group) {
    if (GroupRing* ring = group.ring.load(std::memory_order_acquire)) {
      return ring;
    }
    std::lock_guard lock(group.ring_mutex);
    if (GroupRing* ring = group.ring.load(std::memory_order_relaxed)) {
      return ring;
    }
    if (group.ring_failed) return nullptr;
    auto ring = std::make_unique<GroupRing>();
    ShmRingWriter& writer = ring->writer;
    auto frame = std::make_shared<std::string>();
    if (!writer.create(options_.shm_slots, options_.shm_slot_bytes) ||
        !encode_shm_offer_frame({.name = writer.name(),
                                 .generation = writer.generation(),
                                 .slot_count = writer.slot_count(),
                                 .slot_payload_bytes =
                                     writer.slot_payload_bytes()},
                                *frame)) {
      group.ring_failed = true;
      return nullptr;  // the unique_ptr unlinks a half-made segment
    }
    ring->offer = std::move(frame);
    GroupRing* raw = ring.release();
    group.ring.store(raw, std::memory_order_release);
    return raw;
  }

  /// Copies the group's published tick into `out` under an epoch guard
  /// (the shared_ptr copies extend every payload past the guard). False
  /// while the group has none (born after the last pass).
  bool load_tick(const FilterGroup& group, GroupTick& out) {
    const base::EpochDomain::Guard eguard(epochs_);
    const GroupTick* published = group.tick.load(std::memory_order_acquire);
    if (published == nullptr) return false;
    out = *published;
    return true;
  }

  /// The backpressure policy (see server.hpp), one path for every
  /// client: finish the in-flight frame; once drained, hand the client
  /// the NEWEST state of its group in the cheapest applicable encoding,
  /// served from the group's published GroupTick without a lock: a
  /// re-basing full when needed (the one rare path, with a per-group
  /// cache mutex), the group's shared tick delta when in step, a
  /// per-client catch-up delta when lagged, and nothing at all while the
  /// group is quiet.
  void service_client(Client& client) {
    if (client.fd < 0) return;
    const bool drained = flush(client);
    if (client.fd < 0) return;
    // The eviction clock runs whether or not the flush is blocked — a
    // half-open peer IS a permanently blocked flush.
    const std::uint64_t head = count(kFramesCollected);
    if (evict_if_ack_stalled(client, head)) return;
    if (!drained) return;  // blocked mid-frame
    FilterGroup& group = *client.group;
    // The offer waits until the client has been handed a frame of its
    // current group's stream (after a SUBSCRIBE: the re-basing full). TCP
    // order then guarantees its view holds the table the ring's frames
    // index before it ever reads one — and an offer overtaken by a
    // SUBSCRIBE always reaches the client ahead of the new group's full.
    if (client.shm_offer_pending && !client.force_full &&
        client.sent_seq != 0) {
      // The offer rides the data channel — framed like a data frame, it
      // lands between frames, never splitting one.
      client.shm_offer_pending = false;
      const GroupRing* ring = ring_for(group);
      if (ring != nullptr && !ring->broken.load(std::memory_order_relaxed)) {
        set_inflight(client, ring->offer);
        bump(kShmOffersSent);
        trace(obs::TraceKind::kShmOffer,
              static_cast<std::uint64_t>(client.fd),
              ring->writer.generation());
        flush(client);
        return;
      }
    }
    GroupTick tick;
    // A pending metricsz page rides the data channel between frames,
    // exactly like an shm offer — and is served to every client state
    // (shm consumers keep their control TCP).
    if (client.metricsz_pending && load_tick(group, tick)) {
      client.metricsz_pending = false;
      set_inflight(client, metricsz_page(tick));
      flush(client);
      return;
    }
    if (client.shm_consuming) {
      const GroupRing* ring = group.ring.load(std::memory_order_acquire);
      if (ring != nullptr && !ring->broken.load(std::memory_order_relaxed)) {
        return;  // data rides the ring: zero per-tick work here
      }
      // Demote back to TCP. Safe mid-stream: sent_seq was frozen at the
      // last TCP-sent frame (stale-low), so the catch-up below re-covers
      // ticks the ring already delivered — deltas carry absolute values
      // and apply idempotently. (An overrun RESYNC demotes in
      // read_inbound for the same reason.)
      client.shm_consuming = false;
    }
    if (!load_tick(group, tick)) return;
    // Re-base against the group's WIRE label, not the raw registry
    // version: a create outside the subset bumps the registry but not
    // wire_regver, so in-step members keep streaming deltas.
    if (!client.force_full && client.sent_seq != 0 &&
        client.sent_regver == tick.wire_regver) {
      if (tick.sent_seq <= client.sent_seq) return;  // quiet: nothing
      if (tick.delta && tick.delta_base <= client.sent_seq) {
        // In step (or covered): the group's one shared encode this tick.
        set_inflight(client, std::move(tick.delta));
        client.sent_seq = tick.pass_seq;
        bump(kDeltaFramesSent);
        flush(client);
        return;
      }
      send_catch_up(client, tick);
      return;
    }
    if (tick.pass_seq <= client.sent_seq) return;  // re-base next tick
    set_inflight(client, group_full(group, tick));
    client.sent_seq = tick.pass_seq;
    client.sent_regver = tick.wire_regver;
    client.force_full = false;
    bump(kFullFramesSent);
    flush(client);
  }

  /// A lagging client (below the shared delta's basis): a per-client
  /// delta of what moved in its group's subset since its last
  /// fully-sent frame — the rows of the tick's selection that its record
  /// stamps after the client's sent_seq, valued from the same record,
  /// labeled and stamped with the tick's pass. That is complete and
  /// exact: the stamps and values are both the state at pass_seq, so a
  /// row that changed in (sent_seq, pass_seq] is named and nothing
  /// later is. Its positions are the selection's, so a create outside
  /// the subset (the group's wire label unmoved) changes nothing here.
  void send_catch_up(Client& client, const GroupTick& tick) {
    if (tick.pass_seq > client.sent_seq + 1) {
      bump(kFramesCoalesced, tick.pass_seq - client.sent_seq - 1);
    }
    // Labeled with the group's pinned wire version — the index space of
    // the client's table.
    auto buf = std::make_shared<std::string>();
    encode_delta_frame(tick.pass_seq, tick.wire_regver, tick.collect_ns,
                       client.sent_seq, *tick.record, tick.selection.get(),
                       *buf);
    set_inflight(client, std::move(buf));
    client.sent_seq = tick.pass_seq;
    bump(kCatchupDeltasSent);
    flush(client);
  }

  /// A metricsz page (a stream-ready kMetricsz frame) rendered from
  /// `tick`: its record's `__sys/` rows — every row, whatever the
  /// group's selection — plus the trace ring's tail, stamped with the
  /// tick's pass. Rare (one per request), so it allocates freely.
  std::shared_ptr<const std::string> metricsz_page(const GroupTick& tick) {
    std::vector<shard::Sample> rows;
    tick.record->rows_into(nullptr, rows);
    std::string text;
    (void)obs::render_metricsz(rows, trace_, text);
    auto page = std::make_shared<std::string>();
    encode_metricsz_frame(tick.pass_seq, tick.record->registry_version,
                          tick.collect_ns, text, *page);
    return page;
  }

  /// The group's full for `tick`, encoding it at most once (lazily,
  /// cached per group+pass) no matter how many members — or the group's
  /// ring — need it. The inputs all come from ONE GroupTick, so the
  /// (record, selection, wire label, stamp) tuple is coherent by
  /// construction; the rows are materialized from the record's name
  /// table plus its values, O(subset) — names are never copied per tick.
  std::shared_ptr<const std::string> group_full(FilterGroup& group,
                                                const GroupTick& tick) {
    std::lock_guard lock(group.full_mutex);
    if (group.full && group.full_seq == tick.pass_seq) return group.full;
    shard::TelemetryFrame rows;
    rows.sequence = tick.pass_seq;
    rows.registry_version = tick.wire_regver;
    tick.record->rows_into(tick.selection.get(), rows.samples);
    auto buf = std::make_shared<std::string>();
    encode_full_frame(rows, tick.collect_ns, *buf);
    group.full = std::move(buf);
    group.full_seq = tick.pass_seq;
    bump(kGroupFullEncodes);
    return group.full;
  }

  /// Refreshes the group's selection when the registry's name table
  /// moved. Returns true when the SUBSET itself changed — and then bumps
  /// the group's pinned wire_regver, which re-bases its members (the
  /// first pass always does). The registry is append-only and its name
  /// table name-sorted, so a fixed filter's subset can only grow: an
  /// unchanged subset SIZE across a version bump means an unchanged
  /// subset (names and order), merely shifted flat indices — the pin
  /// that lets disjoint creates leave the group's stream untouched.
  /// Collector thread only (the fields are collector-private; workers
  /// see the immutable copies published in GroupTicks).
  bool ensure_selection(FilterGroup& group, const shard::TickRecord& record) {
    if (group.sel_regver == record.registry_version) return false;
    const bool had = group.sel_regver != 0;
    const std::size_t prev_size = group.subset_size;
    const std::vector<shard::Sample>& names = *record.names;
    if (group.filter.pass_all()) {
      group.subset_size = names.size();  // selection stays null
    } else {
      auto selection = std::make_shared<std::vector<std::uint64_t>>();
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (group.filter.matches(names[i].name)) selection->push_back(i);
      }
      group.subset_size = selection->size();
      group.selection = std::move(selection);
    }
    group.sel_regver = record.registry_version;
    const bool subset_changed = !had || group.subset_size != prev_size;
    if (subset_changed) group.wire_regver = record.registry_version;
    return subset_changed;
  }

  /// The collector's per-tick, per-group pass: maintains the group's
  /// selection against the tick's registry version and, when a row of
  /// its subset is stamped after the group's basis (or a heartbeat is
  /// due), encodes the ONE delta every in-step member of the group will
  /// share; feeds the group's ring; then publishes it all as this pass's
  /// immutable GroupTick (RCU pointer swap; the superseded tick retires
  /// through the epoch domain). Collector thread only.
  void collector_group_pass(
      FilterGroup& group,
      const std::shared_ptr<const shard::TickRecord>& record,
      std::uint64_t collect_ns) {
    const bool rebased = ensure_selection(group, *record);
    const bool members = group.refs.load(std::memory_order_relaxed) > 0;
    GroupRing* ring = group.ring.load(std::memory_order_acquire);
    if (ring != nullptr && ring->broken.load(std::memory_order_relaxed)) {
      ring = nullptr;
    }
    std::shared_ptr<const std::string> delta;
    std::uint64_t delta_base = 0;
    if (rebased || !members) {
      // The first pass establishes the basis; a re-base (a create landed
      // IN the subset: wire_regver just bumped) resets it — every member
      // takes a full from this tick. A memberless group (only pass-all
      // outlives its members) is owed nothing: its basis just follows
      // the ticks, and a newcomer starts from a full anyway.
      group.sent_seq = record->pass_seq;
      group.ticks_suppressed = 0;
    } else {
      bool moved = false;
      record->for_each_changed(group.selection.get(), group.sent_seq,
                               [&](std::size_t, std::size_t) { moved = true; });
      // A quiet subset ships nothing (basis stays put) until a heartbeat
      // is due — except into a ring: ring readers detect a dead server
      // by a head that stops moving, so a ring group ships every tick.
      if (!moved && ring == nullptr &&
          ++group.ticks_suppressed < kGroupHeartbeatTicks) {
        bump(kGroupDeltasSuppressed);
      } else {
        auto buf = std::make_shared<std::string>();
        // Labeled with the group's pinned wire version (== the registry
        // version of its members' tables), NOT the raw registry
        // version: across disjoint creates the stream keeps flowing
        // under the old label and nobody re-bases.
        encode_delta_frame(record->pass_seq, group.wire_regver, collect_ns,
                           group.sent_seq, *record, group.selection.get(),
                           *buf);
        delta = std::move(buf);
        delta_base = group.sent_seq;
        group.sent_seq = record->pass_seq;
        group.ticks_suppressed = 0;
        bump(kGroupDeltaEncodes);
      }
    }
    auto* tick = new GroupTick;
    tick->pass_seq = record->pass_seq;
    tick->collect_ns = collect_ns;
    tick->wire_regver = group.wire_regver;
    tick->sent_seq = group.sent_seq;
    tick->delta = delta;
    tick->delta_base = delta_base;
    tick->record = record;
    tick->selection = group.selection;
    // The ring carries the bytes the group's TCP stream carries this
    // tick — the delta, else the full (encoded here, eagerly: ring
    // readers cannot ask for one) — minus the u32le stream prefix; ring
    // slots carry their own length, and readers hand the payload
    // straight to the view.
    if (ring != nullptr && members) {
      const std::shared_ptr<const std::string> bytes =
          delta ? delta : group_full(group, *tick);
      if (ring->writer.publish(
              std::string_view(*bytes).substr(kFramePrefixBytes))) {
        bump(kShmFramesPublished);
      } else {
        bump(kShmPublishFailures);
        ring->broken.store(true, std::memory_order_relaxed);
        trace(obs::TraceKind::kShmDemote, ring->writer.generation());
      }
    }
    // Publish the fully built tick, then retire the one it replaces —
    // a worker may still hold it pinned under an epoch guard.
    const GroupTick* old = group.tick.exchange(tick, std::memory_order_acq_rel);
    if (old != nullptr) epochs_.retire(old);
  }

  void publish_min_acked(Worker& worker) {
    std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
    for (const Client& client : worker.clients) {
      floor = std::min(floor, client.acked_seq);
    }
    worker.min_acked.store(floor, std::memory_order_relaxed);
  }

  ServerOptions options_;
  Collect collect_;
  mutable std::mutex lifecycle_mutex_;  // start/stop/stats (see start())
  std::atomic<bool> running_{false};
  /// The collector waits out each tick on tick_cv_ until running_ drops;
  /// stop() drops it under tick_mutex_, so the wake-up cannot be lost.
  std::mutex tick_mutex_;
  std::condition_variable tick_cv_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread collector_;
  std::atomic<unsigned> next_worker_{0};
  /// Filter groups, keyed by canonical filter, RCU-published: the
  /// current immutable GroupTable hangs off this atomic pointer and
  /// always holds the pass-all group. Readers — the collector's pass
  /// and (indirectly, via the per-group tick pointers) the workers — pin
  /// with an epoch guard and never block; membership changes are the
  /// rare writer path: serialized on groups_writer_mutex_, they build
  /// the next table off to the side and swap, retiring the old one
  /// through epochs_. Client::group pointers are worker-thread-owned
  /// shared_ptrs that keep a group alive independently of table
  /// turnover.
  std::mutex groups_writer_mutex_;
  std::atomic<const GroupTable*> group_table_{nullptr};
  /// Epoch domain for everything RCU-published here (tables and group
  /// ticks). The collector drives reclaim() once per tick; stop()
  /// drains the backlog after the joins.
  base::EpochDomain epochs_;
  /// The one counter source: ServerStats copies from it, and the
  /// `__sys/` views share its ownership (see kCounterTable).
  std::shared_ptr<Instruments> instruments_;
  /// Flight recorder; null = tracing off. Not owned.
  obs::TraceRing* trace_ = nullptr;
  /// The newest collect stamp, paired with the kFramesCollected slot
  /// (the newest sequence): the apply-lag proxy reads both with relaxed
  /// loads. The pair can be torn across a tick boundary — at worst one
  /// tick of skew in a histogram sample, which the bucket width
  /// swallows.
  std::atomic<std::uint64_t> last_pub_collect_ns_{0};
};

}  // namespace detail

template <typename Backend>
  requires(!Backend::kInstrumented)
SnapshotServerT<Backend>::SnapshotServerT(shard::RegistryT<Backend>& registry,
                                          unsigned pid, ServerOptions options)
    : aggregator_(registry, pid) {
  const auto collect = [this](shard::TickRecord& tick) {
    aggregator_.collect_tick(tick);
  };
  core_ = std::make_unique<detail::ServerCore>(options, collect);
  if (!options.self_metrics) return;
  // The `__sys/` rows: one view per exported instrument of this server's
  // block (a restart re-points the rows a previous server left).
  const std::shared_ptr<detail::Instruments>& block = core_->instruments();
  const std::string prefix = "__sys/server.";
  for (const detail::CounterRow& row : detail::kCounterTable) {
    if (row.sys_name == nullptr) continue;
    obs::install_view<obs::CounterView>(
        registry, prefix + row.sys_name,
        std::shared_ptr<const std::atomic<std::uint64_t>>(
            block, &block->counters[row.slot]));
  }
  for (std::size_t t = 0; t < detail::kTimings; ++t) {
    obs::install_view<obs::HistogramView>(
        registry, prefix + detail::kTimingNames[t],
        std::shared_ptr<obs::ServerHistogram>(block, &block->timings[t]));
  }
  obs::install_view<obs::TopKView>(
      registry, prefix + "top_talkers",
      std::shared_ptr<obs::TopTalkers>(block, &block->top_talkers));
}

template <typename Backend>
  requires(!Backend::kInstrumented)
SnapshotServerT<Backend>::~SnapshotServerT() {
  stop();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
bool SnapshotServerT<Backend>::start() {
  return core_->start();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
void SnapshotServerT<Backend>::stop() {
  core_->stop();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
std::uint16_t SnapshotServerT<Backend>::port() const {
  return core_->port();
}

template <typename Backend>
  requires(!Backend::kInstrumented)
ServerStats SnapshotServerT<Backend>::stats() const {
  return core_->stats();
}

template class SnapshotServerT<base::DirectBackend>;
template class SnapshotServerT<base::RelaxedDirectBackend>;

}  // namespace approx::svc
