// aggregator.hpp — periodic batched reader over a counter registry.
//
// The monitoring plane of the telemetry fleet: collect() batches one
// single-pass Registry::snapshot_all_into walk into a compact,
// sequence-numbered TelemetryFrame — the unit a scraper would ship
// off-box. Because every sample carries its error model + composed
// bound, a frame is self-describing: downstream consumers need no side
// channel to know how approximate each figure is.
//
// Frame assembly is allocation-free at steady state: the aggregator owns
// a scratch frame whose sample storage is refreshed in place by the
// registry's flat-table pass (names/models/bounds are re-copied only
// when the registry version changed), so a frame costs one read per
// counter — plus, for collect() and background mode, the publication
// copy for latest(). collect_into() refreshes the caller's frame and
// collect_tick() fills the caller's tick record (the sequenced sweep the
// snapshot server serves from); both publish only the sequence, so
// latest() is not touched.
//
// Publication ordering: the sequence number is *released last*. Every
// pass release-stores next_sequence_ after the registry pass finished —
// and collect() and background mode only after storing the frame into
// latest_ (under latest_mutex_); frames_collected() loads it with
// acquire. A consumer that observes frames_collected() ≥ N therefore
// synchronizes with pass N, and after a collect() or a background pass
// a subsequent latest() returns a frame with sequence ≥ N. (A
// fetch_add(relaxed) *before* the payload store would order nothing:
// the counter could read N while latest_ still held frame N−1.)
//
// Two modes:
//
//   * pull — call collect() whenever a frame is wanted (any backend;
//     this is what instrumented tests drive under the sim);
//   * background — start(period) spawns a thread that collects every
//     `period` and publishes the newest frame for latest() readers.
//     Restricted to DirectBackend: an instrumented background thread
//     would charge steps to (and yield into) whatever scheduler the
//     test harness has installed, which only makes sense for program
//     threads the harness knows about.
//
// The aggregator reads as a dedicated pid: give it its own slot in the
// registry's pid space (one thread per pid is the repo-wide contract —
// per-pid read cursors inside k-multiplicative shards are not shareable
// between the aggregator and a worker).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "shard/registry.hpp"

namespace approx::shard {

/// One batched snapshot-all pass. Frames are totally ordered per
/// aggregator by `sequence`.
struct TelemetryFrame {
  std::uint64_t sequence = 0;  // 0 = no frame collected yet
  std::vector<Sample> samples;
  /// Registry version the samples' constant fields (name/model/bound)
  /// reflect — the in-place refresh cache for collect_into (and a
  /// provenance stamp: frames with equal versions describe the same
  /// counter set).
  std::uint64_t registry_version = 0;
};

template <typename Backend = base::InstrumentedBackend>
class AggregatorT {
 public:
  /// @param registry fleet to aggregate (must outlive the aggregator).
  /// @param pid the aggregator's dedicated slot in the registry's pid
  ///   space; no worker may share it.
  ///
  /// Single-sequencer contract: calling collect_tick() makes this
  /// aggregator the registry's sequencer — each call stamps the
  /// registry's change-tracking columns with the pass's sequence (the
  /// for_each_changed_since feed the service layer's delta frames walk)
  /// under the registry's exclusive lock. At most ONE aggregator per
  /// registry may call it, and its sequence domain is the only one delta
  /// consumers may use. Aggregators that only collect()/collect_into()
  /// keep the shared-lock read pass and leave the tracking columns
  /// untouched, so any number may coexist.
  AggregatorT(const RegistryT<Backend>& registry, unsigned pid)
      : registry_(registry), pid_(pid) {}

  ~AggregatorT() { stop(); }

  AggregatorT(const AggregatorT&) = delete;
  AggregatorT& operator=(const AggregatorT&) = delete;

  /// Collects one frame now (pull mode) and publishes it for latest().
  /// Serialized against the background thread (and other pull callers):
  /// the aggregator owns ONE pid, and the per-pid read state inside
  /// k-multiplicative shards must never be driven from two threads at
  /// once — the collect mutex enforces that, and also keeps published
  /// sequence numbers monotone in publication order. One single-pass
  /// walk of the registry's flat table, reusing the scratch frame's
  /// storage (see the header).
  TelemetryFrame collect() {
    std::lock_guard collect_lock(collect_mutex_);
    collect_locked(scratch_, /*publish_latest=*/true);
    return scratch_;
  }

  /// The zero-allocation form: refreshes `out` in place (values every
  /// pass; names/models/bounds only when the registry grew) and
  /// publishes only its sequence — latest() keeps the last frame
  /// collect() or background mode published. Callers that loop —
  /// scrapers, benches — reuse one frame and pay no per-frame
  /// allocation or copy at steady state.
  void collect_into(TelemetryFrame& out) {
    std::lock_guard collect_lock(collect_mutex_);
    collect_locked(out, /*publish_latest=*/false);
  }

  /// The sequenced pass (see the constructor's single-sequencer
  /// contract): one registry sweep into `tick` (RegistryT::collect_tick)
  /// under the next sequence, which it then publishes — latest() is not
  /// touched. The snapshot server's collector drives this every tick.
  void collect_tick(TickRecord& tick) {
    std::lock_guard collect_lock(collect_mutex_);
    const std::uint64_t sequence =
        next_sequence_.load(std::memory_order_relaxed) + 1;
    registry_.collect_tick(pid_, sequence, tick);
    next_sequence_.store(sequence, std::memory_order_release);
  }

  /// Newest frame collect() or background mode published (sequence 0
  /// with no samples before the first one).
  [[nodiscard]] TelemetryFrame latest() const {
    std::lock_guard lock(latest_mutex_);
    return latest_;
  }

  /// Passes completed so far, by any form. Pairs (acquire) with each
  /// pass's release store: after observing N here, pass N's effects are
  /// visible — after collect() or background mode, latest() returns
  /// sequence ≥ N.
  [[nodiscard]] std::uint64_t frames_collected() const noexcept {
    return next_sequence_.load(std::memory_order_acquire);
  }

  /// Background mode (DirectBackend only; see header): collect a frame
  /// every `period` until stop(). No-op if already running.
  void start(std::chrono::milliseconds period)
    requires(!Backend::kInstrumented)
  {
    if (thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this, period] {
      while (!stop_.load(std::memory_order_acquire)) {
        {
          std::lock_guard collect_lock(collect_mutex_);
          collect_locked(scratch_, /*publish_latest=*/true);
        }
        // Sleep in small slices so stop() stays responsive at long
        // periods.
        const auto deadline = std::chrono::steady_clock::now() + period;
        while (!stop_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  /// Stops the background thread, if any. Idempotent.
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] unsigned pid() const noexcept { return pid_; }

 private:
  /// One single-pass frame refresh + publication (of the frame into
  /// latest_ when `publish_latest`, then of its sequence); collect_mutex_
  /// held.
  void collect_locked(TelemetryFrame& frame, bool publish_latest) {
    // next_sequence_ is only written under collect_mutex_, so a plain
    // relaxed load reads our own last publication.
    frame.sequence = next_sequence_.load(std::memory_order_relaxed) + 1;
    frame.registry_version = registry_.snapshot_all_into(
        pid_, frame.samples, frame.registry_version);
    if (publish_latest) {
      std::lock_guard lock(latest_mutex_);
      latest_ = frame;
    }
    // Payload first, sequence last (release): an observer of sequence N
    // via frames_collected() sees pass N complete (header comment).
    next_sequence_.store(frame.sequence, std::memory_order_release);
  }

  const RegistryT<Backend>& registry_;
  unsigned pid_;
  std::mutex collect_mutex_;  // serializes collect() passes (see above)
  TelemetryFrame scratch_;    // collect()/background storage (collect_mutex_)
  std::atomic<std::uint64_t> next_sequence_{0};
  mutable std::mutex latest_mutex_;
  TelemetryFrame latest_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

using Aggregator = AggregatorT<base::InstrumentedBackend>;

}  // namespace approx::shard
