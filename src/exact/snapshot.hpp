// snapshot.hpp — wait-free single-writer atomic snapshot.
//
// The classic construction of Afek, Attiya, Dolev, Gafni, Merritt and
// Shavit (JACM 1993), which §I.A of the paper invokes: "a wait-free exact
// counter with optimal worst case step complexity can be constructed
// easily by using a wait-free atomic snapshot". We implement it as a
// substrate and derive the snapshot-based exact counter from it.
//
// Each process owns one component. An update embeds a full scan ("view")
// in the written record; a scanner that observes the same process move
// twice during its double collects can safely borrow that process's
// embedded view, which was taken entirely within the scanner's interval.
// This yields wait-free scans with O(n²) steps and O(n) updates plus the
// embedded scan, i.e. O(n²) overall — the linear-per-component costs the
// paper's related-work discussion refers to.
//
// Record publication uses pointer-swing to an immutable heap record, the
// standard realization of a large atomic register. Superseded records are
// retired through the snapshot's epoch domain.
//
// RECLAMATION. Retired records reclaim through per-reader epochs
// (base/epoch.hpp); a Record is a base::Retired, so the domain's
// intrusive list holds it and its retire allocates nothing:
//
//   * every scan holds an epoch Guard for its whole duration (collect
//     loads through result assembly) — it pins the global epoch it
//     started in;
//   * update() unlinks the superseded record from its slot *before*
//     retiring it; retire() stamps it with the domain's fenced epoch
//     read;
//   * the snapshot keeps only the trigger: once the domain's retired
//     count reaches the armed threshold, an updater runs one reclaim()
//     pass, which frees exactly the records whose stamp the horizon has
//     passed by the grace margin — a reader that could still hold such
//     a pointer would be pinning an older epoch and would have held the
//     horizon back. A pass that frees something re-arms the threshold
//     at `retire_cap`; one that frees nothing re-arms it cap/4 + 1
//     retirements above the current backlog.
//
// The cap is a HARD bound under per-reader progress: reclamation
// never needs a moment with zero scans in flight, only that each
// individual scan eventually finishes (which wait-freedom guarantees).
// Continuously overlapping scans therefore keep the list within a small
// constant factor of the cap — the backlog between probes is at most
// the records retired while the horizon crosses the grace margin,
// O(retire_cap) — where the old in-flight-counter scheme could be
// starved indefinitely. retired_records_unrecorded() exposes the length
// for tests. The epoch domain is memory management, not a model
// primitive: like helped_scans_ it is never charged as steps.
//
// Memory-order audit (RelaxedDirectBackend). The record-pointer slots
// are the snapshot's only model primitives, and they are a textbook
// publication pattern: update() fully constructs the immutable record
// (value, seq, embedded view) before swinging the slot pointer, so the
// swing requests kStoreRelease and every collect load requests
// kLoadAcquire — a scanner that observes a record (in particular one it
// borrows the embedded view from) synchronizes with its writer and sees
// the record's contents. The writer's read of its *own* slot (to chain
// seq) requests kLoadRelaxed: the slot is single-writer, so per-location
// coherence already returns its last store. Retirement and reclamation
// are the epoch domain's (see base/epoch.hpp): pin / advance / horizon
// stay seq_cst (a total-order argument), its stamp() fence orders the
// release-order slot swing before the stamp in that total order, and
// its list push and counters carry their own roles. The trigger
// threshold here is a relaxed per-location tally.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "base/backend.hpp"
#include "base/epoch.hpp"
#include "base/object_id.hpp"
#include "base/step_recorder.hpp"

namespace approx::exact {

/// n-component single-writer atomic snapshot over uint64 values.
/// Component i may be updated only by process i; any process may scan.
template <typename Backend = base::InstrumentedBackend>
class SnapshotT {
 public:
  using backend_type = Backend;

  /// Default bound on the retired-record list — hard up to a small
  /// constant factor under per-reader progress (see header).
  static constexpr std::size_t kDefaultRetireCap = 1024;

  explicit SnapshotT(unsigned num_processes,
                     std::size_t retire_cap = kDefaultRetireCap);
  ~SnapshotT();

  SnapshotT(const SnapshotT&) = delete;
  SnapshotT& operator=(const SnapshotT&) = delete;

  /// Atomically sets component `pid` to `value`. Single writer per pid.
  void update(unsigned pid, std::uint64_t value);

  /// Returns an atomic view of all components.
  [[nodiscard]] std::vector<std::uint64_t> scan() const;

  [[nodiscard]] unsigned num_processes() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// Number of scans (process-wide) that returned a borrowed embedded
  /// view rather than a clean double collect. Diagnostic only (the
  /// helping branch is hard to reach without an adversarial schedule);
  /// not part of the algorithm and not charged as steps.
  [[nodiscard]] std::uint64_t helped_scans_unrecorded() const noexcept {
    return helped_scans_.load(std::memory_order_relaxed);
  }

  /// Current length of the retired-record list (diagnostic; racy under
  /// concurrency, exact at quiescence). Stays within a small constant
  /// factor of retire_cap whenever every scan eventually finishes.
  [[nodiscard]] std::size_t retired_records_unrecorded() const noexcept {
    return epochs_.retired_count();
  }

  /// Total records freed by the epoch domain (diagnostic).
  [[nodiscard]] std::uint64_t reclaimed_records_unrecorded() const noexcept {
    return epochs_.reclaimed_count();
  }

  [[nodiscard]] std::size_t retire_cap() const noexcept {
    return retire_cap_;
  }

 private:
  struct Record : base::Retired {
    std::uint64_t value = 0;
    std::uint64_t seq = 0;            // per-writer update count
    std::vector<std::uint64_t> view;  // embedded scan (empty for seq 0)
  };

  struct Slot {
    [[no_unique_address]] typename Backend::ObjectHandle id;
    std::atomic<Record*> record{nullptr};
  };

  // One collect: reads every slot once (n read steps).
  [[nodiscard]] std::vector<const Record*> collect() const;

  std::vector<Slot> slots_;
  std::unique_ptr<Record[]> initial_;       // seq-0 records, one per slot
  std::size_t retire_cap_;
  // Reader pins for scans and the retired-record list; sized past the
  // process count so extra helper threads never hit the overflow
  // fallback in practice. Its destructor frees the records still
  // retired.
  mutable base::EpochDomainT<Backend> epochs_;
  // The reclaim trigger: the retired count that starts the next pass.
  std::atomic<std::size_t> next_reclaim_at_{0};
  mutable std::atomic<std::uint64_t> helped_scans_{0};  // diagnostic
};

/// The model-faithful default instantiation (pre-policy class name).
using Snapshot = SnapshotT<base::InstrumentedBackend>;

// ---------------------------------------------------------------------
// Implementation.
// ---------------------------------------------------------------------

template <typename Backend>
SnapshotT<Backend>::SnapshotT(unsigned num_processes, std::size_t retire_cap)
    : slots_(num_processes),
      initial_(new Record[num_processes]),
      retire_cap_(retire_cap),
      epochs_(num_processes + 16),
      next_reclaim_at_(retire_cap) {
  assert(num_processes >= 1);
  for (unsigned i = 0; i < num_processes; ++i) {
    slots_[i].record.store(&initial_[i], std::memory_order_relaxed);
  }
}

template <typename Backend>
SnapshotT<Backend>::~SnapshotT() {
  for (auto& slot : slots_) {
    Record* rec = slot.record.load(std::memory_order_relaxed);
    if (rec != nullptr && rec->seq != 0) delete rec;  // seq 0 lives in initial_
  }
}

template <typename Backend>
auto SnapshotT<Backend>::collect() const -> std::vector<const Record*> {
  std::vector<const Record*> records(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Backend::on_step(slots_[i].id, base::PrimitiveKind::kRead);
    // Acquire pairs with update()'s release swing: the record's fields —
    // including the embedded view the helping branch returns — are
    // visible once the pointer is.
    records[i] =
        slots_[i].record.load(Backend::order(base::OrderRole::kLoadAcquire));
  }
  return records;
}

template <typename Backend>
std::vector<std::uint64_t> SnapshotT<Backend>::scan() const {
  // Pin the current epoch for the whole scan: every record pointer
  // obtained below stays safe from the reclaimer until the guard
  // releases (not a model primitive; never charged as a step).
  const typename base::EpochDomainT<Backend>::Guard guard(epochs_);
  const unsigned n = num_processes();
  std::vector<unsigned> moved(n, 0);
  std::vector<const Record*> first = collect();
  for (;;) {
    std::vector<const Record*> second = collect();
    bool clean = true;
    for (unsigned i = 0; i < n; ++i) {
      if (first[i] != second[i]) {
        clean = false;
        // `moved` counts observed moves relative to our own collects; a
        // second move means the writer performed a complete update —
        // including its embedded scan — inside our interval.
        if (++moved[i] >= 2) {
          assert(!second[i]->view.empty());
          helped_scans_.fetch_add(1, std::memory_order_relaxed);
          return second[i]->view;
        }
      }
    }
    if (clean) {
      std::vector<std::uint64_t> view(n);
      for (unsigned i = 0; i < n; ++i) view[i] = second[i]->value;
      return view;
    }
    first = std::move(second);
  }
}

template <typename Backend>
void SnapshotT<Backend>::update(unsigned pid, std::uint64_t value) {
  assert(pid < slots_.size());
  auto* record = new Record;
  record->value = value;
  record->view = scan();  // embedded view for scanner helping
  Slot& slot = slots_[pid];
  // Single-writer slot: coherence alone returns our own last store.
  Record* previous =
      slot.record.load(Backend::order(base::OrderRole::kLoadRelaxed));
  record->seq = previous->seq + 1;
  Backend::on_step(slot.id, base::PrimitiveKind::kWrite);
  // Release-publish the fully built record (see the audit in the header).
  slot.record.store(record, Backend::order(base::OrderRole::kStoreRelease));
  // The swing above unlinked `previous`, so retire()'s fenced stamp
  // follows the unlink in the domain's total order. Seq-0 records live
  // in initial_ and are never retired.
  if (previous->seq != 0) epochs_.retire(previous);
  // The trigger. An updater claims a reached threshold (disarming it)
  // before its pass, so a concurrent updater can neither start a second
  // pass nor re-arm from a count read before this pass's frees.
  std::size_t threshold = next_reclaim_at_.load(std::memory_order_relaxed);
  if (epochs_.retired_count() < threshold ||
      !next_reclaim_at_.compare_exchange_strong(
          threshold, std::numeric_limits<std::size_t>::max(),
          std::memory_order_relaxed)) {
    return;
  }
  // A pass that freed nothing re-arms a little above the backlog, so
  // each probe window advances the epoch once and the backlog stays
  // O(retire_cap) rather than probing every update.
  const std::size_t freed = epochs_.reclaim();
  next_reclaim_at_.store(
      freed > 0 ? retire_cap_ : epochs_.retired_count() + retire_cap_ / 4 + 1,
      std::memory_order_relaxed);
}

extern template class SnapshotT<base::DirectBackend>;
extern template class SnapshotT<base::RelaxedDirectBackend>;
extern template class SnapshotT<base::InstrumentedBackend>;

}  // namespace approx::exact
