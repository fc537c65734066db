// epoch.hpp — per-reader epochs: the RCU/quiescent-state reclamation
// primitive behind the server's published group tables and the exact
// snapshot's HARD retired-record bound.
//
// The repo had two ad-hoc answers to "when may a retired object be
// freed?": the snapshot sampled a process-wide in-flight counter and
// freed only at observed quiescence (a SOFT bound — continuously
// overlapping scans could starve reclamation forever), and the service
// layer simply serialized readers and writers on a mutex. This header
// replaces both with the standard epoch-based scheme:
//
//   * a domain owns a global epoch E and a fixed array of cache-line-
//     separated READER SLOTS. A reader takes a Guard for the duration
//     of its critical section: the guard claims a free slot and pins
//     the epoch it read there; releasing stores the slot free. Pinning
//     is wait-free (one CAS probe per slot, overflow fallback below)
//     and costs two seq_cst accesses per critical section.
//
//   * a writer that unlinks an object from all shared locations hands
//     it to retire(), which stamps it with `stamp()` (a seq_cst-fenced
//     read of E) and defers the free. Every retiree derives from
//     Retired, whose link and stamp make the retired list intrusive:
//     a retire allocates nothing, and reclaim() frees through the
//     virtual destructor.
//
//   * reclaim_horizon() computes the oldest epoch any current reader
//     may still be pinned at. An object stamped e is freeable once
//     `e + kGracePeriods <= horizon`: every reader that could possibly
//     have loaded a pointer to it has since released (or re-pinned at
//     a newer epoch, which orders its earlier loads before our scan).
//     try_advance() moves E forward whenever every pinned slot has
//     caught up to it — each reader merely has to keep FINISHING
//     critical sections for the horizon to advance, so the retired
//     backlog stays bounded even when sections overlap continuously.
//     That is exactly the hard-vs-soft difference: quiescence of the
//     whole system is never required, only per-reader progress.
//
// SAFETY ARGUMENT (why `stamp + 2 <= horizon` frees are sound; all
// handshake accesses below are seq_cst, so they form one total order S):
// let a record be unlinked, then stamped e (the stamp's load of E
// follows the unlink in S — stamp() issues a seq_cst fence first, which
// is also what makes a release-order unlink like the snapshot's
// pointer swing safe to combine with). For E to have reached e+1, some
// try_advance CAS(e→e+1) followed that load in S. Any reader whose
// pin-read returned >= e+1 therefore read AFTER that CAS, hence after
// the unlink — its subsequent critical-section loads see the new
// pointer and can never reach the record. A reader pinned at <= e
// keeps the horizon at <= e and blocks the free. The reclaimer reads E
// BEFORE scanning the slots, so a reader that claims a slot after the
// scan pins at least the E the reclaimer saw (>= e+2 at free time) and
// is covered by the same argument; a claim caught mid-pin is published
// as kPending, which zeroes the horizon. We ship kGracePeriods = 2
// although the argument above needs only 1 — the classic margin, and
// it keeps the scheme robust to a future weakening of any single site.
//
// OVERFLOW. A guard that finds every slot taken does not spin and does
// not break safety: it registers in an overflow counter that pins the
// horizon at 0 (nothing frees) until it exits. Size the domain for the
// expected reader concurrency and overflow never happens; undersize it
// and the bound degrades back to the old soft behavior, never to a
// use-after-free.
//
// Memory-order audit (RelaxedDirectBackend). The pin / advance /
// horizon handshake is deliberately seq_cst under EVERY backend — the
// safety argument above is a total-order argument, exactly like the
// snapshot's old capture scheme, and these are reclamation machinery,
// not model primitives (never charged as steps). The only role-mapped
// sites are the domain's retired-LIST operations, which are a textbook
// publication pattern: push releases the stamped, linked object
// (kRmwAcqRel on the head CAS would be stronger than needed — the
// reclaimer re-reads the chain only after a seq_cst exchange capture),
// and the diagnostic counters are kLoadRelaxed/kRmwRelaxed
// per-location tallies.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "base/backend.hpp"

namespace approx::base {

template <typename Backend>
class EpochDomainT;

/// Base of every object retired through an EpochDomainT: it carries the
/// domain's list link and retirement stamp, so retiring allocates
/// nothing. A copy takes neither: a reader may copy a published object
/// under its guard while the writer's retire() writes the source's
/// link, and the copy is on no list.
class Retired {
 public:
  Retired() = default;
  Retired(const Retired& /*other*/) noexcept {}
  Retired& operator=(const Retired& /*other*/) noexcept { return *this; }
  virtual ~Retired() = default;

 private:
  template <typename Backend>
  friend class EpochDomainT;

  mutable const Retired* retired_next_ = nullptr;
  mutable std::uint64_t retired_epoch_ = 0;
};

/// Epoch-based reclamation domain. Readers take Guards; writers stamp
/// retired objects and free them once the horizon passes. All methods
/// are thread-safe; reclaim() is additionally self-serializing (a
/// losing caller returns 0 and retries later).
template <typename Backend = DirectBackend>
class EpochDomainT {
 public:
  /// Epochs a stamped object must age before it is freeable — see the
  /// safety argument in the header (1 suffices; 2 is the margin).
  static constexpr std::uint64_t kGracePeriods = 2;

  static constexpr unsigned kDefaultReaderSlots = 64;

  explicit EpochDomainT(unsigned reader_slots = kDefaultReaderSlots)
      : slots_(reader_slots == 0 ? 1 : reader_slots) {}

  EpochDomainT(const EpochDomainT&) = delete;
  EpochDomainT& operator=(const EpochDomainT&) = delete;

  /// Frees everything still on the retired list. The caller
  /// guarantees no reader is active and no retire() is concurrent —
  /// the owning object's destructor, after its threads joined.
  ~EpochDomainT() { drain_unsafe(); }

  /// RAII reader pin. Claim a slot, pin the current epoch, release on
  /// destruction. Nesting is fine (each guard claims its own slot);
  /// a guard held across a blocking wait stalls reclamation — hold it
  /// only across the pointer loads and uses it protects.
  class Guard {
   public:
    explicit Guard(EpochDomainT& domain) : domain_(domain) {
      const std::size_t n = domain_.slots_.size();
      // Start probing at a per-thread point so steady readerships end
      // up with disjoint home slots and the CAS succeeds first try.
      const std::size_t start =
          std::hash<std::thread::id>{}(std::this_thread::get_id()) % n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t index = (start + i) % n;
        std::uint64_t expected = kFree;
        // seq_cst claim: publishes kPending before the epoch read below,
        // so a reclaimer scanning concurrently either sees the claim
        // (horizon 0, no frees) or fully precedes it (see header).
        if (domain_.slots_[index].pinned.compare_exchange_strong(
                expected, kPending, std::memory_order_seq_cst,
                std::memory_order_relaxed)) {
          slot_ = index;
          domain_.slots_[index].pinned.store(
              domain_.epoch_.load(std::memory_order_seq_cst),
              std::memory_order_seq_cst);
          return;
        }
      }
      // Every slot taken: fall back to the overflow pin, which blocks
      // ALL freeing until released (soft degradation, never unsafe).
      slot_ = kOverflowSlot;
      domain_.overflow_active_.fetch_add(1, std::memory_order_seq_cst);
      domain_.overflow_pins_.fetch_add(
          1, Backend::order(OrderRole::kRmwRelaxed));
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    ~Guard() {
      if (slot_ == kOverflowSlot) {
        domain_.overflow_active_.fetch_sub(1, std::memory_order_seq_cst);
      } else {
        domain_.slots_[slot_].pinned.store(kFree, std::memory_order_seq_cst);
      }
    }

   private:
    static constexpr std::size_t kOverflowSlot = ~std::size_t{0};
    EpochDomainT& domain_;
    std::size_t slot_ = kOverflowSlot;
  };

  /// The current global epoch (>= 1; monotone).
  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Retirement stamp for an object the caller has ALREADY unlinked
  /// from every shared location. The seq_cst fence orders the unlink
  /// (even a release-order pointer swing) before the epoch read in the
  /// single total order the safety argument runs in.
  [[nodiscard]] std::uint64_t stamp() const noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Advances the global epoch iff every active reader has pinned the
  /// current one (readers that merely keep finishing sections make
  /// this succeed eventually — no global quiescence needed). Returns
  /// whether the epoch moved.
  bool try_advance() noexcept {
    const std::uint64_t current = epoch_.load(std::memory_order_seq_cst);
    for (const Slot& slot : slots_) {
      const std::uint64_t pinned =
          slot.pinned.load(std::memory_order_seq_cst);
      if (pinned != kFree && pinned != current) return false;
    }
    std::uint64_t expected = current;
    return epoch_.compare_exchange_strong(expected, current + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed);
  }

  /// The oldest epoch any current reader may be pinned at (the global
  /// epoch when no reader is active); an object stamped `e` is
  /// freeable once `e + kGracePeriods <= reclaim_horizon()`. Returns 0
  /// (nothing freeable) while an overflow or mid-pin reader exists.
  /// Reads the epoch BEFORE scanning the slots — load order the safety
  /// argument relies on.
  [[nodiscard]] std::uint64_t reclaim_horizon() const noexcept {
    if (overflow_active_.load(std::memory_order_seq_cst) != 0) return 0;
    std::uint64_t horizon = epoch_.load(std::memory_order_seq_cst);
    for (const Slot& slot : slots_) {
      const std::uint64_t pinned =
          slot.pinned.load(std::memory_order_seq_cst);
      if (pinned == kFree) continue;
      if (pinned == kPending) return 0;
      horizon = pinned < horizon ? pinned : horizon;
    }
    return horizon;
  }

  /// Defers `delete object` until the horizon passes its stamp. The
  /// object must already be unreachable from every shared location.
  /// Stamps and links the object itself: no allocation.
  void retire(const Retired* object) {
    object->retired_epoch_ = stamp();
    // Count BEFORE publishing: a reclaim that captured the object
    // between the push and a later increment would subtract what the
    // counter never saw and wrap it to ~2^64. Counting first only ever
    // over-counts transiently.
    retired_count_.fetch_add(1, Backend::order(OrderRole::kRmwRelaxed));
    // Release-publish the stamped, linked object; the reclaimer's
    // seq_cst capture exchange synchronizes with it before walking the
    // chain.
    const Retired* head =
        retired_.load(Backend::order(OrderRole::kLoadRelaxed));
    do {
      object->retired_next_ = head;
    } while (!retired_.compare_exchange_weak(
        head, object, Backend::order(OrderRole::kStoreRelease),
        Backend::order(OrderRole::kLoadRelaxed)));
  }

  /// One reclamation pass over the retired list: advance the
  /// epoch if possible, free everything the horizon has passed, push
  /// the rest back. Self-serializing; returns the number of objects
  /// freed (0 when another reclaimer holds the gate).
  std::size_t reclaim() {
    if (reclaim_busy_.exchange(true, std::memory_order_acquire)) return 0;
    // Up to kGracePeriods advances per pass: with no (or caught-up)
    // readers this walks the horizon past a just-stamped object in ONE
    // pass, so a quiescent caller reclaims immediately instead of
    // needing kGracePeriods probes. Each advance still individually
    // requires every active reader to have pinned the current epoch —
    // a lagging reader stops the walk at its pin, as always.
    for (unsigned i = 0; i < kGracePeriods && try_advance(); ++i) {
    }
    const Retired* batch =
        retired_.exchange(nullptr, std::memory_order_seq_cst);
    const std::uint64_t horizon = reclaim_horizon();
    const Retired* keep_head = nullptr;
    const Retired* keep_tail = nullptr;
    std::size_t freed = 0;
    while (batch != nullptr) {
      const Retired* next = batch->retired_next_;
      if (batch->retired_epoch_ + kGracePeriods <= horizon) {
        delete batch;
        ++freed;
      } else {
        batch->retired_next_ = keep_head;
        keep_head = batch;
        if (keep_tail == nullptr) keep_tail = batch;
      }
      batch = next;
    }
    if (keep_head != nullptr) {
      const Retired* head =
          retired_.load(Backend::order(OrderRole::kLoadRelaxed));
      do {
        keep_tail->retired_next_ = head;
      } while (!retired_.compare_exchange_weak(
          head, keep_head, Backend::order(OrderRole::kStoreRelease),
          Backend::order(OrderRole::kLoadRelaxed)));
    }
    if (freed > 0) {
      retired_count_.fetch_sub(freed, Backend::order(OrderRole::kRmwRelaxed));
      reclaimed_count_.fetch_add(freed,
                                 Backend::order(OrderRole::kRmwRelaxed));
    }
    reclaim_busy_.store(false, std::memory_order_release);
    return freed;
  }

  /// Frees the entire retired list regardless of the horizon. ONLY
  /// safe when the caller guarantees no reader is active and no
  /// retire() is concurrent (destructor / post-join teardown).
  void drain_unsafe() {
    const Retired* node = retired_.exchange(nullptr, std::memory_order_seq_cst);
    std::size_t freed = 0;
    while (node != nullptr) {
      const Retired* next = node->retired_next_;
      delete node;
      ++freed;
      node = next;
    }
    if (freed > 0) {
      retired_count_.fetch_sub(freed, Backend::order(OrderRole::kRmwRelaxed));
      reclaimed_count_.fetch_add(freed,
                                 Backend::order(OrderRole::kRmwRelaxed));
    }
  }

  [[nodiscard]] unsigned reader_slots() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// Retired-list length (diagnostic; racy under concurrency, exact
  /// at quiescence).
  [[nodiscard]] std::size_t retired_count() const noexcept {
    return retired_count_.load(Backend::order(OrderRole::kLoadRelaxed));
  }

  /// Objects freed so far (diagnostic).
  [[nodiscard]] std::uint64_t reclaimed_count() const noexcept {
    return reclaimed_count_.load(Backend::order(OrderRole::kLoadRelaxed));
  }

  /// Guards that found every slot taken (diagnostic: > 0 means the
  /// domain is undersized and the bound degraded to soft meanwhile).
  [[nodiscard]] std::uint64_t overflow_pins() const noexcept {
    return overflow_pins_.load(Backend::order(OrderRole::kLoadRelaxed));
  }

 private:
  /// Slot states besides a pinned epoch (epochs start at 1).
  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kPending = ~std::uint64_t{0};

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> pinned{kFree};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> overflow_active_{0};
  // The writers' side on a cache line of its own: every retire writes
  // the list head and count, and every Guard reads epoch_. Sharing one
  // line slows each reader's pin, which made the snapshot's hard cap
  // break several times more often under load.
  alignas(64) std::atomic<const Retired*> retired_{nullptr};
  std::atomic<bool> reclaim_busy_{false};
  std::atomic<std::size_t> retired_count_{0};
  std::atomic<std::uint64_t> reclaimed_count_{0};
  std::atomic<std::uint64_t> overflow_pins_{0};
};

using EpochDomain = EpochDomainT<DirectBackend>;

}  // namespace approx::base
