// topk.hpp — wait-free top-k leaderboard: N labeled max registers plus
// a collect.
//
// The "slowest endpoints" / "largest payloads" instrument: each label
// owns an exact unbounded max register (exact/unbounded_max_register
// .hpp — wait-free, O(log v) steps), and a collect scans the directory
// and ranks the per-label maxima. Values are exact at each register's
// own linearization point; a collect is a non-atomic scan with the
// usual interval semantics (each cell read at some point inside the
// collect — the same contract as every collect in this repo).
//
// The interesting operation is update(pid, label, value) when `label`
// is NOT yet in the directory: find-or-insert-then-write spans two
// cells (the directory slot and the value register), so a single CAS
// cannot carry it and a thread stalled between the cells would strand
// an invisible update. The slow path therefore runs through the
// announce-then-help queue (help_queue.hpp):
//
//   1. The updater announces an Op{label, value} in its per-pid cell.
//   2. help(op) walks the directory ONCE: at each slot it either
//      matches the label, or CASes a freshly built cell (value already
//      written into its register) into a null slot. Each op carries a
//      CAS-once `installed` consensus cell, so any number of helpers
//      agree on one outcome; a lost directory CAS just means another
//      op claimed that slot first — re-read and continue. Helpers walk
//      slots in the same order and slots are never cleared, so an op
//      claims at most one slot (no duplicate labels).
//   3. The updater helps every other announced op (bounded: ≤ n−1
//      bounded passes), then retracts. collect() ALSO helps pending
//      ops before scanning — the read-side helping discipline — so an
//      update whose announce precedes a collect's scan is reflected in
//      the result even if its thread never runs again.
//
// Every path is a bounded number of bounded passes: wait-free. When
// the directory is full and the label absent, update returns false
// and counts the overflow (dropped_updates()); capacity is a
// provisioning decision, not a liveness hazard. The fast-path scan
// usually proves that outcome on its own — every slot held another
// label, and slots are never cleared — so such an update is refused
// before it announces anything and pins no op (see HelpQueueT).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/backend.hpp"
#include "exact/unbounded_max_register.hpp"
#include "shard/registry.hpp"
#include "stats/help_queue.hpp"

namespace approx::stats {

/// One ranked row of a top-k collect.
struct TopEntry {
  std::string label;
  std::uint64_t value = 0;
};

/// Wait-free labeled max-register directory; see the header comment.
template <typename Backend = base::InstrumentedBackend>
class TopKT {
 public:
  using backend_type = Backend;

  /// @param num_processes pid space (one thread per pid).
  /// @param capacity directory slots = distinct labels admitted.
  TopKT(unsigned num_processes, std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity), queue_(num_processes) {
    slots_ = std::make_unique<std::atomic<Cell*>[]>(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  TopKT(const TopKT&) = delete;
  TopKT& operator=(const TopKT&) = delete;

  ~TopKT() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      delete slots_[i].load(std::memory_order_relaxed);
    }
  }

  /// Folds `value` into `label`'s maximum, inserting the label if new.
  /// Wait-free; at most one thread per pid. False iff the directory is
  /// full and `label` absent (the update is dropped and counted).
  bool update(unsigned pid, std::string_view label, std::uint64_t value) {
    bool full = false;
    if (Cell* cell = find(label, &full)) {  // fast path: label present
      cell->value.write(value);
      return true;
    }
    if (full) {  // every slot holds another label, for good
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Slow path: announce, help own op, help everyone else's, retract.
    Op* op = new Op{std::string(label), value};
    queue_.announce(pid, op);
    help(op);
    queue_.for_each_pending([this, op](Op* other) {
      if (other != op) help(other);
    });
    queue_.retract(pid);
    Cell* cell = op->installed.load(std::memory_order_acquire);
    if (cell == full_sentinel()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // The installing helper already wrote op->value; this re-write is
    // idempotent (max register) and covers the matched-existing case.
    cell->value.write(value);
    return true;
  }

  /// Ranks the directory into `out` (≤ k rows, descending by value,
  /// label-ascending tiebreak for deterministic output). Helps pending
  /// announced updates first (read-side helping), so any update
  /// announced before this scan is reflected.
  void collect(std::size_t k, std::vector<TopEntry>& out) {
    queue_.for_each_pending([this](Op* op) { help(op); });
    out.clear();
    for (std::size_t i = 0; i < capacity_; ++i) {
      Cell* cell = slots_[i].load(std::memory_order_acquire);
      if (cell == nullptr) break;  // slots fill in order; first null ends
      out.push_back(TopEntry{cell->label, cell->value.read()});
    }
    std::sort(out.begin(), out.end(),
              [](const TopEntry& a, const TopEntry& b) {
                return a.value != b.value ? a.value > b.value
                                          : a.label < b.label;
              });
    if (out.size() > k) out.resize(k);
  }

  /// Current maximum for `label` (0 if absent — indistinguishable from
  /// an all-zero label by design, as with any max register).
  [[nodiscard]] std::uint64_t read(std::string_view label) {
    Cell* cell = find(label);
    return cell == nullptr ? 0 : cell->value.read();
  }

  /// Labels currently in the directory.
  [[nodiscard]] std::size_t size() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (slots_[i].load(std::memory_order_acquire) == nullptr) break;
      ++count;
    }
    return count;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Updates dropped because the directory was full (exact).
  [[nodiscard]] std::uint64_t dropped_updates() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Announced ops pinned until destruction (diagnostic; call only
  /// while no update runs).
  [[nodiscard]] std::size_t pinned_ops() const { return queue_.pinned(); }

 private:
  /// One directory cell: immutable label + its exact max register.
  /// Published by a release CAS; never unpublished.
  struct Cell {
    explicit Cell(std::string label_arg) : label(std::move(label_arg)) {}
    const std::string label;
    exact::UnboundedMaxRegisterT<Backend> value;
  };

  /// Announced operation descriptor. `installed` is the CAS-once
  /// consensus cell every helper agrees through; retire_next is the
  /// HelpQueueT pin list.
  struct Op {
    Op(std::string label_arg, std::uint64_t value_arg)
        : label(std::move(label_arg)), value(value_arg) {}
    const std::string label;
    const std::uint64_t value;
    std::atomic<Cell*> installed{nullptr};
    Op* retire_next = nullptr;
  };

  /// Distinguished "directory full" outcome for Op::installed.
  Cell* full_sentinel() const noexcept {
    // Any non-null pointer that can never be a real Cell works; the
    // queue's own address is stable and never a Cell.
    return reinterpret_cast<Cell*>(const_cast<TopKT*>(this));
  }

  /// Bounded directory scan for `label` (slots fill front-to-back and
  /// are never cleared, so the first null ends the directory). Sets
  /// `*full` when it read every slot non-null without a match: the
  /// directory is full and the label absent, permanently.
  Cell* find(std::string_view label, bool* full = nullptr) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      Cell* cell = slots_[i].load(std::memory_order_acquire);
      if (cell == nullptr) return nullptr;
      if (cell->label == label) return cell;
    }
    if (full != nullptr) *full = true;
    return nullptr;
  }

  /// Drives `op` to its decided outcome; safe for any number of
  /// concurrent helpers (see the step-numbered argument in the header).
  void help(Op* op) {
    if (op->installed.load(std::memory_order_acquire) != nullptr) return;
    for (std::size_t i = 0; i < capacity_; ++i) {
      Cell* cell = slots_[i].load(std::memory_order_acquire);
      if (cell == nullptr) {
        // Claim attempt: the cell is fully built — value register
        // already holding op->value — BEFORE publication, so a reader
        // that sees the slot sees the update (multi-cell op made
        // single-publish).
        Cell* fresh = new Cell(op->label);
        fresh->value.write(op->value);
        if (slots_[i].compare_exchange_strong(cell, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
          cell = fresh;
        } else {
          delete fresh;  // never published; cell re-read by the CAS
        }
      }
      if (cell->label == op->label) {
        Cell* expected = nullptr;
        op->installed.compare_exchange_strong(expected, cell,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire);
        return;  // decided (by us or a faster helper)
      }
    }
    Cell* expected = nullptr;
    op->installed.compare_exchange_strong(expected, full_sentinel(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  std::size_t capacity_;
  std::unique_ptr<std::atomic<Cell*>[]> slots_;
  HelpQueueT<Op> queue_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// The model-faithful default instantiation (repo-wide convention).
using TopK = TopKT<base::InstrumentedBackend>;

extern template class TopKT<base::DirectBackend>;
extern template class TopKT<base::RelaxedDirectBackend>;
extern template class TopKT<base::InstrumentedBackend>;

// ---------------------------------------------------------------------
// Registry glue: publish a top-k directory as a labeled fleet entry.
// ---------------------------------------------------------------------

/// Hard ceiling on published top-k rows, shared with the wire layer's
/// decode hardening (svc::kMaxWireTopKRows — an untrusted frame may not
/// command a larger allocation). create_topk clamps the directory
/// capacity here so every snapshot is encodable.
inline constexpr std::size_t kMaxTopKRows = 64;

namespace detail {

/// Type-erased top-k directory the registry's flat table holds (plugs
/// into the shard::AnyTopK slot; the dependency stays stats → shard).
template <typename Backend>
class ErasedTopK final : public shard::AnyTopK {
 public:
  ErasedTopK(unsigned num_processes, std::size_t capacity)
      : topk_(num_processes, capacity) {}
  bool update(unsigned pid, std::string_view label,
              std::uint64_t value) override {
    return topk_.update(pid, label, value);
  }
  void snapshot_into(std::vector<std::string>& labels,
                     std::vector<std::uint64_t>& values) override {
    // Local scratch: plain snapshot passes may run concurrently under
    // the registry's shared lock, so no shared mutable state here.
    std::vector<TopEntry> rows;
    topk_.collect(topk_.capacity(), rows);
    labels.clear();
    values.clear();
    labels.reserve(rows.size());
    values.reserve(rows.size());
    for (TopEntry& row : rows) {
      labels.push_back(std::move(row.label));
      values.push_back(row.value);
    }
  }
  [[nodiscard]] std::size_t capacity() const override {
    return topk_.capacity();
  }
  [[nodiscard]] TopKT<Backend>& impl() noexcept { return topk_; }

 private:
  TopKT<Backend> topk_;
};

}  // namespace detail

/// Get-or-create the labeled top-k registry entry `name` (capacity
/// clamped to kMaxTopKRows; first spec wins, like create_histogram).
/// Returns nullptr iff the name is reserved (`__sys/`) or already taken
/// by another instrument kind.
template <typename Backend>
shard::AnyTopK* create_topk(shard::RegistryT<Backend>& registry,
                            const std::string& name, std::size_t capacity) {
  if (capacity > kMaxTopKRows) capacity = kMaxTopKRows;
  return registry.add_topk(name, [&registry, capacity] {
    return std::make_unique<detail::ErasedTopK<Backend>>(
        registry.num_processes(), capacity);
  });
}

}  // namespace approx::stats
