// help_queue.hpp — per-process announcement queue for wait-free helping
// of multi-cell operations.
//
// Every wait-free structure in this repo so far needed only
// *independent per-slot writes* (a counter increment lands in one
// single-writer slot; a max-register write touches one register tree).
// A labeled update — "find the slot for label L, creating it if absent,
// then write the value" — is different: it spans two cells (the
// directory slot and the value register), so a thread can stall between
// them and strand the operation where no other thread can see it.
//
// The classical fix is the announce-then-help discipline the paper's
// own read-side helping uses, generalized by the wait-free-simulation
// literature (the HelpQueue of Kogan–Petrank-style simulators, cf. the
// telamon exemplar in SNIPPETS.md §2–3): before touching shared cells,
// an operation PUBLISHES itself in a per-process announcement cell;
// every thread passing through the slow path (and every reader) helps
// all announced operations to completion before relying on the
// structure's state. Helping is safe because the operations are made
// idempotent — each op carries a single consensus cell (CAS-once) that
// decides its outcome, so N helpers racing on one op agree on one
// result and the duplicates are no-ops.
//
// This header is the queue itself: a fixed array of n announcement
// cells (one per pid — single-writer by the repo-wide one-thread-per-
// pid contract) plus the retire list that pins every announced op in
// memory until the owning structure is destroyed. Reclamation is
// deliberately deferred that far: helpers may hold an op pointer after
// the owner retracts it, and the slow path runs once per *new* label
// (plus rare races; TopKT refuses a label its scan proves can never
// get a slot before announcing it), so the backlog is bounded by the
// number of distinct labels ever inserted — no hazard pointers needed
// for a telemetry directory. The full simulator machinery (per-op sequence
// numbers, bounded recycling) is not needed at this op rate.
//
// The announcement cells are raw std::atomic publication bookkeeping
// (like the mantissa-slot CAS in exact/unbounded_max_register.hpp);
// the *values* an op writes go through Backend-policied registers in
// the owning structure, so sim schedules still interleave the part
// that carries the accuracy argument.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>

namespace approx::stats {

/// Announcement queue over a fixed pid space. `Op` is the operation
/// descriptor type; the queue stores raw pointers and pins every
/// retired op until destruction (see header).
template <typename Op>
class HelpQueueT {
 public:
  explicit HelpQueueT(unsigned num_processes) : n_(num_processes) {
    assert(num_processes >= 1);
    cells_ = std::make_unique<Cell[]>(num_processes);
  }

  HelpQueueT(const HelpQueueT&) = delete;
  HelpQueueT& operator=(const HelpQueueT&) = delete;

  ~HelpQueueT() {
    for (unsigned pid = 0; pid < n_; ++pid) {
      Op* op = cells_[pid].retired;
      while (op != nullptr) {
        Op* next = op->retire_next;
        delete op;
        op = next;
      }
    }
  }

  /// Publishes `op` as pid's pending operation and pins it for the
  /// queue's lifetime. The release store makes the op's immutable
  /// fields visible to any helper that observes the announcement.
  /// Ownership of `op` passes to the queue. One thread per pid.
  void announce(unsigned pid, Op* op) {
    assert(pid < n_);
    op->retire_next = cells_[pid].retired;
    cells_[pid].retired = op;  // owner-only list; pins op until dtor
    cells_[pid].pending.store(op, std::memory_order_release);
  }

  /// Withdraws pid's announcement (the op itself stays pinned — a
  /// helper may still hold the pointer).
  void retract(unsigned pid) {
    assert(pid < n_);
    cells_[pid].pending.store(nullptr, std::memory_order_release);
  }

  /// Invokes `fn(Op*)` for every currently announced operation — the
  /// helping scan. One bounded pass; ops announced after their cell was
  /// visited are the NEXT scan's problem (their owner helps them too,
  /// so nothing is stranded).
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (unsigned pid = 0; pid < n_; ++pid) {
      Op* op = cells_[pid].pending.load(std::memory_order_acquire);
      if (op != nullptr) fn(op);
    }
  }

  [[nodiscard]] unsigned num_processes() const noexcept { return n_; }

  /// Ops announced so far, all still pinned (diagnostic; walks the
  /// owner-only retire lists, so call only while no pid announces).
  [[nodiscard]] std::size_t pinned() const {
    std::size_t count = 0;
    for (unsigned pid = 0; pid < n_; ++pid) {
      for (const Op* op = cells_[pid].retired; op != nullptr;
           op = op->retire_next) {
        ++count;
      }
    }
    return count;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<Op*> pending{nullptr};
    Op* retired = nullptr;  // owner-only: every op ever announced here
  };

  unsigned n_;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace approx::stats
