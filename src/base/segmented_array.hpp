// segmented_array.hpp — unbounded array of base objects.
//
// Algorithm 1 assumes an infinite sequence of switch bits
// switch_0, switch_1, ... that exist from the initial configuration.
// A real process cannot pre-allocate infinitely many bits, so we realize
// the sequence as a segmented array of fixed-size segments. Segment 0 is
// a member of the array itself; every later segment lives on the heap,
// behind a two-level directory (root → chunk → segment) whose three
// levels are each allocated on first touch and published with a single
// CAS. After publication every access is wait-free; each allocation
// race is resolved by its CAS (the loser frees its candidate), so growth
// is lock-free.
//
// Segment 0 is inline because that is where counters live: a k-mult
// switch index grows like k·log_k(count), so for k ≤ 64 every count
// below 2^64 stays within the first 1024 switches, and at(i) for
// i < kSegmentSize is an address computation — no atomic load, no
// allocation, no pointer chase off the owner's cache lines.
// The price is that segment 0 is paid at construction, elements
// included: 1 KiB per array for one-byte elements (TasBitT on the
// direct backends), 16 KiB for InstrumentedBackend bits, which also
// draw their ObjectIds at construction rather than on first touch.
//
// The heap directory is two-level so that *capacity costs nothing until
// touched*: a flat directory of kMaxSegments slots would itself be
// megabytes per array (the default capacity is 2^20 segments). The root
// holds pointers to lazily-allocated chunks of segment pointers, both
// about √kMaxSegments slots (≤ 8 KiB each); an array that never passes
// index kSegmentSize owns no heap at all.
//
// Step accounting charges only the primitives applied to the *elements*,
// never the directory bookkeeping: in the paper's model the infinite
// array pre-exists and indexing it is local computation. The array is
// therefore Backend-policy transparent (base/backend.hpp): instantiate it
// with TasBitT<B> / Register<T, B> elements and the element operations
// carry the policy — including their memory-order roles; the directory
// itself costs the same under every backend. Its publication is already
// the weakest sound ordering (acquire load, acq_rel CAS: a reader of a
// published pointer must see the pointee's null slots or value-
// initialized elements), so it needs no role mapping.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>

namespace approx::base {

/// Unbounded array of value-initialized, non-movable elements (base
/// objects such as TasBit or Register). Elements are never destroyed
/// before the array itself; references remain valid for the array's
/// lifetime.
///
/// @tparam T element type (default-constructible; need not be movable)
/// @tparam kSegmentSize elements per segment (power of two); the first
///   segment is stored inline
/// @tparam kMaxSegments capacity in segments, the inline one included;
///   the array can hold kSegmentSize * kMaxSegments elements, far beyond
///   any reachable index in practice (indices grow at most linearly in
///   the number of operations performed).
template <typename T, std::size_t kSegmentSize = 1024,
          std::size_t kMaxSegments = 1 << 20>
class SegmentedArray {
  static_assert((kSegmentSize & (kSegmentSize - 1)) == 0,
                "kSegmentSize must be a power of two");
  static_assert(kMaxSegments >= 2,
                "capacity is the inline segment plus at least one more");

 public:
  SegmentedArray() = default;

  ~SegmentedArray() {
    Root* root = root_.load(std::memory_order_relaxed);
    if (root == nullptr) return;
    for (auto& chunk_slot : root->slots) {
      Chunk* chunk = chunk_slot.load(std::memory_order_relaxed);
      if (chunk == nullptr) continue;
      for (auto& segment_slot : chunk->slots) {
        delete segment_slot.load(std::memory_order_relaxed);
      }
      delete chunk;
    }
    delete root;
  }

  SegmentedArray(const SegmentedArray&) = delete;
  SegmentedArray& operator=(const SegmentedArray&) = delete;

  /// Returns the element at `index`. Below kSegmentSize this is plain
  /// indexing into the inline segment; beyond it, the directory levels
  /// on the path are allocated on first touch. Wait-free once they
  /// exist; lock-free otherwise.
  T& at(std::size_t index) {
    if (index < kSegmentSize) return head_.elems[index];
    // Heap segment `seg` is segment seg + 1 of the array (0 is head_).
    const std::size_t seg = index / kSegmentSize - 1;
    assert(seg < kHeapSegments && "SegmentedArray directory exhausted");
    Chunk* chunk = publish_once(publish_once(root_)->slots[seg / kChunkSlots]);
    return publish_once(chunk->slots[seg % kChunkSlots])
        ->elems[index % kSegmentSize];
  }

  /// Read-only variant; same allocation semantics (reading an untouched
  /// element must observe its initial value, so the segment is created).
  const T& at(std::size_t index) const {
    return const_cast<SegmentedArray*>(this)->at(index);
  }

  /// Number of heap segments currently allocated (diagnostics). The
  /// inline segment 0 is not counted: touching only indices below
  /// kSegmentSize leaves this at 0.
  [[nodiscard]] std::size_t allocated_segments() const noexcept {
    const Root* root = root_.load(std::memory_order_acquire);
    if (root == nullptr) return 0;
    std::size_t count = 0;
    for (const auto& chunk_slot : root->slots) {
      const Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
      if (chunk == nullptr) continue;
      for (const auto& segment_slot : chunk->slots) {
        if (segment_slot.load(std::memory_order_relaxed) != nullptr) ++count;
      }
    }
    return count;
  }

  static constexpr std::size_t segment_size() noexcept { return kSegmentSize; }

 private:
  struct Segment {
    T elems[kSegmentSize];
  };

  /// One directory level: kSlots pointers, null until published.
  template <typename Child, std::size_t kSlots>
  struct Directory {
    std::atomic<Child*> slots[kSlots];
    Directory() {
      for (auto& slot : slots) slot.store(nullptr, std::memory_order_relaxed);
    }
  };

  /// The heap segments split roughly evenly between the two levels
  /// (√kHeapSegments each, capped so tiny test capacities stay
  /// single-chunk): the root and one chunk together cost kilobytes where
  /// a flat directory would cost megabytes.
  static constexpr std::size_t kHeapSegments = kMaxSegments - 1;
  static constexpr std::size_t chunk_slots() noexcept {
    std::size_t slots = 1;
    while (slots * slots < kHeapSegments) slots *= 2;
    return slots;
  }
  static constexpr std::size_t kChunkSlots = chunk_slots();
  static constexpr std::size_t kRootSlots =
      (kHeapSegments + kChunkSlots - 1) / kChunkSlots;

  using Chunk = Directory<Segment, kChunkSlots>;
  using Root = Directory<Chunk, kRootSlots>;

  /// The object `slot` points to, value-initializing and publishing a
  /// fresh one on first touch — the one CAS recipe of all three levels.
  /// The acquire load pairs with the winner's acq_rel CAS, so a reader
  /// of a published pointer sees the pointee fully constructed; a losing
  /// candidate is freed and the winner returned.
  template <typename Node>
  static Node* publish_once(std::atomic<Node*>& slot) {
    Node* node = slot.load(std::memory_order_acquire);
    if (node != nullptr) return node;
    auto fresh = std::make_unique<Node>();
    if (slot.compare_exchange_strong(node, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      node = fresh.release();
    }
    return node;
  }

  // Segment 0 first, so an owner that declares the array after its own
  // hot fields shares a cache line with the first elements.
  Segment head_{};
  std::atomic<Root*> root_{nullptr};
};

}  // namespace approx::base
