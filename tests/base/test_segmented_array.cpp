// Unit tests for the unbounded segmented array (the realization of the
// paper's infinite switch sequence).
#include "base/segmented_array.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "base/test_and_set.hpp"

// Every plain `new` in this binary is counted, so a test can assert that
// a code path allocates nothing at all (the directory root included).
// The replacements stay out of line: inlined, GCC would pair the malloc
// in one with the other's operator call and report a mismatch.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace approx::base {
namespace {

TEST(SegmentedArray, ElementsDefaultConstructed) {
  SegmentedArray<std::uint64_t, 16, 64> arr;
  EXPECT_EQ(arr.at(0), 0u);
  EXPECT_EQ(arr.at(15), 0u);
  EXPECT_EQ(arr.at(16), 0u);   // second segment
  EXPECT_EQ(arr.at(999), 0u);  // far segment
}

TEST(SegmentedArray, ReferencesAreStable) {
  SegmentedArray<std::uint64_t, 16, 64> arr;
  std::uint64_t* first = &arr.at(3);
  arr.at(500) = 42;  // trigger more allocation
  EXPECT_EQ(first, &arr.at(3));
  arr.at(3) = 7;
  EXPECT_EQ(*first, 7u);
}

TEST(SegmentedArray, IndependentSlots) {
  SegmentedArray<std::uint64_t, 8, 64> arr;
  for (std::uint64_t i = 0; i < 100; ++i) arr.at(i) = i * i;
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(arr.at(i), i * i) << i;
  }
}

TEST(SegmentedArray, AllocatesLazily) {
  SegmentedArray<std::uint64_t, 16, 1024> arr;
  EXPECT_EQ(arr.allocated_segments(), 0u);
  arr.at(0);   // inline segment 0: never a heap segment
  arr.at(15);
  EXPECT_EQ(arr.allocated_segments(), 0u);
  arr.at(16);  // first heap segment
  EXPECT_EQ(arr.allocated_segments(), 1u);
  arr.at(21);  // same segment
  EXPECT_EQ(arr.allocated_segments(), 1u);
  arr.at(16 * 9);  // segment 9 only; segments in between stay empty
  EXPECT_EQ(arr.allocated_segments(), 2u);
}

TEST(SegmentedArray, CrossChunkIndexingAndIsolation) {
  // 4096 segments of 8 split across directory chunks; indices landing in
  // far-apart chunks must resolve independently and keep their values.
  SegmentedArray<std::uint64_t, 8, 4096> arr;
  const std::size_t far = 8 * 4095 + 7;  // last element of last segment
  arr.at(0) = 11;
  arr.at(far) = 22;
  arr.at(8 * 2048) = 33;  // first element of segment 2048, a middle chunk
  EXPECT_EQ(arr.at(0), 11u);
  EXPECT_EQ(arr.at(far), 22u);
  EXPECT_EQ(arr.at(8 * 2048), 33u);
  EXPECT_EQ(arr.allocated_segments(), 2u);  // index 0 is inline
  EXPECT_EQ(arr.at(8), 0u);  // untouched neighbours stay zero
}

TEST(SegmentedArray, DefaultCapacityConstructionIsLight) {
  // A counter fleet embeds thousands of these; a first heap touch must
  // cost a root, a chunk and a segment (kilobytes), not a flat directory
  // of 2^20 slots. 512 default-capacity arrays construct, serve an
  // inline and a heap touch each and destruct without breaking a sweat.
  constexpr std::size_t kSeg = SegmentedArray<std::uint64_t>::segment_size();
  for (int round = 0; round < 512; ++round) {
    SegmentedArray<std::uint64_t> arr;
    EXPECT_EQ(arr.allocated_segments(), 0u);
    arr.at(static_cast<std::size_t>(round)) = 1;
    EXPECT_EQ(arr.allocated_segments(), 0u);
    arr.at(kSeg + static_cast<std::size_t>(round)) = 1;
    EXPECT_EQ(arr.allocated_segments(), 1u);
  }
}

TEST(SegmentedArray, UntouchedDefaultArrayAllocatesNothing) {
  // Segment 0 lives inside the array (1 KiB of one-byte bits next to the
  // root pointer), so constructing one, using all of segment 0 and
  // destroying it never reaches the heap. Assertions wait until the
  // counted regions end.
  using Switches = SegmentedArray<TasBitT<DirectBackend>>;
  constexpr std::size_t kSeg = Switches::segment_size();
  static_assert(sizeof(Switches) == kSeg + sizeof(void*));
  bool all_won = true;
  bool inline_storage = false;
  std::size_t heap_segments = 0;
  std::size_t allocations = g_allocations.load();
  {
    Switches arr;
    for (std::size_t i = 0; i < kSeg; ++i) {
      all_won = all_won && !arr.at(i).test_and_set() && arr.at(i).read();
    }
    const auto* base = reinterpret_cast<const char*>(&arr);
    const auto* last = reinterpret_cast<const char*>(&arr.at(kSeg - 1));
    inline_storage = base <= last && last < base + sizeof(arr);
    heap_segments = arr.allocated_segments();
  }
  const std::size_t segment0_allocations = g_allocations.load() - allocations;
  allocations = g_allocations.load();
  {
    Switches arr;
    arr.at(kSeg);  // first heap touch: root, chunk and segment
  }
  const std::size_t heap_touch_allocations = g_allocations.load() - allocations;
  EXPECT_TRUE(all_won);
  EXPECT_TRUE(inline_storage);
  EXPECT_EQ(heap_segments, 0u);
  EXPECT_EQ(segment0_allocations, 0u);
  EXPECT_EQ(heap_touch_allocations, 3u);
}

TEST(SegmentedArray, HoldsNonMovableBaseObjects) {
  SegmentedArray<TasBit, 32, 64> switches;
  EXPECT_FALSE(switches.at(40).read());
  EXPECT_FALSE(switches.at(40).test_and_set());
  EXPECT_TRUE(switches.at(40).read());
  EXPECT_FALSE(switches.at(41).read());  // neighbours untouched
}

// Concurrent first touch of the first heap segment: the root, its chunk
// and the segment are each published exactly once, and every thread must
// end up using them.
TEST(SegmentedArray, ConcurrentFirstTouchIsSafe) {
  constexpr int kThreads = 8;
  constexpr std::size_t kSeg = 64;
  for (int round = 0; round < 50; ++round) {
    SegmentedArray<std::atomic<std::uint64_t>, kSeg, 16> arr;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {}
        // Everyone races to allocate the directory path and bumps a
        // distinct slot of the first heap segment.
        arr.at(kSeg + static_cast<std::size_t>(t)).fetch_add(1);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();
    ASSERT_EQ(arr.allocated_segments(), 1u);
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(arr.at(kSeg + static_cast<std::size_t>(t)).load(), 1u);
    }
  }
}

TEST(SegmentedArray, ConcurrentDisjointSegments) {
  constexpr int kThreads = 6;
  SegmentedArray<std::uint64_t, 16, 1024> arr;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < 200; ++i) {
        arr.at(static_cast<std::size_t>(t * 1000 + i)) =
            static_cast<std::uint64_t>(t + 1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(arr.at(static_cast<std::size_t>(t * 1000 + i)),
                static_cast<std::uint64_t>(t + 1));
    }
  }
}

}  // namespace
}  // namespace approx::base
