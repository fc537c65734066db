// Tests for the change-driven collect (shard/registry.hpp, "Marks"): a
// relaxed row marks itself when an operation may have changed what its
// read returns, and RegistryT::collect_tick reads only the marked rows.
// sim::StepScheduler interleaves incrementers with a collector at
// primitive granularity; the marks themselves are raw atomics, never
// steps, so a publish and its mark are one move of the schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "base/step_recorder.hpp"
#include "core/kmult_counter.hpp"
#include "shard/registry.hpp"
#include "sim/stepper.hpp"

namespace approx::shard {
namespace {

using KMultRow =
    detail::ErasedSharded<core::KMultCounterCorrectedT, base::InstrumentedBackend>;

/// The one k-mult shard behind a row created with shards = 1.
core::KMultCounterCorrected& shard_of(AnyCounter& row) {
  return dynamic_cast<KMultRow&>(row).impl().shard(0);
}

/// The least a read that does not return through helping can return once
/// switches [0, first_unset) are set: with k = 2 every switch is one of
/// the read's scan positions, so it sees them all.
std::uint64_t floor_of(const core::KMultCounterCorrected& counter) {
  const std::uint64_t first_unset = counter.first_unset_switch_unrecorded();
  return first_unset == 0 ? 0 : counter.value_at_position(first_unset - 1);
}

TEST(CollectMarks, EveryPublishBeforeAnExchangeIsReadByThatPass) {
  // Two incrementers publish into four k-mult rows (each row has one
  // writer) while a collector runs passes. After each increment returns
  // — its mark set — the writer records the row's set switches; the
  // collector copies those records right before each pass, with no step
  // between the copy and the pass's mark exchange. Every recorded
  // publish therefore marked its row before the exchange, so the pass
  // must reflect it: either it reads the row, or it keeps a read that
  // already saw every recorded switch. The wide pid space keeps every
  // read's scan below the n positions the helping baseline needs, so no
  // read returns early.
  constexpr unsigned kPids = 16;
  constexpr unsigned kCollector = 2;
  constexpr unsigned kReference = 3;
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kPasses = 40;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Registry registry(kPids);
    std::vector<AnyCounter*> rows;
    for (std::size_t r = 0; r < kRows; ++r) {
      rows.push_back(&registry.create("kmult/" + std::to_string(r),
                                      {ErrorModel::kMultiplicative, 2, 1}));
    }
    std::vector<std::uint64_t> published(kRows, 0);  // floors, by writers
    std::vector<std::vector<std::uint64_t>> floors(kPasses);
    std::vector<TickRecord> ticks(kPasses);
    std::vector<std::function<void()>> programs;
    for (unsigned pid = 0; pid < 2; ++pid) {
      programs.emplace_back([&, pid] {
        for (unsigned i = 0; i < 300; ++i) {
          const std::size_t r = 2 * pid + i % 2;  // rows 0–1 or 2–3
          rows[r]->increment(pid);
          published[r] = floor_of(shard_of(*rows[r]));
        }
      });
    }
    programs.emplace_back([&] {
      for (std::size_t p = 0; p < kPasses; ++p) {
        floors[p] = published;
        registry.collect_tick(kCollector, p + 1, ticks[p]);
      }
    });
    sim::StepScheduler::run(std::move(programs), seed);
    for (AnyCounter* row : rows) {
      ASSERT_EQ(shard_of(*row).reads_via_helping(kCollector), 0u);
    }
    for (std::size_t p = 0; p < kPasses; ++p) {
      for (std::size_t r = 0; r < kRows; ++r) {
        EXPECT_GE(ticks[p].values[r], floors[p][r])
            << "seed " << seed << " pass " << p + 1 << " row " << r;
      }
    }

    // Quiescent: one more pass equals a full read, and the pass after
    // it, with nothing published, reads no row at all.
    TickRecord settled;
    registry.collect_tick(kCollector, kPasses + 1, settled);
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(settled.values[r], rows[r]->read(kReference))
          << "seed " << seed << " row " << r;
    }
    TickRecord quiet;
    EXPECT_EQ(base::steps_of([&] {
                registry.collect_tick(kCollector, kPasses + 2, quiet);
              }),
              0u);
    EXPECT_EQ(quiet.values, settled.values);
    EXPECT_EQ(quiet.changed_seq, settled.changed_seq);
  }
}

TEST(CollectMarks, AReadThatReturnsThroughHelpingLeavesItsRowToTheNextPass) {
  // The collector's first read of a row with a long run of set switches
  // scans them one by one while the incrementer keeps announcing; the
  // read can return early through the helping witness (paper lines
  // 50–55), below the switches it has yet to scan. The next pass must
  // read the row again. The witness's announce marks the row once its
  // increment returns; with `witness_marks` off the racing announces go
  // straight to the shard, as if each stalled between its win and its
  // mark, so only the helped read's own mark can send the next pass to
  // the row.
  constexpr unsigned kIncrementer = 0;
  constexpr unsigned kCollector = 1;
  constexpr unsigned kReference = 2;
  for (const bool witness_marks : {true, false}) {
    int helped = 0;
    int moved = 0;  // helped reads that returned below the final count
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Registry registry(3);
      AnyCounter& row =
          registry.create("kmult", {ErrorModel::kMultiplicative, 2, 1});
      core::KMultCounterCorrected& counter = shard_of(row);
      for (int i = 0; i < 4000; ++i) row.increment(kIncrementer);
      TickRecord first;
      std::vector<std::function<void()>> programs;
      programs.emplace_back([&] {
        for (int i = 0; i < 60000; ++i) {
          if (witness_marks) {
            row.increment(kIncrementer);
          } else {
            counter.increment(kIncrementer);
          }
        }
      });
      programs.emplace_back(
          [&] { registry.collect_tick(kCollector, 1, first); });
      sim::StepScheduler::run(std::move(programs), seed);
      if (counter.reads_via_helping(kCollector) == 0) continue;
      ++helped;
      TickRecord second;
      registry.collect_tick(kCollector, 2, second);
      const std::uint64_t full = row.read(kReference);
      if (first.values[0] < full) ++moved;
      EXPECT_EQ(second.values[0], full)
          << "seed " << seed << " witness_marks " << witness_marks;
      EXPECT_EQ(second.values[0], floor_of(counter)) << "seed " << seed;
      EXPECT_EQ(counter.reads_via_helping(kCollector), 1u) << "seed " << seed;
    }
    EXPECT_GE(moved, 1) << "no schedule drove the collector's read through "
                           "helping below the final count — the scenario "
                           "needs retuning (witness_marks "
                        << witness_marks << ", " << helped << " helped)";
  }
}

}  // namespace
}  // namespace approx::shard
