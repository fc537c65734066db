// Unit tests for the sharding layer (src/shard/sharded_counter.hpp):
// routing, compact vs full-width layout, error-bound composition and
// quiescent accuracy for every underlying counter family.
#include <gtest/gtest.h>

#include <cstdint>

#include "base/backend.hpp"
#include "core/approx.hpp"
#include "shard/sharded_counter.hpp"

namespace approx::shard {
namespace {

using base::InstrumentedBackend;

using ShardedKMult = ShardedCounterT<core::KMultCounterCorrectedT>;
using ShardedKAdd = ShardedCounterT<core::KAdditiveCounterT>;
using ShardedFetchAdd = ShardedCounterT<exact::FetchAddCounterT>;
using ShardedSnapshot = ShardedCounterT<exact::SnapshotCounterT>;
using ShardedCollect = ShardedCounterT<exact::CollectCounterT>;

TEST(ShardedCounter, ErrorModelAndBoundComposition) {
  // Multiplicative: the band survives summation — bound is k, any S.
  ShardedKMult mult(8, 3, 4);
  EXPECT_EQ(mult.error_model(), ErrorModel::kMultiplicative);
  EXPECT_EQ(mult.error_bound(), 3u);

  // Additive: ±k per shard accumulates to ±S·k.
  ShardedKAdd add(8, 16, 4);
  EXPECT_EQ(add.error_model(), ErrorModel::kAdditive);
  EXPECT_EQ(add.error_bound(), 64u);

  // Exact shards stay exact.
  ShardedFetchAdd exact(8, 0, 4);
  EXPECT_EQ(exact.error_model(), ErrorModel::kExact);
  EXPECT_EQ(exact.error_bound(), 0u);
}

TEST(ShardedCounter, ShardCountClampedToPidSpace) {
  ShardedFetchAdd counter(3, 0, 16);
  EXPECT_EQ(counter.num_shards(), 3u);
  ShardedFetchAdd one(3, 0, 0);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(ShardedCounter, LayoutSelection) {
  // read(pid) counters must be full-width; pid-less readers are compact
  // under BOTH policies — the remap table routes round-robin slot
  // increments onto the home cell, so rotation no longer forces full
  // width.
  ShardedKMult mult(8, 3, 4);
  EXPECT_FALSE(mult.compact());
  EXPECT_EQ(mult.shard(0).num_processes(), 8u);

  ShardedSnapshot pinned(8, 0, 4);
  EXPECT_TRUE(pinned.compact());
  EXPECT_EQ(pinned.shard(0).num_processes(), 2u);

  ShardedSnapshot rotating(8, 0, 4, ShardPolicy::kRoundRobin);
  EXPECT_TRUE(rotating.compact());
  EXPECT_EQ(rotating.shard(0).num_processes(), 2u);
}

TEST(ShardedCounter, RemapTableRoutesRoundRobinSlotsToHomeCell) {
  // Slot-owning counters under round-robin: every increment lands in the
  // pid's compact home cell (single-writer slots have no contention to
  // rotate away), so the sum stays exact and shard loads mirror the
  // pinned layout.
  ShardedCollect counter(8, 0, 4, ShardPolicy::kRoundRobin);
  ASSERT_TRUE(counter.compact());
  for (int round = 0; round < 10; ++round) {
    counter.increment(5);  // home shard 1, local slot 1
    counter.increment(1);  // home shard 1, local slot 0
    counter.increment(2);  // home shard 2, local slot 0
  }
  EXPECT_EQ(counter.shard(1).read(), 20u);
  EXPECT_EQ(counter.shard(2).read(), 10u);
  EXPECT_EQ(counter.shard(0).read(), 0u);
  EXPECT_EQ(counter.shard(3).read(), 0u);
  EXPECT_EQ(counter.read(0), 30u);
}

TEST(ShardedCounter, RoundRobinBatchingCounterFlushesHomeCellOnly) {
  // The k-additive counter batches locally; with the remap table its
  // batches live only in the home cell, so one flush per pid makes a
  // quiescent round-robin read exact.
  ShardedKAdd counter(8, 32, 4, ShardPolicy::kRoundRobin);
  ASSERT_TRUE(counter.compact());
  for (unsigned pid = 0; pid < 8; ++pid) {
    for (int i = 0; i < 3; ++i) counter.increment(pid);
  }
  for (unsigned pid = 0; pid < 8; ++pid) counter.flush(pid);
  EXPECT_EQ(counter.read(0), 24u);
}

TEST(ShardedCounter, CompactBucketsCoverUnevenPidSpaces) {
  // n = 7, S = 3: buckets {0,3,6}, {1,4}, {2,5} — sizes 3, 2, 2.
  ShardedCollect counter(7, 0, 3);
  ASSERT_TRUE(counter.compact());
  EXPECT_EQ(counter.bucket_size(0), 3u);
  EXPECT_EQ(counter.bucket_size(1), 2u);
  EXPECT_EQ(counter.bucket_size(2), 2u);
  for (unsigned pid = 0; pid < 7; ++pid) {
    EXPECT_EQ(counter.home_shard(pid), pid % 3);
    EXPECT_EQ(counter.local_pid(pid), pid / 3);
    EXPECT_LT(counter.local_pid(pid),
              counter.bucket_size(counter.home_shard(pid)));
  }
}

TEST(ShardedCounter, HashPinnedRoutesToHomeShard) {
  ShardedFetchAdd counter(8, 0, 4);
  counter.increment(5);  // home shard 5 % 4 = 1
  counter.increment(5);
  counter.increment(2);  // home shard 2
  EXPECT_EQ(counter.shard(1).read(), 2u);
  EXPECT_EQ(counter.shard(2).read(), 1u);
  EXPECT_EQ(counter.shard(0).read(), 0u);
  EXPECT_EQ(counter.shard(3).read(), 0u);
  EXPECT_EQ(counter.read(0), 3u);
}

TEST(ShardedCounter, RoundRobinSpreadsOnePidEvenly) {
  ShardedFetchAdd counter(8, 0, 4, ShardPolicy::kRoundRobin);
  for (int i = 0; i < 100; ++i) counter.increment(0);
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(counter.shard(s).read(), 25u) << "shard " << s;
  }
  EXPECT_EQ(counter.read(0), 100u);
}

TEST(ShardedCounter, ExactShardingIsExactSequentially) {
  for (const unsigned shards : {1u, 2u, 3u, 8u}) {
    ShardedSnapshot counter(8, 0, shards);
    std::uint64_t v = 0;
    for (unsigned round = 0; round < 50; ++round) {
      for (unsigned pid = 0; pid < 8; ++pid) {
        counter.increment(pid);
        ++v;
      }
      ASSERT_EQ(counter.read(round % 8), v) << "S=" << shards;
    }
  }
}

TEST(ShardedCounter, MultiplicativeShardingStaysInComposedBand) {
  for (const unsigned shards : {1u, 2u, 4u}) {
    ShardedKMult counter(4, 2, shards);
    ASSERT_TRUE(counter.accuracy_guaranteed());
    std::uint64_t v = 0;
    for (std::uint64_t i = 1; i <= 4000; ++i) {
      counter.increment(static_cast<unsigned>(i % 4));
      ++v;
      if (i % 13 == 0) {
        const std::uint64_t x = counter.read(0);
        ASSERT_TRUE(core::within_mult_band(x, v, counter.error_bound()))
            << "S=" << shards << " v=" << v << " x=" << x;
      }
    }
  }
}

TEST(ShardedCounter, AdditiveShardingStaysInComposedBandAndFlushes) {
  for (const auto policy :
       {ShardPolicy::kHashPinned, ShardPolicy::kRoundRobin}) {
    ShardedKAdd counter(4, 16, 4, policy);
    std::uint64_t v = 0;
    for (std::uint64_t i = 1; i <= 2000; ++i) {
      counter.increment(static_cast<unsigned>(i % 4));
      ++v;
      if (i % 17 == 0) {
        const std::uint64_t x = counter.read(0);
        ASSERT_TRUE(core::within_add_band(x, v, counter.error_bound()))
            << "v=" << v << " x=" << x;
        ASSERT_LE(x, v);  // the additive construction never overcounts
      }
    }
    for (unsigned pid = 0; pid < 4; ++pid) counter.flush(pid);
    EXPECT_EQ(counter.read(0), v);  // quiescent flushed read is exact
  }
}

TEST(ShardedCounter, PassesItsShardsPublishReportUp) {
  // k-mult: pid 1's increments all land on its home shard, so the true
  // returns count that shard's won switches.
  ShardedKMult mult(4, 2, 2);
  std::uint64_t wins = 0;
  for (int i = 0; i < 2000; ++i) wins += mult.increment(1) ? 1 : 0;
  EXPECT_EQ(wins,
            mult.shard(mult.home_shard(1)).first_unset_switch_unrecorded());
  EXPECT_FALSE(mult.flush(1));  // nothing batches in a k-mult shard

  // k-additive: one slot write per flush threshold, then the flush.
  ShardedKAdd add(4, 16, 2);
  const std::uint64_t threshold =
      add.shard(add.home_shard(1)).flush_threshold();
  std::uint64_t writes = 0;
  for (std::uint64_t i = 0; i < 10 * threshold + 1; ++i) {
    writes += add.increment(1) ? 1 : 0;
  }
  EXPECT_EQ(writes, 10u);
  EXPECT_TRUE(add.flush(1));
  EXPECT_FALSE(add.flush(1));

  // Exact shards publish on every increment.
  ShardedFetchAdd exact(4, 0, 2);
  ShardedCollect collect(4, 0, 2);
  for (unsigned pid = 0; pid < 4; ++pid) {
    EXPECT_TRUE(exact.increment(pid));
    EXPECT_TRUE(collect.increment(pid));
  }
}

TEST(ShardedCounter, AccuracyPreconditionRelaxesWithPinnedSharding) {
  // 16 processes: a single instance needs k ≥ ⌈√16⌉ = 4, but 4 pinned
  // shards serve buckets of 4, needing only k ≥ 2. Round-robin keeps
  // the full-width requirement.
  ShardedKMult single(16, 2, 1);
  EXPECT_FALSE(single.accuracy_guaranteed());
  ShardedKMult pinned(16, 2, 4);
  EXPECT_TRUE(pinned.accuracy_guaranteed());
  ShardedKMult rotating(16, 2, 4, ShardPolicy::kRoundRobin);
  EXPECT_FALSE(rotating.accuracy_guaranteed());
  ShardedKMult rotating_big_k(16, 4, 4, ShardPolicy::kRoundRobin);
  EXPECT_TRUE(rotating_big_k.accuracy_guaranteed());
}

TEST(ShardedCounter, DirectBackendCompiles) {
  ShardedCounterT<core::KMultCounterCorrectedT, base::DirectBackend>
      counter(4, 2, 2);
  for (int i = 0; i < 100; ++i) counter.increment(0);
  EXPECT_TRUE(core::within_mult_band(counter.read(1), 100, 2));
}

}  // namespace
}  // namespace approx::shard
