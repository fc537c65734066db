// Tests for the telemetry registry (src/shard/registry.hpp) and the
// batching aggregator (src/shard/aggregator.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/backend.hpp"
#include "core/approx.hpp"
#include "shard/aggregator.hpp"
#include "shard/registry.hpp"

namespace approx::shard {
namespace {

/// The flat rows for_each_changed_since(since, version) reports, in walk
/// order (empty when the walk refuses).
std::vector<std::uint64_t> walked_rows(const Registry& registry,
                                       std::uint64_t since,
                                       std::uint64_t version) {
  std::vector<std::uint64_t> rows;
  (void)registry.for_each_changed_since(
      since, version,
      [&](std::size_t index, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) { rows.push_back(index); });
  return rows;
}

/// The flat rows `tick` stamps after `since`, ascending.
std::vector<std::uint64_t> stamped_rows(const TickRecord& tick,
                                        std::uint64_t since) {
  std::vector<std::uint64_t> rows;
  tick.for_each_changed(nullptr, since, [&](std::size_t, std::size_t row) {
    rows.push_back(row);
  });
  return rows;
}

/// One sequenced sweep as pass `seq` (pid 0), checked against the walk:
/// the rows the sweep stamps with its own pass are exactly the rows the
/// changed-since walk reports for that pass.
TickRecord sweep(const Registry& registry, std::uint64_t seq) {
  TickRecord tick;
  registry.collect_tick(0, seq, tick);
  EXPECT_EQ(tick.pass_seq, seq);
  EXPECT_EQ(stamped_rows(tick, seq - 1),
            walked_rows(registry, seq - 1, tick.registry_version))
      << "pass " << seq;
  return tick;
}

TEST(Registry, CreateLookupAndMissing) {
  Registry registry(4);
  AnyCounter& requests =
      registry.create("requests", {ErrorModel::kMultiplicative, 2, 2});
  EXPECT_EQ(registry.lookup("requests"), &requests);
  EXPECT_EQ(registry.lookup("nope"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, CreateIsIdempotentFirstSpecWins) {
  Registry registry(4);
  AnyCounter& first =
      registry.create("hits", {ErrorModel::kMultiplicative, 2, 2});
  first.increment(0);
  AnyCounter& second =
      registry.create("hits", {ErrorModel::kAdditive, 64, 4});
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.error_model(), ErrorModel::kMultiplicative);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, SamplesCarryModelAndBound) {
  Registry registry(4);
  registry.create("m", {ErrorModel::kMultiplicative, 3, 2});
  registry.create("a", {ErrorModel::kAdditive, 8, 4});
  registry.create("x", {ErrorModel::kExact, 0, 4});
  const auto samples = registry.snapshot_all(0);
  ASSERT_EQ(samples.size(), 3u);  // name-sorted: a, m, x
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[0].model, ErrorModel::kAdditive);
  EXPECT_EQ(samples[0].error_bound, 32u);
  EXPECT_EQ(samples[1].name, "m");
  EXPECT_EQ(samples[1].model, ErrorModel::kMultiplicative);
  EXPECT_EQ(samples[1].error_bound, 3u);
  EXPECT_EQ(samples[2].name, "x");
  EXPECT_EQ(samples[2].model, ErrorModel::kExact);
  EXPECT_EQ(samples[2].error_bound, 0u);
  EXPECT_STREQ(error_model_name(samples[0].model), "add");
  EXPECT_STREQ(error_model_name(samples[1].model), "mult");
  EXPECT_STREQ(error_model_name(samples[2].model), "exact");
}

TEST(Registry, SnapshotAllValuesStayInReportedBand) {
  Registry registry(2);
  AnyCounter& mult =
      registry.create("mult", {ErrorModel::kMultiplicative, 2, 2});
  AnyCounter& exact = registry.create("exact", {ErrorModel::kExact, 0, 2});
  for (int i = 0; i < 500; ++i) {
    mult.increment(0);
    exact.increment(0);
  }
  for (const Sample& sample : registry.snapshot_all(1)) {
    if (sample.model == ErrorModel::kMultiplicative) {
      EXPECT_TRUE(core::within_mult_band(sample.value, 500,
                                         sample.error_bound))
          << sample.name << "=" << sample.value;
    } else {
      EXPECT_EQ(sample.value, 500u) << sample.name;
    }
  }
}

TEST(Registry, ConcurrentGetOrCreateYieldsOneCounterPerName) {
  // Racing workers lazily materializing the same names must converge on
  // one instance each (DirectBackend: real threads, no sim scheduler).
  RegistryT<base::DirectBackend> registry(8);
  constexpr unsigned kWorkers = 8;
  constexpr int kNames = 4;
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (unsigned pid = 0; pid < kWorkers; ++pid) {
    workers.emplace_back([&, pid] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        const std::string name = "ctr" + std::to_string(i % kNames);
        AnyCounter& counter = registry.create(
            name, {ErrorModel::kExact, 0, 4, ShardPolicy::kHashPinned});
        counter.increment(pid);
      }
    });
  }
  while (ready.load() < kWorkers) std::this_thread::yield();
  go.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kNames));
  std::uint64_t total = 0;
  for (const Sample& sample : registry.snapshot_all(0)) {
    total += sample.value;
  }
  EXPECT_EQ(total, std::uint64_t{kWorkers} * 200);
}

TEST(Registry, SnapshotAllIntoReusesStorageAndTracksVersion) {
  Registry registry(2);
  registry.create("b", {ErrorModel::kExact, 0, 2});
  registry.create("a", {ErrorModel::kExact, 0, 2});

  std::vector<Sample> frame;
  std::uint64_t version = registry.snapshot_all_into(0, frame, 0);
  ASSERT_EQ(frame.size(), 2u);
  EXPECT_EQ(frame[0].name, "a");  // flat table stays name-sorted
  EXPECT_EQ(frame[1].name, "b");
  EXPECT_EQ(version, registry.version());

  // Steady state: same version → values refreshed in place, constants
  // (and the samples' string storage) untouched.
  registry.lookup("a")->increment(0);
  const char* const name_storage = frame[0].name.data();
  const std::uint64_t same = registry.snapshot_all_into(0, frame, version);
  EXPECT_EQ(same, version);
  EXPECT_EQ(frame[0].name.data(), name_storage);
  EXPECT_EQ(frame[0].value, 1u);

  // A create bumps the version and the next pass re-fills the constants,
  // keeping the sorted order with the newcomer in place.
  registry.create("aa", {ErrorModel::kAdditive, 8, 2});
  const std::uint64_t bumped = registry.snapshot_all_into(0, frame, same);
  EXPECT_GT(bumped, same);
  ASSERT_EQ(frame.size(), 3u);
  EXPECT_EQ(frame[0].name, "a");
  EXPECT_EQ(frame[1].name, "aa");
  EXPECT_EQ(frame[1].model, ErrorModel::kAdditive);
  EXPECT_EQ(frame[1].error_bound, 16u);
  EXPECT_EQ(frame[2].name, "b");

  // The allocating form agrees with the in-place form.
  const auto allocated = registry.snapshot_all(0);
  ASSERT_EQ(allocated.size(), frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(allocated[i].name, frame[i].name);
    EXPECT_EQ(allocated[i].value, frame[i].value);
  }
}

TEST(Registry, VersionsAreUniquePerRegistryInstance) {
  // Reusing a frame against a *different* registry must take the full
  // refresh path even when both registries hold equally many counters
  // after equally many creates — versions carry a per-instance nonce.
  Registry first(2);
  first.create("a", {ErrorModel::kExact, 0, 2});
  Registry second(2);
  second.create("z", {ErrorModel::kAdditive, 8, 2});
  ASSERT_NE(first.version(), second.version());

  std::vector<Sample> frame;
  const std::uint64_t from_first = first.snapshot_all_into(0, frame, 0);
  EXPECT_EQ(frame[0].name, "a");
  (void)second.snapshot_all_into(0, frame, from_first);
  EXPECT_EQ(frame[0].name, "z");  // refreshed, not stale "a"
  EXPECT_EQ(frame[0].model, ErrorModel::kAdditive);
}

TEST(Registry, ForEachChangedSinceYieldsEmptyDeltaOnUnchangedFleet) {
  // The delta channel's pinning contract (src/svc builds on this): a
  // sequenced pass over a fleet nothing incremented marks nothing
  // changed, so the walk since the previous pass visits zero entries —
  // the aggregator/service no longer re-encodes every entry every tick.
  Registry registry(2);
  AnyCounter& a = registry.create("a", {ErrorModel::kExact, 0, 1});
  registry.create("b", {ErrorModel::kExact, 0, 1});
  a.increment(0);

  TickRecord tick = sweep(registry, 1);
  std::uint64_t version = tick.registry_version;
  EXPECT_EQ(version, registry.version());
  // Pass 1 baselines: every entry is new, so everything changed at 1.
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(tick.values, (std::vector<std::uint64_t>{1, 0}));
  std::size_t visited = 0;
  auto upto = registry.for_each_changed_since(
      0, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) { ++visited; });
  EXPECT_EQ(visited, 2u);
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(*upto, 1u);  // the walk is complete up to pass 1

  // Pass 2 with an untouched fleet: the delta since pass 1 is EMPTY.
  tick = sweep(registry, 2);
  version = tick.registry_version;
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{1, 1}));
  visited = 0;
  upto = registry.for_each_changed_since(
      1, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) { ++visited; });
  EXPECT_EQ(visited, 0u);
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(*upto, 2u);

  // One increment: pass 3's delta names exactly that entry, with the
  // collected value and the changing pass's sequence.
  a.increment(0);
  tick = sweep(registry, 3);
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{3, 1}));
  upto = registry.for_each_changed_since(
      2, version,
      [&](std::size_t index, const std::string& name, std::uint64_t value,
          std::uint64_t changed_seq, const std::vector<std::uint64_t>* counts,
          const std::vector<std::string>* labels) {
        ++visited;
        EXPECT_EQ(index, 0u);  // "a" sorts first
        EXPECT_EQ(name, "a");
        EXPECT_EQ(value, 2u);
        EXPECT_EQ(changed_seq, 3u);
        EXPECT_EQ(counts, nullptr);  // scalar entries carry no buckets
        EXPECT_EQ(labels, nullptr);
      });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(upto.value_or(0), 3u);
  // The since-0 walk still reports both entries (b last changed at 1).
  visited = 0;
  (void)registry.for_each_changed_since(
      0, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) { ++visited; });
  EXPECT_EQ(visited, 2u);

  // A stale expected_version (the table grew: indices shifted) refuses
  // the walk instead of reporting now-misaligned indices.
  registry.create("c", {ErrorModel::kExact, 0, 1});
  visited = 0;
  upto = registry.for_each_changed_since(
      0, version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) { ++visited; });
  EXPECT_FALSE(upto.has_value());
  EXPECT_EQ(visited, 0u);

  // The pass right after the create stamps the new row, under the new
  // version, with a name table rebuilt to hold it.
  const std::shared_ptr<const std::vector<Sample>> old_names = tick.names;
  tick = sweep(registry, 4);
  EXPECT_EQ(tick.registry_version, registry.version());
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{3, 1, 4}));  // "c"
  ASSERT_EQ(tick.names->size(), 3u);
  EXPECT_EQ((*tick.names)[2].name, "c");
  EXPECT_EQ(old_names->size(), 2u);  // the old record's table is intact
  // Quiet again: the next pass shares the name table and changes nothing.
  const TickRecord quiet = sweep(registry, 5);
  EXPECT_EQ(quiet.names, tick.names);
  EXPECT_EQ(quiet.changed_seq, tick.changed_seq);
}

TEST(Registry, TickRecordNamesChangedRowsAtSubsetPositions) {
  // The service layer's per-group delta rows, read from one pass's
  // record: restricted to a selection of flat-table rows, the rows
  // stamped after a basis come at their positions WITHIN the selection
  // (the index space of a filtered wire name table).
  Registry registry(2);
  AnyCounter& a = registry.create("a", {ErrorModel::kExact, 0, 1});
  registry.create("b", {ErrorModel::kExact, 0, 1});
  AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  AnyCounter& d = registry.create("d", {ErrorModel::kExact, 0, 1});

  (void)sweep(registry, 1);
  a.increment(0);
  c.increment(0);
  const TickRecord tick = sweep(registry, 2);
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{2, 1, 2, 1}));

  // Selection {a, c, d} = flat rows {0, 2, 3}; since pass 1 only a and
  // c moved, so subset positions 0 ("a") and 1 ("c") are visited — "d"
  // (position 2) is not, and "b" is invisible to this subscription.
  using Visit = std::pair<std::size_t, std::size_t>;  // (position, row)
  const std::vector<std::uint64_t> selection = {0, 2, 3};
  std::vector<Visit> visits;
  const auto record = [&](std::size_t position, std::size_t row) {
    visits.emplace_back(position, row);
  };
  tick.for_each_changed(&selection, 1, record);
  EXPECT_EQ(visits, (std::vector<Visit>{{0, 0}, {1, 2}}));

  // Without a selection the same rows come at their flat positions.
  visits.clear();
  tick.for_each_changed(nullptr, 1, record);
  EXPECT_EQ(visits, (std::vector<Visit>{{0, 0}, {2, 2}}));

  // Since pass 0 the whole selection moved; since pass 2 nothing did.
  visits.clear();
  tick.for_each_changed(&selection, 0, record);
  EXPECT_EQ(visits, (std::vector<Visit>{{0, 0}, {1, 2}, {2, 3}}));
  visits.clear();
  tick.for_each_changed(&selection, 2, record);
  EXPECT_TRUE(visits.empty());

  // The record is the pass's, not the registry's: a later pass that
  // stamps "d" leaves it as it was.
  d.increment(0);
  (void)sweep(registry, 3);
  tick.for_each_changed(&selection, 2, record);
  EXPECT_TRUE(visits.empty());
}

TEST(Registry, RestartedSequencerStartsAFreshChangeStream) {
  // A restarted server's new aggregator numbers its passes from 1
  // again. Its first pass drops the old stream's stamps, so a row that
  // does not move reads as unchanged in the new stream, not as changed
  // in every delta until the new numbering caught up.
  Registry registry(2);
  AnyCounter& a = registry.create("a", {ErrorModel::kExact, 0, 1});
  registry.create("b", {ErrorModel::kExact, 0, 1});
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    a.increment(0);
    (void)sweep(registry, seq);
  }
  TickRecord tick = sweep(registry, 1);  // the new stream: nothing moved
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{0, 0}));
  a.increment(0);
  tick = sweep(registry, 2);
  EXPECT_EQ(tick.changed_seq, (std::vector<std::uint64_t>{2, 0}));
}

// Minimal in-test instruments for the vector-entry registry contracts
// (the real implementations live in src/stats; the registry only sees
// the erased interfaces, so fakes keep the layering test-local).
class FakeHistogram final : public AnyHistogram {
 public:
  void record(unsigned, std::uint64_t value) override {
    counts_[value < 10 ? 0 : 1] += 1;
  }
  void snapshot_into(unsigned, std::vector<std::uint64_t>& counts) override {
    counts.assign(counts_.begin(), counts_.end());
  }
  void flush(unsigned) override {}
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_bounds()
      const override {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t per_bucket_bound() const override { return 0; }

 private:
  std::vector<std::uint64_t> bounds_ = {10};  // two buckets: ≤10, rest
  std::array<std::uint64_t, 2> counts_ = {0, 0};
};

class FakeTopK final : public AnyTopK {
 public:
  bool update(unsigned, std::string_view label, std::uint64_t value) override {
    auto [it, inserted] = rows_.try_emplace(std::string(label), value);
    if (!inserted && it->second < value) it->second = value;
    return true;
  }
  void snapshot_into(std::vector<std::string>& labels,
                     std::vector<std::uint64_t>& values) override {
    labels.clear();
    values.clear();
    std::vector<std::pair<std::uint64_t, std::string>> ranked;
    for (const auto& [label, value] : rows_) ranked.emplace_back(value, label);
    std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });
    for (const auto& [value, label] : ranked) {
      labels.push_back(label);
      values.push_back(value);
    }
  }
  [[nodiscard]] std::size_t capacity() const override { return 16; }

 private:
  std::map<std::string, std::uint64_t> rows_;
};

TEST(Registry, ReservedPrefixRejectedByPublicEntryPoints) {
  // "__sys/" is the server's namespace: every public get-or-create must
  // refuse it (nullptr, factory never invoked) so an application cannot
  // squat on — or collide with — the self-observability instruments.
  Registry registry(2);
  EXPECT_TRUE(is_reserved_name("__sys/server.ticks"));
  EXPECT_TRUE(is_reserved_name(std::string(kReservedPrefix)));
  EXPECT_FALSE(is_reserved_name("app/requests"));
  EXPECT_FALSE(is_reserved_name("__sysish"));

  EXPECT_EQ(registry.get_or_create("__sys/server.ticks",
                                   {ErrorModel::kAdditive, 4, 1}),
            nullptr);
  bool invoked = false;
  EXPECT_EQ(registry.add_histogram("__sys/h",
                                   [&] {
                                     invoked = true;
                                     return std::make_unique<FakeHistogram>();
                                   }),
            nullptr);
  EXPECT_EQ(registry.add_topk("__sys/t",
                              [&] {
                                invoked = true;
                                return std::make_unique<FakeTopK>();
                              }),
            nullptr);
  EXPECT_FALSE(invoked);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.lookup("__sys/server.ticks"), nullptr);
}

TEST(Registry, CrossKindNameCollisionsAreRejected) {
  // One table owns every entry: a name held by one kind is refused by
  // every other kind's adder (its factory never runs) and is invisible
  // to the other kinds' lookups.
  Registry registry(2);
  AnyCounter* counter =
      registry.get_or_create("c", {ErrorModel::kExact, 0, 1});
  AnyHistogram* hist = registry.add_histogram(
      "h", [] { return std::make_unique<FakeHistogram>(); });
  AnyTopK* topk =
      registry.add_topk("t", [] { return std::make_unique<FakeTopK>(); });
  AnyHistogram* sys_hist = registry.add_reserved<AnyHistogram>(
      "__sys/h", [] { return std::make_unique<FakeHistogram>(); });
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(topk, nullptr);
  ASSERT_NE(sys_hist, nullptr);
  const std::uint64_t version = registry.version();

  bool invoked = false;
  const auto hist_factory = [&] {
    invoked = true;
    return std::make_unique<FakeHistogram>();
  };
  const auto topk_factory = [&] {
    invoked = true;
    return std::make_unique<FakeTopK>();
  };
  const auto counter_factory = [&] {
    invoked = true;
    return std::unique_ptr<AnyCounter>();
  };
  EXPECT_EQ(registry.add_histogram("c", hist_factory), nullptr);
  EXPECT_EQ(registry.add_topk("c", topk_factory), nullptr);
  EXPECT_EQ(registry.get_or_create("h", {ErrorModel::kExact, 0, 1}), nullptr);
  EXPECT_EQ(registry.add_topk("h", topk_factory), nullptr);
  EXPECT_EQ(registry.get_or_create("t", {ErrorModel::kExact, 0, 1}), nullptr);
  EXPECT_EQ(registry.add_histogram("t", hist_factory), nullptr);
  EXPECT_EQ(registry.add_reserved<AnyCounter>("__sys/h", counter_factory),
            nullptr);
  EXPECT_EQ(registry.add_reserved<AnyTopK>("__sys/h", topk_factory), nullptr);
  EXPECT_FALSE(invoked);
  EXPECT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry.version(), version);  // nothing was inserted

  EXPECT_EQ(registry.lookup("c"), counter);
  EXPECT_EQ(registry.lookup_histogram("c"), nullptr);
  EXPECT_EQ(registry.lookup_topk("c"), nullptr);
  EXPECT_EQ(registry.lookup("h"), nullptr);
  EXPECT_EQ(registry.lookup_histogram("h"), hist);
  EXPECT_EQ(registry.lookup_topk("h"), nullptr);
  EXPECT_EQ(registry.lookup("t"), nullptr);
  EXPECT_EQ(registry.lookup_histogram("t"), nullptr);
  EXPECT_EQ(registry.lookup_topk("t"), topk);
  EXPECT_EQ(registry.lookup("__sys/h"), nullptr);
  EXPECT_EQ(registry.lookup_histogram("__sys/h"), sys_hist);

  // Each kind's own adder still returns the held instrument.
  EXPECT_EQ(registry.get_or_create("c", {ErrorModel::kAdditive, 4, 1}),
            counter);
  EXPECT_EQ(registry.add_histogram("h", hist_factory), hist);
  EXPECT_EQ(registry.add_topk("t", topk_factory), topk);
  EXPECT_FALSE(invoked);
}

TEST(Registry, ReservedAddersRequireTheReservedPrefix) {
  // The privileged adder is the mirror image: it accepts ONLY reserved
  // names, of every kind (a non-reserved name through the privileged
  // path would bypass the public kind-collision story), and its entries
  // collect like any other.
  Registry registry(2);
  AnyCounter* gauge = registry.add_reserved<AnyCounter>(
      "__sys/server.ticks",
      [] {
        return std::make_unique<detail::ErasedSharded<
            core::KAdditiveCounterT, base::InstrumentedBackend>>(
            2u, std::uint64_t{4}, 1u, ShardPolicy::kHashPinned);
      });
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(registry.add_reserved<AnyCounter>("app/requests", [] {
    return std::unique_ptr<AnyCounter>();
  }),
            nullptr);
  EXPECT_EQ(registry.add_reserved<AnyHistogram>("app/h", [] {
    return std::make_unique<FakeHistogram>();
  }),
            nullptr);
  EXPECT_EQ(registry.add_reserved<AnyTopK>("app/t", [] {
    return std::make_unique<FakeTopK>();
  }),
            nullptr);

  // Reserved entries are first-class: looked up, collected, sampled.
  EXPECT_EQ(registry.lookup("__sys/server.ticks"), gauge);
  for (int i = 0; i < 8; ++i) gauge->increment(0);
  gauge->flush(0);
  const auto samples = registry.snapshot_all(1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "__sys/server.ticks");
  EXPECT_EQ(samples[0].value, 8u);
}

TEST(Registry, TopKEntriesCollectRankedRowsAndDeltas) {
  // A top-k directory is a registry entry kind: snapshot passes carry
  // its ranked rows (labels + values, value the top row's), and the
  // sequenced change tracking hands deltas the row vectors.
  Registry registry(2);
  AnyTopK* talkers =
      registry.add_topk("top_talkers", [] { return std::make_unique<FakeTopK>(); });
  ASSERT_NE(talkers, nullptr);
  // Idempotent: second add returns the same instrument, factory unused.
  EXPECT_EQ(registry.add_topk("top_talkers",
                              []() -> std::unique_ptr<AnyTopK> {
                                ADD_FAILURE() << "factory re-invoked";
                                return nullptr;
                              }),
            talkers);

  talkers->update(0, "10.0.0.1:1", 500);
  talkers->update(0, "10.0.0.2:2", 900);
  talkers->update(0, "10.0.0.3:3", 40);

  std::vector<Sample> frame;
  TickRecord tick = sweep(registry, 1);
  std::uint64_t version = tick.registry_version;
  tick.rows_into(nullptr, frame);
  ASSERT_EQ(frame.size(), 1u);
  EXPECT_EQ(frame[0].model, ErrorModel::kTopK);
  EXPECT_EQ(frame[0].error_bound, 0u);  // max-register rows are exact
  EXPECT_EQ(frame[0].value, 900u);      // the top row
  ASSERT_EQ(frame[0].top_labels.size(), 3u);
  EXPECT_EQ(frame[0].top_labels[0], "10.0.0.2:2");
  ASSERT_EQ(frame[0].bucket_counts.size(), 3u);
  EXPECT_EQ(frame[0].bucket_counts[0], 900u);
  EXPECT_EQ(frame[0].bucket_counts[2], 40u);
  EXPECT_TRUE(frame[0].bucket_bounds.empty());

  // A value bump re-ranks; the changed-since walk reports the fresh row
  // vectors (counts = row values, labels = row labels).
  talkers->update(1, "10.0.0.3:3", 5000);
  tick = sweep(registry, 2);
  version = tick.registry_version;
  ASSERT_EQ(tick.vectors.size(), 1u);  // the tick carries the same rows
  EXPECT_EQ(tick.vectors[0].labels[0], "10.0.0.3:3");
  EXPECT_EQ(tick.values[0], 5000u);
  std::size_t visits = 0;
  auto upto = registry.for_each_changed_since(
      1, version,
      [&](std::size_t index, const std::string& name, std::uint64_t value,
          std::uint64_t changed_seq, const std::vector<std::uint64_t>* counts,
          const std::vector<std::string>* labels) {
        ++visits;
        EXPECT_EQ(index, 0u);
        EXPECT_EQ(name, "top_talkers");
        EXPECT_EQ(value, 5000u);
        EXPECT_EQ(changed_seq, 2u);
        ASSERT_NE(counts, nullptr);
        ASSERT_NE(labels, nullptr);
        ASSERT_FALSE(labels->empty());
        EXPECT_EQ((*labels)[0], "10.0.0.3:3");
        EXPECT_EQ((*counts)[0], 5000u);
      });
  ASSERT_TRUE(upto.has_value());
  EXPECT_EQ(visits, 1u);

  // Kind collision: the name cannot be re-taken by another entry kind.
  EXPECT_EQ(registry.get_or_create("top_talkers", {ErrorModel::kExact, 0, 1}),
            nullptr);
  EXPECT_EQ(registry.add_histogram(
                "top_talkers", [] { return std::make_unique<FakeHistogram>(); }),
            nullptr);
}

TEST(Aggregator, SequencedCollectFeedsChangedSinceTracking) {
  // An aggregator's collect_tick passes ARE the sequenced passes: a
  // tick's sequence is usable directly as the for_each_changed_since
  // basis.
  Registry registry(2);
  AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 2});
  Aggregator aggregator(registry, 1);
  TickRecord first;
  TickRecord second;
  TickRecord third;
  aggregator.collect_tick(first);
  aggregator.collect_tick(second);  // nothing moved
  EXPECT_EQ(aggregator.frames_collected(), second.pass_seq);
  std::size_t visited = 0;
  auto upto = registry.for_each_changed_since(
      first.pass_seq, second.registry_version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(upto.value_or(0), second.pass_seq);
  hits.increment(0);
  aggregator.collect_tick(third);
  upto = registry.for_each_changed_since(
      second.pass_seq, third.registry_version,
      [&](std::size_t index, const std::string& name, std::uint64_t value,
          std::uint64_t changed_seq, const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) {
        ++visited;
        EXPECT_EQ(index, 0u);
        EXPECT_EQ(name, "hits");
        EXPECT_EQ(value, third.values[0]);
        EXPECT_EQ(changed_seq, third.pass_seq);
      });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(upto.value_or(0), third.pass_seq);
  EXPECT_EQ(third.values[0], 1u);
  EXPECT_EQ(third.changed_seq, (std::vector<std::uint64_t>{third.pass_seq}));

  // A plain aggregator on the same registry reads through the
  // shared-lock pass and leaves the tracking columns alone — its
  // sequence domain cannot corrupt the sequencer's.
  Aggregator plain(registry, 0);
  hits.increment(0);
  const TelemetryFrame side = plain.collect();
  EXPECT_EQ(side.samples[0].value, 2u);
  visited = 0;
  upto = registry.for_each_changed_since(
      third.pass_seq, third.registry_version,
      [&](std::size_t, const std::string&, std::uint64_t, std::uint64_t,
          const std::vector<std::uint64_t>*,
          const std::vector<std::string>*) { ++visited; });
  EXPECT_EQ(visited, 0u);  // the new increment awaits a *sequenced* pass
  EXPECT_EQ(upto.value_or(0), third.pass_seq);  // last pass seq unmoved
}

TEST(Aggregator, SequencePublicationOrdersPayload) {
  // The release/acquire publication contract: a consumer that observes
  // frames_collected() == N and then calls latest() must see frame N (or
  // newer) — the sequence is released only after the payload store.
  RegistryT<base::DirectBackend> registry(4);
  AnyCounter& counter = registry.create("c", {ErrorModel::kExact, 0, 2});
  AggregatorT<base::DirectBackend> aggregator(registry, 3);

  std::atomic<bool> stop{false};
  std::thread collector([&] {
    unsigned pid = 0;
    while (!stop.load(std::memory_order_acquire)) {
      counter.increment(pid % 2);
      pid += 1;
      aggregator.collect();
    }
  });
  std::uint64_t observed = 0;
  std::uint64_t checks = 0;
  while (checks < 20'000) {
    const std::uint64_t count = aggregator.frames_collected();
    const TelemetryFrame frame = aggregator.latest();
    ASSERT_GE(frame.sequence, count) << "sequence published before payload";
    ASSERT_GE(frame.sequence, observed) << "latest() regressed";
    observed = frame.sequence;
    ++checks;
  }
  stop.store(true, std::memory_order_release);
  collector.join();
}

TEST(Aggregator, PullModeFramesAreSequencedAndSelfDescribing) {
  Registry registry(2);
  AnyCounter& hits =
      registry.create("hits", {ErrorModel::kMultiplicative, 2, 2});
  Aggregator aggregator(registry, 1);
  EXPECT_EQ(aggregator.latest().sequence, 0u);

  for (int i = 0; i < 100; ++i) hits.increment(0);
  const TelemetryFrame first = aggregator.collect();
  EXPECT_EQ(first.sequence, 1u);
  ASSERT_EQ(first.samples.size(), 1u);
  EXPECT_TRUE(core::within_mult_band(first.samples[0].value, 100,
                                     first.samples[0].error_bound));

  for (int i = 0; i < 100; ++i) hits.increment(0);
  const TelemetryFrame second = aggregator.collect();
  EXPECT_EQ(second.sequence, 2u);
  EXPECT_GE(second.samples[0].value, first.samples[0].value);
  EXPECT_EQ(aggregator.latest().sequence, 2u);
  EXPECT_EQ(aggregator.frames_collected(), 2u);
}

TEST(Aggregator, BackgroundModeCollectsWhileWorkersIncrement) {
  // DirectBackend: the background thread is a real thread with its own
  // dedicated pid (3); workers use pids 0..2.
  RegistryT<base::DirectBackend> registry(4);
  registry.create("events", {ErrorModel::kMultiplicative, 2, 2});
  AggregatorT<base::DirectBackend> aggregator(registry, 3);
  aggregator.start(std::chrono::milliseconds(1));

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> exact{0};
  for (unsigned pid = 0; pid < 3; ++pid) {
    workers.emplace_back([&, pid] {
      AnyCounter* counter = registry.lookup("events");
      ASSERT_NE(counter, nullptr);
      while (!stop.load(std::memory_order_acquire)) {
        counter->increment(pid);
        exact.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Run until the workers are incrementing and the background thread
  // has published two frames since; the deadline only keeps a stall
  // from hanging the suite (the assertions below then fail).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto wait_until = [&](auto done) {
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_until([&] { return exact.load(std::memory_order_relaxed) > 0; });
  const std::uint64_t base = aggregator.frames_collected();
  wait_until([&] { return aggregator.frames_collected() >= base + 2; });
  stop.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  aggregator.stop();

  EXPECT_GE(aggregator.frames_collected(), 2u);
  const TelemetryFrame frame = aggregator.latest();
  ASSERT_EQ(frame.samples.size(), 1u);
  // The final frame was collected at some point during the run: within
  // the mult band of some count ≤ the final exact total.
  EXPECT_LE(frame.samples[0].value / 2,
            exact.load(std::memory_order_relaxed) * 2);
  // A fresh post-quiescence collect is banded against the exact total.
  const TelemetryFrame last = aggregator.collect();
  EXPECT_TRUE(core::within_mult_band(last.samples[0].value, exact.load(),
                                     last.samples[0].error_bound));
}

}  // namespace
}  // namespace approx::shard
