// Tests for the snapshot server + client (src/svc/server.hpp,
// src/svc/client.hpp): real loopback sockets, real threads
// (DirectBackend — the server's collector and I/O workers live outside
// any sim scheduler, like AggregatorT's background mode).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "obs/self_metrics.hpp"
#include "obs/trace_ring.hpp"
#include "shard/registry.hpp"
#include "stats/histogram.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace approx::svc {
namespace {

using namespace std::chrono_literals;
using shard::ErrorModel;

/// Generous per-frame wait: CI sanitizer builds are slow.
constexpr auto kFrameTimeout = 5s;

/// Polls until the named counter's decoded value reaches `expected`
/// (exact counters only). False on timeout.
bool await_value(TelemetryClient& client, const std::string& name,
                 std::uint64_t expected, int max_frames = 400) {
  for (int i = 0; i < max_frames; ++i) {
    if (!client.poll_frame(kFrameTimeout)) return false;
    for (const shard::Sample& sample : client.view().samples()) {
      if (sample.name == name && sample.value >= expected) return true;
    }
  }
  return false;
}

/// A blocking loopback connection to `port` (-1 on failure).
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(SnapshotServer, StartStopIdempotentAndPortAssigned) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("c", {ErrorModel::kExact, 0, 1});
  SnapshotServer server(registry, 1);
  ASSERT_TRUE(server.start());
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.start());  // already running: no-op success
  const std::uint16_t port = server.port();
  // A second server on the same explicit port must fail cleanly...
  ServerOptions clash;
  clash.port = port;
  shard::RegistryT<base::DirectBackend> other(2);
  SnapshotServerT<base::DirectBackend> loser(other, 1, clash);
  EXPECT_FALSE(loser.start());
  server.stop();
  server.stop();  // idempotent
  // ...and succeed once the port is free again (SO_REUSEADDR).
  EXPECT_TRUE(loser.start());
  loser.stop();
}

TEST(SnapshotServer, SubscriberSeesFullThenDeltasAndLiveValues) {
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 2});
  shard::AnyCounter& rate =
      registry.create("rate", {ErrorModel::kMultiplicative, 2, 2});
  for (int i = 0; i < 42; ++i) hits.increment(0);
  for (int i = 0; i < 10; ++i) rate.increment(0);

  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  // First frame is always a full: complete self-describing name table.
  EXPECT_EQ(client.view().full_frames(), 1u);
  ASSERT_EQ(client.view().samples().size(), 2u);
  EXPECT_EQ(client.view().samples()[0].name, "hits");
  EXPECT_EQ(client.view().samples()[0].value, 42u);
  EXPECT_EQ(client.view().samples()[0].model, ErrorModel::kExact);
  EXPECT_EQ(client.view().samples()[1].name, "rate");
  EXPECT_EQ(client.view().samples()[1].model, ErrorModel::kMultiplicative);
  EXPECT_EQ(client.view().samples()[1].error_bound, 2u);

  // Live increments flow through; steady-state frames arrive as deltas.
  for (int i = 0; i < 8; ++i) hits.increment(1);
  EXPECT_TRUE(await_value(client, "hits", 50));
  EXPECT_GE(client.view().delta_frames(), 1u);
  EXPECT_GT(client.view().sequence(), 1u);
  EXPECT_GT(client.last_latency_ns(), 0u);

  server.stop();
  // Server shutdown surfaces as a clean disconnect, not a hang.
  while (client.poll_frame(100ms)) {
  }
  EXPECT_FALSE(client.connected());
}

TEST(SnapshotServer, UnchangedFleetStreamsEmptyDeltaHeartbeats) {
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  c.increment(0);
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));  // the full
  const std::uint64_t entries_after_full = client.view().entries_updated();
  const std::uint64_t seq_after_full = client.view().sequence();
  // Nobody increments: further frames advance the sequence (the
  // liveness heartbeat) without carrying a single entry.
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  EXPECT_GT(client.view().sequence(), seq_after_full);
  EXPECT_GE(client.view().delta_frames(), 2u);
  EXPECT_EQ(client.view().entries_updated(), entries_after_full);
  server.stop();
}

TEST(SnapshotServer, RegistryGrowthForcesAFreshFullFrame) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("first", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_EQ(client.view().samples().size(), 1u);
  const std::uint64_t version_before = client.view().registry_version();

  registry.create("second", {ErrorModel::kAdditive, 8, 2});
  for (int i = 0; i < 200 && client.view().samples().size() < 2; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 2u);
  EXPECT_NE(client.view().registry_version(), version_before);
  EXPECT_GE(client.view().full_frames(), 2u);  // table change ⇒ new full
  EXPECT_EQ(client.view().samples()[1].name, "second");
  EXPECT_EQ(client.view().samples()[1].error_bound, 16u);  // S·k composed
  server.stop();
}

TEST(SnapshotServer, SixtyFourConcurrentSubscribersAllProgress) {
  // The acceptance bar: ≥ 64 concurrent subscribers, nobody dropped.
  constexpr unsigned kSubscribers = 64;
  constexpr int kFramesEach = 3;
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& load =
      registry.create("load", {ErrorModel::kExact, 0, 2});
  ServerOptions options;
  options.period = 10ms;
  options.io_threads = 4;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      load.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<unsigned> happy{0};
  std::vector<std::thread> subscribers;
  for (unsigned i = 0; i < kSubscribers; ++i) {
    subscribers.emplace_back([&] {
      TelemetryClient client;
      if (!client.connect(server.port())) return;
      for (int f = 0; f < kFramesEach; ++f) {
        if (!client.poll_frame(kFrameTimeout)) return;
      }
      if (client.connected() && !client.view().samples().empty() &&
          client.view().sequence() > 0) {
        happy.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : subscribers) t.join();
  stop.store(true, std::memory_order_release);
  incrementer.join();

  EXPECT_EQ(happy.load(), kSubscribers) << "a subscriber stalled or dropped";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_accepted, kSubscribers);
  // Nobody was dropped by the server mid-test: every close so far was
  // client-initiated after its frames (≤ kSubscribers), never a forced
  // disconnect that would strand a reader before its 3 frames.
  EXPECT_GE(stats.full_frames_sent, static_cast<std::uint64_t>(kSubscribers));
  EXPECT_GT(stats.delta_frames_sent + stats.catchup_deltas_sent, 0u);
  server.stop();
}

TEST(SnapshotServer, SlowReaderIsCoalescedNotDisconnectedNotBuffered) {
  // Backpressure: a subscriber that stops reading while the fleet churns
  // must neither be disconnected nor have every missed frame queued —
  // when it finally drains, it jumps to the newest frame (coalescing).
  // A tiny SO_SNDBUF makes the kernel buffer fill within a few frames.
  shard::RegistryT<base::DirectBackend> registry(2);
  std::vector<shard::AnyCounter*> fleet;
  for (int i = 0; i < 256; ++i) {
    fleet.push_back(&registry.create("counter_" + std::to_string(1000 + i),
                                     {ErrorModel::kExact, 0, 1}));
  }
  ServerOptions options;
  options.period = 2ms;
  options.sndbuf = 4096;  // a frame is 2–5 KB: the pipe jams in a few
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  // Small receive buffer too: otherwise ~100 frames hide in the
  // client-side kernel buffer and the server never feels backpressure.
  ASSERT_TRUE(client.connect(server.port(), "127.0.0.1", 4096));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  const std::uint64_t seq_before = client.view().sequence();

  // Go quiet for ~100 ticks while every counter changes every tick.
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (shard::AnyCounter* counter : fleet) counter->increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::this_thread::sleep_for(200ms);

  // Drain: the client must catch up to a recent frame in far fewer
  // frames than elapsed ticks (missed ones were coalesced, not queued).
  std::uint64_t frames_to_catch_up = 0;
  std::uint64_t newest = seq_before;
  for (int i = 0; i < 50; ++i) {
    if (!client.poll_frame(kFrameTimeout)) break;
    ++frames_to_catch_up;
    newest = client.view().sequence();
    const std::uint64_t server_seq = server.stats().frames_collected;
    if (server_seq > 0 && newest + 3 >= server_seq) break;  // caught up
  }
  stop.store(true, std::memory_order_release);
  churner.join();

  EXPECT_TRUE(client.connected()) << "slow reader was disconnected";
  EXPECT_GT(newest, seq_before);
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.frames_coalesced, 0u)
      << "server queued every frame instead of coalescing";
  EXPECT_GT(newest - seq_before, frames_to_catch_up)
      << "catch-up replayed every missed frame";
  server.stop();
}

TEST(SnapshotServer, LaggingFilteredReaderCatchesUpToItsSubsetsValues) {
  // A filtered subscriber that stops reading falls behind its group's
  // shared deltas; when it drains, per-client catch-up deltas must land
  // it on exactly the fleet's values. The "b_" subset sits behind the
  // "a_" rows, so subset positions and flat rows differ, every counter
  // moves by its own step, and a histogram rides in the subset — a
  // value taken from the wrong row, or a reading from the wrong vector,
  // leaves the view wrong once the fleet goes quiet.
  shard::RegistryT<base::DirectBackend> registry(2);
  std::vector<shard::AnyCounter*> fleet;
  for (int i = 0; i < 256; ++i) {
    const std::string suffix = std::to_string(1000 + i);
    fleet.push_back(
        &registry.create("a_" + suffix, {ErrorModel::kExact, 0, 1}));
    fleet.push_back(
        &registry.create("b_" + suffix, {ErrorModel::kExact, 0, 1}));
  }
  stats::HistogramSpec spec;
  spec.bounds = {10, 100, 1000};
  spec.k = 1;
  shard::AnyHistogram* lat =
      stats::create_histogram<base::DirectBackend>(registry, "b_lat", spec);
  ASSERT_NE(lat, nullptr);
  ServerOptions options;
  options.period = 2ms;
  options.sndbuf = 4096;  // a ~1 KB subset delta jams the pipe in a few
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port(), "127.0.0.1", 4096));
  SubscriptionFilter filter;
  filter.prefixes = {"b_"};
  ASSERT_TRUE(client.subscribe(filter));
  for (int i = 0; i < 400 && (client.view().rebase_pending() ||
                              client.view().samples().size() != 257);
       ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 257u);

  // Stop reading for ~100 ticks while every row moves every tick.
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    for (std::uint64_t round = 1; !stop.load(std::memory_order_acquire);
         ++round) {
      for (std::size_t j = 0; j < fleet.size(); ++j) {
        for (std::size_t step = 0; step <= j % 13; ++step) {
          fleet[j]->increment(0);
        }
      }
      lat->record(0, round % 2000);
      lat->flush(0);
      std::this_thread::sleep_for(1ms);
    }
  });
  std::this_thread::sleep_for(200ms);
  stop.store(true, std::memory_order_release);
  churner.join();

  // Drain until the view holds the quiet fleet's subset.
  std::vector<shard::Sample> want;
  for (shard::Sample& sample : registry.snapshot_all(0)) {
    if (sample.name.rfind("b_", 0) == 0) want.push_back(std::move(sample));
  }
  const auto view_is_want = [&] {
    const std::vector<shard::Sample>& got = client.view().samples();
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].name != want[i].name || got[i].value != want[i].value ||
          got[i].bucket_counts != want[i].bucket_counts) {
        return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 200 && !view_is_want(); ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_TRUE(view_is_want());
  EXPECT_TRUE(client.connected());
  EXPECT_GT(server.stats().catchup_deltas_sent, 0u)
      << "the reader never lagged behind its group's shared delta";
  server.stop();
}

TEST(SnapshotServer, AcksFeedObservability) {
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  for (int i = 0; i < 5; ++i) {
    c.increment(0);
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  // Acks travel on their own schedule; wait for the server to see some.
  for (int i = 0; i < 200 && server.stats().acks_received == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.acks_received, 0u);
  EXPECT_GT(stats.min_acked_seq, 0u);
  EXPECT_LE(stats.min_acked_seq, client.view().sequence());
  server.stop();
}

TEST(SnapshotServer, FilteredSubscriberTracksSubsetLive) {
  // SUBSCRIBE re-bases the stream onto the filter's subset —
  // the view's table becomes exactly the matching counters and live
  // increments keep flowing; switching filters (including back to
  // pass-all) re-bases again.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot_a =
      registry.create("hot_a", {ErrorModel::kExact, 0, 1});
  registry.create("hot_b", {ErrorModel::kExact, 0, 1});
  registry.create("cold_x", {ErrorModel::kExact, 0, 1});
  registry.create("cold_y", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot_a.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"hot_"};
  ASSERT_TRUE(client.subscribe(filter));
  EXPECT_TRUE(client.view().rebase_pending());
  // Pump until the re-basing filtered full lands: table = the subset.
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending() &&
              client.view().samples().size() == 2;
  }
  ASSERT_TRUE(rebased);
  EXPECT_EQ(client.view().samples()[0].name, "hot_a");
  EXPECT_EQ(client.view().samples()[1].name, "hot_b");

  // Live values keep flowing through subset deltas.
  const std::uint64_t seen = client.view().samples()[0].value;
  EXPECT_TRUE(await_value(client, "hot_a", seen + 5));
  EXPECT_GE(client.view().delta_frames(), 1u);

  // Back to pass-all: the next full restores the whole table.
  ASSERT_TRUE(client.subscribe(SubscriptionFilter{}));
  for (int i = 0; i < 400 && client.view().samples().size() != 4; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_EQ(client.view().samples().size(), 4u);
  stop.store(true, std::memory_order_release);
  incrementer.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.subscribes_received, 2u);
  server.stop();
}

TEST(SnapshotServer, IdenticallyFilteredSubscribersShareOneEncodePerTick) {
  // The per-filter-group encode cache: K subscribers with the same
  // filter cost at most ONE filtered delta encode per collector tick
  // (never one per subscriber), while each still receives its own copy.
  constexpr unsigned kSubscribers = 4;
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot =
      registry.create("grp_hot", {ErrorModel::kExact, 0, 1});
  for (int i = 0; i < 16; ++i) {
    registry.create("noise_" + std::to_string(10 + i),
                    {ErrorModel::kExact, 0, 1});
  }
  ServerOptions options;
  options.period = 10ms;
  options.io_threads = 2;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<unsigned> happy{0};
  std::vector<std::thread> subscribers;
  for (unsigned s = 0; s < kSubscribers; ++s) {
    subscribers.emplace_back([&] {
      TelemetryClient client;
      if (!client.connect(server.port())) return;
      SubscriptionFilter filter;
      filter.prefixes = {"grp_"};
      if (!client.subscribe(filter)) return;
      // Pump until this subscriber has applied 10 subset deltas.
      for (int i = 0; i < 600 && client.view().delta_frames() < 10; ++i) {
        if (!client.poll_frame(kFrameTimeout)) return;
      }
      if (client.view().delta_frames() >= 10 &&
          client.view().samples().size() == 1 &&
          client.view().samples()[0].name == "grp_hot") {
        happy.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : subscribers) t.join();
  stop.store(true, std::memory_order_release);
  incrementer.join();

  EXPECT_EQ(happy.load(), kSubscribers);
  const ServerStats stats = server.stats();
  // The sharing pin: encodes are bounded by ticks (ONE per group per
  // tick), not by subscriber count — while the frames actually handed
  // out exceed the encodes (4 subscribers × ≥10 deltas each).
  EXPECT_LE(stats.filtered_delta_encodes, stats.frames_collected);
  EXPECT_GT(stats.delta_frames_sent, stats.filtered_delta_encodes)
      << "every subscriber paid its own encode: the group cache is dead";
  // Filtered fulls are cached per tick too: 4 identical subscribers
  // re-basing cost well under one encode each... unless they joined on
  // different ticks, which is why this bound is per-tick, not global.
  EXPECT_LE(stats.filtered_full_encodes, stats.frames_collected);
  server.stop();
}

TEST(SnapshotServer, ResyncProducesFreshFullWithinATick) {
  // Client-initiated recovery: after a stall (server coalescing away
  // missed ticks), request_resync() yields a fresh FULL frame promptly
  // — no registry table change required, no reconnect.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& churn =
      registry.create("churn", {ErrorModel::kExact, 0, 1});
  registry.create("steady", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      churn.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  const std::uint64_t version_before = client.view().registry_version();

  // Stall: ~40 ticks pass unread, then drain the buffered backlog so
  // the client is back in step (the resync latency bound below is
  // frames-after-resync, not backlog replay).
  std::this_thread::sleep_for(200ms);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t head = server.stats().frames_collected;
    if (head > 0 && client.view().sequence() + 2 >= head) break;
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  const std::uint64_t fulls_before = client.view().full_frames();

  ASSERT_TRUE(client.request_resync());
  EXPECT_TRUE(client.view().rebase_pending());
  // The fresh full must arrive within a few frames (deltas published
  // before the server processes the resync may land first), NOT after a
  // table change — the registry version never moved.
  bool resynced = false;
  int frames_until_full = 0;
  while (frames_until_full < 5 && !resynced) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    ++frames_until_full;
    resynced = client.view().full_frames() > fulls_before;
  }
  EXPECT_TRUE(resynced) << "no full within " << frames_until_full
                        << " frames of the resync";
  EXPECT_FALSE(client.view().rebase_pending());
  EXPECT_EQ(client.view().registry_version(), version_before)
      << "test bug: the full must not come from a table change";
  // And the full is FRESH: at the server's current head, not a replay.
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.resyncs_received, 1u);
  EXPECT_GE(client.view().sequence() + 3, stats.frames_collected);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, OnePercentSubscriberGetsTenfoldFewerDeltaBytes) {
  // The fan-out acceptance bar: on a 48-counter fleet, a 1%-selectivity
  // subscriber (1 counter) must receive ≥ 10× fewer delta bytes than an
  // unfiltered one. The win compounds two effects: subset deltas carry
  // only the subscribed counter, and ticks on which the subset did not
  // move ship nothing (bounded by the heartbeat).
  constexpr int kBulkCounters = 47;  // + the target = the 48 fleet
  shard::RegistryT<base::DirectBackend> registry(4);
  std::vector<shard::AnyCounter*> bulk;
  for (int i = 0; i < kBulkCounters; ++i) {
    bulk.push_back(&registry.create("bulk_" + std::to_string(10 + i),
                                    {ErrorModel::kExact, 0, 1}));
  }
  shard::AnyCounter& target =
      registry.create("quiet_target", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.io_threads = 2;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  // Every bulk counter moves every tick; the target moves every ~25 ms
  // (~1 tick in 5).
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    unsigned iteration = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (shard::AnyCounter* counter : bulk) counter->increment(0);
      if (++iteration % 25 == 0) target.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<bool> done{false};
  std::uint64_t unfiltered_bytes = 0;
  std::uint64_t filtered_bytes = 0;
  std::size_t filtered_table = 0;
  std::thread unfiltered([&] {
    TelemetryClient client;
    if (!client.connect(server.port())) return;
    while (!done.load(std::memory_order_acquire)) {
      client.poll_frame(50ms);
      if (!client.connected()) return;
    }
    unfiltered_bytes = client.delta_frame_bytes();
  });
  std::thread filtered([&] {
    TelemetryClient client;
    if (!client.connect(server.port())) return;
    SubscriptionFilter filter;
    filter.exact = {"quiet_target"};
    if (!client.subscribe(filter)) return;
    while (!done.load(std::memory_order_acquire)) {
      client.poll_frame(50ms);
      if (!client.connected()) return;
    }
    filtered_bytes = client.delta_frame_bytes();
    filtered_table = client.view().samples().size();
  });

  std::this_thread::sleep_for(1500ms);
  done.store(true, std::memory_order_release);
  unfiltered.join();
  filtered.join();
  stop.store(true, std::memory_order_release);
  churner.join();

  EXPECT_EQ(filtered_table, 1u);  // the subscription IS the table
  ASSERT_GT(unfiltered_bytes, 0u);
  ASSERT_GT(filtered_bytes, 0u);  // target moved: deltas did flow
  EXPECT_GE(unfiltered_bytes, 10 * filtered_bytes)
      << "unfiltered " << unfiltered_bytes << " B vs filtered "
      << filtered_bytes << " B";
  EXPECT_GT(server.stats().group_deltas_suppressed, 0u)
      << "quiet subset ticks should ship nothing";
  server.stop();
}

TEST(SnapshotServer, ReconnectWhileSubscribedStartsAFreshView) {
  // A reconnect resets the subscription server-side (new socket = new
  // unfiltered client); the client's view must restart too. If the old
  // subset table survived, the new stream's first full — possibly at
  // the same (registry_version, sequence) the old stream reached —
  // would be stale-skipped, and unfiltered delta indices would misapply
  // against the 2-entry subset table.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot_a =
      registry.create("hot_a", {ErrorModel::kExact, 0, 1});
  registry.create("hot_b", {ErrorModel::kExact, 0, 1});
  registry.create("cold_x", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot_a.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"hot_"};
  ASSERT_TRUE(client.subscribe(filter));
  for (int i = 0; i < 400 && (client.view().rebase_pending() ||
                              client.view().samples().size() != 2);
       ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 2u);

  // Reconnect immediately (same tick is the dangerous window).
  ASSERT_TRUE(client.connect(server.port()));
  EXPECT_EQ(client.view().sequence(), 0u);  // the view restarted
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  // First frame of the new stream is the unfiltered full fleet.
  EXPECT_EQ(client.view().samples().size(), 3u);
  // And the unfiltered delta stream keeps applying cleanly.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.view().samples().size(), 3u);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, MalformedControlRecordsCloseTheOffender) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient wellbehaved;
  ASSERT_TRUE(wellbehaved.connect(server.port()));
  ASSERT_TRUE(wellbehaved.poll_frame(kFrameTimeout));

  // A control record claiming an absurd payload length.
  int liar = raw_connect(server.port());
  ASSERT_GE(liar, 0);
  std::string huge;
  huge.push_back(static_cast<char>(kControlByte));
  huge.push_back(static_cast<char>(0xFF));
  huge.push_back(static_cast<char>(0xFF));
  huge.push_back(static_cast<char>(0xFF));
  huge.push_back(static_cast<char>(0x7F));
  ASSERT_GT(::send(liar, huge.data(), huge.size(), 0), 0);
  for (int i = 0; i < 200 && server.stats().clients_closed < 1; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().clients_closed, 1u);

  // A correctly-framed control record with a garbage payload.
  int garbler = raw_connect(server.port());
  ASSERT_GE(garbler, 0);
  std::string garbage;
  garbage.push_back(static_cast<char>(kControlByte));
  garbage.push_back(4);
  garbage.push_back(0);
  garbage.push_back(0);
  garbage.push_back(0);
  garbage.append("junk");
  ASSERT_GT(::send(garbler, garbage.data(), garbage.size(), 0), 0);
  for (int i = 0; i < 200 && server.stats().clients_closed < 2; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().clients_closed, 2u);

  // The compliant subscriber lives on.
  EXPECT_TRUE(wellbehaved.poll_frame(kFrameTimeout));
  ::close(liar);
  ::close(garbler);
  server.stop();
}

TEST(SnapshotServer, GarbageInboundBytesCloseTheOffender) {
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient wellbehaved;
  ASSERT_TRUE(wellbehaved.connect(server.port()));
  ASSERT_TRUE(wellbehaved.poll_frame(kFrameTimeout));
  // A raw connection speaking the wrong protocol (an HTTP probe, say).
  int raw = raw_connect(server.port());
  ASSERT_GE(raw, 0);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(raw, garbage, sizeof(garbage) - 1, 0), 0);
  // The server closes the garbage speaker; the compliant ones live on.
  for (int i = 0; i < 200 && server.stats().clients_closed == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().clients_closed, 1u);
  EXPECT_TRUE(wellbehaved.poll_frame(kFrameTimeout));
  ::close(raw);
  server.stop();
}

TEST(SnapshotServer, DisjointCreateLeavesFilterGroupStreamUntouched) {
  // Satellite regression: a registry create OUTSIDE a filter group's
  // subset must not interrupt the group — the append-only name-sorted
  // table means an unchanged selection size is an unchanged subset, so
  // the group keeps streaming deltas under its pinned wire version.
  // No re-basing filtered full, no full re-encode, no client rebase.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot =
      registry.create("grp_hot", {ErrorModel::kExact, 0, 1});
  registry.create("noise_0", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"grp_"};
  ASSERT_TRUE(client.subscribe(filter));
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending() &&
              client.view().samples().size() == 1;
  }
  ASSERT_TRUE(rebased);
  ASSERT_TRUE(await_value(client, "grp_hot",
                          client.view().samples()[0].value + 5));

  const std::uint64_t fulls_before = client.view().full_frames();
  const std::uint64_t ffe_before = server.stats().filtered_full_encodes;

  // Disjoint creates that sort BEFORE the subset: every flat index in
  // the selection shifts, the registry version bumps — the strongest
  // "nothing visible should happen" case.
  for (int i = 0; i < 3; ++i) {
    registry.create("aaa_disjoint_" + std::to_string(i),
                    {ErrorModel::kExact, 0, 1});
    ASSERT_TRUE(await_value(client, "grp_hot",
                            client.view().samples()[0].value + 3));
  }
  EXPECT_EQ(client.view().full_frames(), fulls_before)
      << "a disjoint create re-based the filter group";
  EXPECT_EQ(client.view().samples().size(), 1u);
  EXPECT_EQ(client.view().samples()[0].name, "grp_hot");
  EXPECT_EQ(server.stats().filtered_full_encodes, ffe_before)
      << "a disjoint create forced a filtered full re-encode";

  // A create INSIDE the subset is the real table change: the group
  // re-bases via a fresh filtered full carrying both names.
  registry.create("grp_new", {ErrorModel::kExact, 0, 1});
  for (int i = 0; i < 400 && client.view().samples().size() != 2; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(client.view().samples().size(), 2u);
  EXPECT_EQ(client.view().samples()[0].name, "grp_hot");
  EXPECT_EQ(client.view().samples()[1].name, "grp_new");
  EXPECT_GT(client.view().full_frames(), fulls_before);
  EXPECT_GT(server.stats().filtered_full_encodes, ffe_before);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

TEST(SnapshotServer, IdleSubsetHeartbeatsCarryClockAndStalenessSplit) {
  // Satellite regression: heartbeat deltas carry the server's clock
  // stamp (an idle-subset subscriber's latency stays measured), and the
  // view splits stream freshness (sequence/collect) from data freshness
  // (last_data_*): heartbeats advance the former, only payload frames
  // the latter.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& quiet =
      registry.create("quiet_q", {ErrorModel::kExact, 0, 1});
  shard::AnyCounter& busy =
      registry.create("busy_b", {ErrorModel::kExact, 0, 1});
  quiet.increment(0);
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      busy.increment(0);  // fleet-wide churn the subset never sees
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"quiet_"};
  ASSERT_TRUE(client.subscribe(filter));
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    rebased = !client.view().rebase_pending() &&
              client.view().samples().size() == 1;
  }
  ASSERT_TRUE(rebased);
  const std::uint64_t data_seq_after_full = client.view().last_data_sequence();
  EXPECT_EQ(data_seq_after_full, client.view().sequence());

  // The subset stays untouched: everything from here is heartbeats.
  const std::uint64_t heartbeats_before = client.view().heartbeat_frames();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    // The stamp satellite: a heartbeat is still a measured frame — the
    // subscriber's latency reflects the server's clock, not 0 (and not
    // a stale reading parked since the last payload frame).
    EXPECT_GT(client.last_latency_ns(), 0u);
    EXPECT_LT(client.last_latency_ns(), 2'000'000'000u);
  }
  EXPECT_GE(client.view().heartbeat_frames(), heartbeats_before + 3);
  // Stream freshness advanced; data freshness stayed at the full.
  EXPECT_GT(client.view().sequence(), data_seq_after_full);
  EXPECT_EQ(client.view().last_data_sequence(), data_seq_after_full);
  EXPECT_LE(client.view().last_data_collect_ns(),
            client.view().last_collect_ns());

  // One touch in the subset: the next payload delta moves data
  // freshness forward again.
  quiet.increment(1);
  ASSERT_TRUE(await_value(client, "quiet_q", 2));
  EXPECT_GT(client.view().last_data_sequence(), data_seq_after_full);

  stop.store(true, std::memory_order_release);
  incrementer.join();
  server.stop();
}

/// Pumps until the client rides the shm ring (mapped, a ring frame
/// applied beyond the `ring_frames_before` it already counted — a
/// client that rode an earlier ring has counted its frames) on a
/// settled table (no re-base pending). False on timeout.
bool await_ring(TelemetryClient& client, std::uint64_t ring_frames_before = 0,
                int max_frames = 400) {
  for (int i = 0; i < max_frames; ++i) {
    if (!client.poll_frame(kFrameTimeout)) return false;
    if (client.shm_active() && client.shm_frames() > ring_frames_before &&
        !client.view().rebase_pending()) {
      return true;
    }
  }
  return false;
}

TEST(SnapshotServer, EveryFilterGroupRidesItsOwnShmRing) {
  // Each filter group publishes into its own shm ring, so a filtered
  // subscriber gets the zero-syscall path too: its ring carries exactly
  // its subset stream (deltas index the subset table), never the
  // fleet's. A ring rider that re-subscribes is detached and re-based
  // onto its new group over TCP, and stays on TCP until it asks for
  // that group's ring.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hot_a =
      registry.create("hot_a", {ErrorModel::kExact, 0, 1});
  shard::AnyCounter& cold_x =
      registry.create("cold_x", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot_a.increment(0);
      cold_x.increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });
  const auto finish = [&] {
    stop.store(true, std::memory_order_release);
    incrementer.join();
    server.stop();
  };

  // An unfiltered rider proves shm works here at all — otherwise the
  // assertions below would be vacuous (e.g. no /dev/shm).
  TelemetryClient unfiltered;
  ASSERT_TRUE(unfiltered.connect(server.port()));
  ASSERT_TRUE(unfiltered.request_shm());
  if (!await_ring(unfiltered)) {
    finish();
    GTEST_SKIP() << "no healthy shm ring in this environment";
  }
  EXPECT_EQ(unfiltered.view().samples().size(), 2u);

  TelemetryClient filtered;
  ASSERT_TRUE(filtered.connect(server.port()));
  SubscriptionFilter filter;
  filter.prefixes = {"hot_"};
  ASSERT_TRUE(filtered.subscribe(filter));
  ASSERT_TRUE(filtered.request_shm());
  ASSERT_TRUE(await_ring(filtered));
  ASSERT_EQ(filtered.view().samples().size(), 1u);
  const std::uint64_t ring_frames = filtered.shm_frames();
  ASSERT_TRUE(
      await_value(filtered, "hot_a", filtered.view().samples()[0].value + 10));
  EXPECT_GT(filtered.shm_frames(), ring_frames) << "values stopped riding";
  EXPECT_TRUE(filtered.shm_active());
  // The subset stayed the table throughout: no fleet frame widened it.
  EXPECT_EQ(filtered.view().samples().size(), 1u);
  EXPECT_EQ(filtered.view().samples()[0].name, "hot_a");
  EXPECT_GE(server.stats().shm_accepts_received, 2u);

  // Riding the pass-all ring, THEN subscribing: the client detaches and
  // its new group's stream arrives over TCP...
  SubscriptionFilter narrow;
  narrow.prefixes = {"cold_"};
  ASSERT_TRUE(unfiltered.subscribe(narrow));
  EXPECT_FALSE(unfiltered.shm_active());
  bool rebased = false;
  for (int i = 0; i < 400 && !rebased; ++i) {
    ASSERT_TRUE(unfiltered.poll_frame(kFrameTimeout));
    rebased = !unfiltered.view().rebase_pending() &&
              unfiltered.view().samples().size() == 1;
  }
  ASSERT_TRUE(rebased);
  EXPECT_EQ(unfiltered.view().samples()[0].name, "cold_x");
  const std::uint64_t frozen = unfiltered.shm_frames();
  ASSERT_TRUE(await_value(unfiltered, "cold_x",
                          unfiltered.view().samples()[0].value + 5));
  EXPECT_EQ(unfiltered.shm_frames(), frozen) << "rode a ring unasked";
  EXPECT_FALSE(unfiltered.shm_active());
  // ...until it asks: then it rides the cold_ group's own ring. (The
  // wait counts from `frozen`: the pass-all ring's frame already
  // satisfies "≥ 1 ring frame", and TCP frames still in flight could
  // carry the values below before the new ring's first frame lands.)
  ASSERT_TRUE(unfiltered.request_shm());
  ASSERT_TRUE(await_ring(unfiltered, frozen));
  ASSERT_TRUE(await_value(unfiltered, "cold_x",
                          unfiltered.view().samples()[0].value + 5));
  EXPECT_GT(unfiltered.shm_frames(), frozen);
  EXPECT_EQ(unfiltered.view().samples().size(), 1u);
  EXPECT_EQ(unfiltered.view().samples()[0].name, "cold_x");
  EXPECT_GE(server.stats().shm_offers_sent, 3u);  // pass-all, hot_, cold_
  EXPECT_EQ(server.stats().shm_publish_failures, 0u);
  finish();
}

TEST(SnapshotServer, ShmOfferOvertakenBySubscribeIsNeverRidden) {
  // An offer already on the wire when the client SUBSCRIBEs names the
  // ring of the group it just left, whose deltas index the old table.
  // The client must skip it, ask again, and ride its new group's ring
  // only after that group's re-basing full — values stay exact.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& cold_x =
      registry.create("cold_x", {ErrorModel::kExact, 0, 1});
  shard::AnyCounter& hot_a =
      registry.create("hot_a", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hot_a.increment(0);
      for (int i = 0; i < 3; ++i) cold_x.increment(0);  // values differ
      std::this_thread::sleep_for(1ms);
    }
  });

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.request_shm());
  // Let the pass-all ring's offer reach the socket without reading it.
  for (int i = 0; i < 400 && server.stats().shm_offers_sent == 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  if (server.stats().shm_offers_sent == 0) {
    stop.store(true, std::memory_order_release);
    incrementer.join();
    server.stop();
    GTEST_SKIP() << "no healthy shm ring in this environment";
  }
  SubscriptionFilter filter;
  filter.prefixes = {"hot_"};
  ASSERT_TRUE(client.subscribe(filter));
  ASSERT_TRUE(client.request_shm());
  ASSERT_TRUE(await_ring(client));
  ASSERT_EQ(client.view().samples().size(), 1u);
  EXPECT_EQ(client.view().samples()[0].name, "hot_a");

  stop.store(true, std::memory_order_release);
  incrementer.join();
  const std::uint64_t truth = hot_a.read(0);
  ASSERT_TRUE(await_value(client, "hot_a", truth));
  EXPECT_EQ(client.view().samples()[0].value, truth);
  EXPECT_TRUE(client.shm_active());
  EXPECT_GE(server.stats().shm_offers_sent, 2u);  // old group, then new
  server.stop();
}

TEST(SnapshotServer, FullFramesAreEncodedOnlyWhenAMemberNeedsOne) {
  // Fulls are lazy for every group: with nobody connected the collector
  // encodes nothing at all, and subscribers joining on one tick share a
  // single full encode.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 200 && server.stats().frames_collected < 10; ++i) {
    c.increment(0);
    std::this_thread::sleep_for(5ms);
  }
  ServerStats stats = server.stats();
  ASSERT_GE(stats.frames_collected, 10u);
  EXPECT_EQ(stats.filtered_full_encodes, 0u);
  EXPECT_EQ(stats.filtered_delta_encodes, 0u);

  TelemetryClient first;
  TelemetryClient second;
  ASSERT_TRUE(first.connect(server.port()));
  ASSERT_TRUE(second.connect(server.port()));
  ASSERT_TRUE(first.poll_frame(kFrameTimeout));
  ASSERT_TRUE(second.poll_frame(kFrameTimeout));
  stats = server.stats();
  EXPECT_EQ(stats.full_frames_sent, 2u);
  EXPECT_GE(stats.filtered_full_encodes, 1u);
  EXPECT_LE(stats.filtered_full_encodes, 2u);  // one per tick joined on
  // Steady state: deltas only.
  const std::uint64_t fulls = stats.filtered_full_encodes;
  for (int i = 0; i < 5; ++i) {
    c.increment(0);
    ASSERT_TRUE(first.poll_frame(kFrameTimeout));
  }
  EXPECT_EQ(server.stats().filtered_full_encodes, fulls);
  EXPECT_GT(server.stats().filtered_delta_encodes, 0u);
  server.stop();
}

TEST(SnapshotServer, AckStalledPeerIsEvictedWhileLiveReaderStreams) {
  // The satellite-1 regression: a peer that stops reading AND acking (a
  // SIGSTOP'd client, a half-open TCP session) used to hold its socket
  // — and whatever retired shared-encode frame it pinned — forever,
  // because acks fed only min_acked_seq observability. With
  // ack_deadline_ticks set it must be closed within the deadline, its
  // pinned in-flight frame must drain, and a live acking reader on the
  // same server must not be touched.
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 2});
  c.increment(0);
  ServerOptions options;
  options.period = 2ms;
  options.ack_deadline_ticks = 25;  // ~50 ms of stall tolerated
  options.shm_enable = false;       // the live reader must ack over TCP
  options.sndbuf = 2048;  // small: the stalled peer jams and pins a frame
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  // The stalled peer: connects, never reads, never acks. A tiny
  // receive buffer makes its kernel pipe jam within a few frames, so
  // the server is left holding an undrained in-flight encode for it.
  const int stalled = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(stalled, 0);
  int tiny = 1024;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  TelemetryClient live;
  ASSERT_TRUE(live.connect(server.port()));
  ASSERT_TRUE(live.poll_frame(kFrameTimeout));

  // Keep the fleet changing so frames (and the tick clock) flow; the
  // real-time budget is generous for sanitizer builds, the TICK budget
  // the server enforces is the deadline.
  bool evicted = false;
  for (int i = 0; i < 500 && !evicted; ++i) {
    c.increment(0);
    live.poll_frame(20ms);
    evicted = server.stats().clients_evicted_idle >= 1;
  }
  EXPECT_TRUE(evicted) << "stalled peer was never evicted";

  // The eviction released the pinned encode: the fleet-wide in-flight
  // gauge drains to zero (the live reader drains its own instantly).
  bool drained = false;
  for (int i = 0; i < 200 && !drained; ++i) {
    live.poll_frame(20ms);
    drained = server.stats().frames_in_flight == 0;
  }
  EXPECT_TRUE(drained) << "in-flight encode stayed pinned after eviction";

  // The live, acking reader was untouched and still advances.
  const std::uint64_t seq_before = live.view().sequence();
  c.increment(0);
  ASSERT_TRUE(live.poll_frame(kFrameTimeout));
  EXPECT_GT(live.view().sequence(), seq_before);
  EXPECT_TRUE(live.connected());
  EXPECT_EQ(server.stats().clients_evicted_idle, 1u);
  ::close(stalled);
  server.stop();
}

TEST(SnapshotServer, EvictionDisabledKeepsStalledPeerOpen) {
  // ack_deadline_ticks = 0 restores the old contract: nobody is
  // disconnected for being slow (or even dead-quiet).
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 2ms;
  options.ack_deadline_ticks = 0;
  options.shm_enable = false;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  const int stalled = raw_connect(server.port());
  ASSERT_GE(stalled, 0);

  // Stall for far longer than the other test's deadline.
  for (int i = 0; i < 100; ++i) {
    c.increment(0);
    std::this_thread::sleep_for(2ms);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_evicted_idle, 0u);
  EXPECT_EQ(stats.clients_closed, 0u);
  ::close(stalled);
  server.stop();
}

TEST(SnapshotServer, GroupChurnWithSixtyFourStreamersResolvesCleanly) {
  // The RCU group-table pin: 64 streaming clients re-subscribe across
  // four filter families mid-stream, so groups are created, shared,
  // and erased concurrently with every I/O worker resolving
  // client→group lock-free under an epoch guard. A torn resolution
  // (a worker reading a half-built group, a freed selection, or a
  // stale tick after rebase) would surface as an off-subset sample in
  // a settled view; the epoch domain must also let every retired
  // table and tick drain, which the in-flight gauge checks at the end.
  constexpr unsigned kSubscribers = 64;
  constexpr int kRounds = 3;
  constexpr int kFramesPerRound = 5;
  constexpr int kFamilies = 4;
  shard::RegistryT<base::DirectBackend> registry(4);
  std::vector<shard::AnyCounter*> hot;
  for (int g = 0; g < kFamilies; ++g) {
    for (int c = 0; c < 2; ++c) {
      shard::AnyCounter& counter =
          registry.create("grp" + std::to_string(g) + "_c" + std::to_string(c),
                          {ErrorModel::kExact, 0, 2});
      if (c == 0) hot.push_back(&counter);
    }
  }
  ServerOptions options;
  options.period = 5ms;
  options.io_threads = 4;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread incrementer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (shard::AnyCounter* counter : hot) counter->increment(0);
      std::this_thread::sleep_for(1ms);
    }
  });

  std::atomic<unsigned> happy{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> subscribers;
  for (unsigned i = 0; i < kSubscribers; ++i) {
    subscribers.emplace_back([&, i] {
      TelemetryClient client;
      if (!client.connect(server.port())) return;
      for (int round = 0; round < kRounds; ++round) {
        const std::string prefix =
            "grp" + std::to_string((i + round) % kFamilies) + "_";
        SubscriptionFilter filter;
        filter.prefixes = {prefix};
        if (!client.subscribe(filter)) return;
        auto pure = [&] {
          for (const shard::Sample& sample : client.view().samples()) {
            if (!sample.name.starts_with(prefix)) return false;
          }
          return true;
        };
        // Phase 1: pump until the re-basing full for THIS filter lands
        // (a stale pre-subscribe full may clear the pending flag with
        // the old subset — that is ordering, not tearing).
        bool rebased = false;
        for (int p = 0; p < 600 && !rebased; ++p) {
          if (!client.poll_frame(kFrameTimeout)) return;
          rebased = !client.view().rebase_pending() &&
                    client.view().samples().size() == 2 && pure();
        }
        if (!rebased) return;
        // Phase 2: once settled on the subset, EVERY subsequent frame
        // must stay on it — an off-subset sample here is a torn
        // resolution in the lock-free worker path.
        for (int f = 0; f < kFramesPerRound; ++f) {
          if (!client.poll_frame(kFrameTimeout)) return;
          if (!pure() || client.view().samples().size() != 2) {
            torn.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
      if (client.connected()) happy.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : subscribers) t.join();
  stop.store(true, std::memory_order_release);
  incrementer.join();

  EXPECT_FALSE(torn.load()) << "a settled subscriber saw an off-subset frame";
  EXPECT_EQ(happy.load(), kSubscribers) << "a subscriber stalled or dropped";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.subscribes_received,
            static_cast<std::uint64_t>(kSubscribers) * kRounds);

  // Every client is gone; the one-in-flight refcounts they pinned must
  // drain to zero (the collector keeps ticking, which is what notices
  // the closed sockets and releases their frames).
  bool drained = false;
  for (int i = 0; i < 400 && !drained; ++i) {
    std::this_thread::sleep_for(5ms);
    drained = server.stats().frames_in_flight == 0;
  }
  EXPECT_TRUE(drained) << "in-flight frames leaked after group churn";
  server.stop();
}

// --- self-metrics: the `__sys/` rows -----------------------------------

/// The view's value for `name`, or nullopt while the name is absent.
std::optional<std::uint64_t> view_value(const MaterializedView& view,
                                        const std::string& name) {
  for (const shard::Sample& sample : view.samples()) {
    if (sample.name == name) return sample.value;
  }
  return std::nullopt;
}

/// A client subscribed to the `__sys/` subtree, its filtered full
/// applied.
void subscribe_sys(TelemetryClient& client, std::uint16_t port) {
  ASSERT_TRUE(client.connect(port));
  SubscriptionFilter filter;
  filter.prefixes = {"__sys/"};
  ASSERT_TRUE(client.subscribe(filter));
  for (int i = 0; i < 400 && client.view().rebase_pending(); ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  ASSERT_FALSE(client.view().rebase_pending());
}

TEST(SnapshotServer, SysRowsReachExactlyTheServersOwnCounts) {
  // One counter source: each `__sys/` event row is a view of the atomic
  // stats() reads, so a `__sys/` subscriber's view reaches exactly
  // stats(). The counts are odd on purpose: a batching row (k = 4
  // k-additive over three thread slots publishes a slot's events in
  // pairs) could stay one below for good.
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("fleet/c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.self_metrics = true;
  options.ack_deadline_ticks = 0;  // idle clients stay until closed
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());

  TelemetryClient sys;  // connect 1, SUBSCRIBE 1
  ASSERT_NO_FATAL_FAILURE(subscribe_sys(sys, server.port()));
  TelemetryClient others[4];  // connects 2–5
  for (TelemetryClient& client : others) {
    ASSERT_TRUE(client.connect(server.port()));
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  // SUBSCRIBEs 2 and 3: a re-based view means the server took the
  // record (the fleet-only table is not the pass-all table).
  SubscriptionFilter fleet;
  fleet.prefixes = {"fleet/"};
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(others[c].subscribe(fleet));
    for (int i = 0; i < 400 && others[c].view().rebase_pending(); ++i) {
      ASSERT_TRUE(others[c].poll_frame(kFrameTimeout));
    }
    ASSERT_FALSE(others[c].view().rebase_pending());
  }
  // The RESYNC: no table change happens here, so a new full means the
  // server took it.
  const std::uint64_t fulls = others[2].view().full_frames();
  ASSERT_TRUE(others[2].request_resync());
  for (int i = 0; i < 400 && others[2].view().full_frames() == fulls; ++i) {
    ASSERT_TRUE(others[2].poll_frame(kFrameTimeout));
  }
  ASSERT_GT(others[2].view().full_frames(), fulls);
  for (int c = 0; c < 3; ++c) others[c].close();  // closes 1–3

  const std::uint64_t accepted = 5;
  const std::uint64_t closed = 3;
  const std::uint64_t subscribes = 3;
  const std::uint64_t resyncs = 1;
  const auto row = [&](const char* name) {
    return view_value(sys.view(), std::string("__sys/server.") + name);
  };
  bool reached = false;
  for (int i = 0; i < 2000 && !reached; ++i) {
    ASSERT_TRUE(sys.poll_frame(kFrameTimeout));
    reached = row("clients_accepted") == accepted &&
              row("clients_closed") == closed &&
              row("subscribes_received") == subscribes &&
              row("resyncs_received") == resyncs;
  }
  EXPECT_TRUE(reached) << "accepted " << row("clients_accepted").value_or(0)
                       << " closed " << row("clients_closed").value_or(0)
                       << " subscribes "
                       << row("subscribes_received").value_or(0)
                       << " resyncs " << row("resyncs_received").value_or(0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.clients_accepted, accepted);
  EXPECT_EQ(stats.clients_closed, closed);
  EXPECT_EQ(stats.subscribes_received, subscribes);
  EXPECT_EQ(stats.resyncs_received, resyncs);
  server.stop();
}

TEST(SnapshotServer, SysRowsIgnoreWritesThroughRegistryHandles) {
  // A `__sys/` row is read-only: increment, record and update through
  // the registry's own lookups change nothing. The catalog is exactly
  // the 23 rows, each read from the server's instruments.
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("fleet/c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.self_metrics = true;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  server.stop();  // every instrument is quiescent from here on
  const ServerStats stats = server.stats();

  const std::vector<std::string> catalog = {
      "__sys/server.acks_received",
      "__sys/server.bytes_sent",
      "__sys/server.catchup_deltas_sent",
      "__sys/server.client.apply_lag_ns",
      "__sys/server.clients_accepted",
      "__sys/server.clients_closed",
      "__sys/server.clients_evicted",
      "__sys/server.collector_cpu_ns",
      "__sys/server.delta_frames_sent",
      "__sys/server.frames_coalesced",
      "__sys/server.frames_collected",
      "__sys/server.frames_in_flight",
      "__sys/server.full_frames_sent",
      "__sys/server.resyncs_received",
      "__sys/server.shm_accepts_received",
      "__sys/server.shm_frames_published",
      "__sys/server.shm_offers_sent",
      "__sys/server.subscribes_received",
      "__sys/server.tick.collect_ns",
      "__sys/server.tick.encode_ns",
      "__sys/server.tick.flush_ns",
      "__sys/server.ticks_overrun",
      "__sys/server.top_talkers",
  };
  std::vector<std::string> names;
  for (const shard::Sample& sample : registry.snapshot_all(0)) {
    if (shard::is_reserved_name(sample.name)) names.push_back(sample.name);
  }
  EXPECT_EQ(names, catalog);

  shard::AnyCounter* accepted =
      registry.lookup("__sys/server.clients_accepted");
  shard::AnyCounter* bytes = registry.lookup("__sys/server.bytes_sent");
  ASSERT_NE(accepted, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(accepted->error_model(), ErrorModel::kExact);
  EXPECT_EQ(accepted->read(0), stats.clients_accepted);
  EXPECT_EQ(bytes->read(1), stats.bytes_sent);
  for (int i = 0; i < 100; ++i) {
    accepted->increment(0);
    bytes->increment(1);
  }
  accepted->flush(0);
  bytes->flush(1);
  EXPECT_EQ(accepted->read(0), stats.clients_accepted);
  EXPECT_EQ(bytes->read(1), stats.bytes_sent);

  shard::AnyHistogram* collect =
      registry.lookup_histogram("__sys/server.tick.collect_ns");
  ASSERT_NE(collect, nullptr);
  std::vector<std::uint64_t> counts_before;
  std::vector<std::uint64_t> counts_after;
  collect->snapshot_into(0, counts_before);
  for (int i = 0; i < 100; ++i) collect->record(0, 5000);
  collect->flush(0);
  collect->snapshot_into(0, counts_after);
  EXPECT_EQ(counts_after, counts_before);

  shard::AnyTopK* talkers = registry.lookup_topk("__sys/server.top_talkers");
  ASSERT_NE(talkers, nullptr);
  std::vector<std::string> labels_before;
  std::vector<std::uint64_t> values_before;
  talkers->snapshot_into(labels_before, values_before);
  ASSERT_EQ(labels_before.size(), 1u);  // the one client's peer address
  EXPECT_EQ(values_before[0], stats.bytes_sent);
  EXPECT_FALSE(talkers->update(0, "spoof", std::uint64_t{1} << 40));
  EXPECT_FALSE(talkers->update(0, labels_before[0], std::uint64_t{1} << 40));
  std::vector<std::string> labels_after;
  std::vector<std::uint64_t> values_after;
  talkers->snapshot_into(labels_after, values_after);
  EXPECT_EQ(labels_after, labels_before);
  EXPECT_EQ(values_after, values_before);
}

TEST(SnapshotServer, RestartedServerRepointsTheSysRowsAtItsOwnCounts) {
  // Two servers in turn over one registry, the second with more I/O
  // threads. The rows the first installed must report the second's own
  // stats() — its counts start from zero, and its workers write only
  // into its own block (sized for its threads), never past the first's.
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("fleet/c", {ErrorModel::kExact, 0, 1});
  for (const unsigned io_threads : {1u, 4u}) {
    SCOPED_TRACE(io_threads);
    ServerOptions options;
    options.period = 5ms;
    options.io_threads = io_threads;
    options.self_metrics = true;
    options.ack_deadline_ticks = 0;
    SnapshotServer server(registry, 1, options);
    ASSERT_TRUE(server.start());
    // Connections are dealt round-robin, so every worker flushes frames
    // (bytes_sent, top_talkers) from its own thread slot.
    std::vector<TelemetryClient> clients(2 * io_threads);
    for (TelemetryClient& client : clients) {
      ASSERT_TRUE(client.connect(server.port()));
      ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    }
    TelemetryClient sys;
    ASSERT_NO_FATAL_FAILURE(subscribe_sys(sys, server.port()));
    const std::uint64_t accepted = 2 * io_threads + 1;
    bool reached = false;
    for (int i = 0; i < 2000 && !reached; ++i) {
      ASSERT_TRUE(sys.poll_frame(kFrameTimeout));
      reached = view_value(sys.view(), "__sys/server.clients_accepted") ==
                accepted;
    }
    EXPECT_TRUE(reached);
    EXPECT_EQ(server.stats().clients_accepted, accepted);
    for (TelemetryClient& client : clients) client.close();
    sys.close();
    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(registry.lookup("__sys/server.clients_accepted")->read(0),
              stats.clients_accepted);
    EXPECT_EQ(registry.lookup("__sys/server.bytes_sent")->read(0),
              stats.bytes_sent);
    EXPECT_EQ(registry.lookup("__sys/server.frames_collected")->read(0),
              stats.frames_collected);
  }
  EXPECT_EQ(registry.size(), 24u);  // the rows were re-pointed, not added
}

// --- the metricsz exchange ---------------------------------------------

bool send_all(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads `fd`'s data stream until a METRICSZ frame arrives, skipping the
/// FULL/DELTA frames the server streams around it, as tools/obs_dump
/// does. `buf` carries bytes past the page over to the next call. The
/// page's text and header sequence land in `text` and `seq`; false on
/// EOF, timeout or a malformed page.
bool read_metricsz(int fd, std::string& buf, std::string& text,
                   std::uint64_t& seq) {
  const auto deadline = std::chrono::steady_clock::now() + kFrameTimeout;
  char chunk[16 * 1024];
  while (true) {
    while (buf.size() >= kFramePrefixBytes) {
      const std::uint32_t len = read_u32le(buf.data());
      if (buf.size() < kFramePrefixBytes + len) break;
      const std::string payload = buf.substr(kFramePrefixBytes, len);
      buf.erase(0, kFramePrefixBytes + len);
      if (payload.size() < 4 ||
          static_cast<unsigned char>(payload[3]) !=
              static_cast<unsigned char>(FrameKind::kMetricsz)) {
        continue;
      }
      const char* cursor = payload.data() + 4;
      return read_uvarint(&cursor, payload.data() + payload.size(), seq) &&
             decode_metricsz(payload, text);
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left <= 0ms) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(SnapshotServer, MetricszRequestsAreAnsweredWithRenderedPages) {
  // The kind-7/kind-8 exchange over raw sockets: a METRICSZ_REQUEST is
  // answered on the data channel, between data frames, with the
  // `__sys/` rows and the trace ring's tail rendered as text — once per
  // request, and for a client in a filter group too.
  shard::RegistryT<base::DirectBackend> registry(2);
  registry.create("fleet/c", {ErrorModel::kExact, 0, 1});
  obs::TraceRing ring(256);
  ServerOptions options;
  options.period = 5ms;
  options.self_metrics = true;
  options.trace = &ring;
  options.ack_deadline_ticks = 0;  // the raw sockets never ack
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  TelemetryClient clients[2];
  for (TelemetryClient& client : clients) {
    ASSERT_TRUE(client.connect(server.port()));
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  // A page rendered from a tick collected after this one counts both
  // accepts.
  const std::uint64_t accepted_by = server.stats().frames_collected;
  for (int i = 0; i < 400 && server.stats().frames_collected <= accepted_by;
       ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_GT(server.stats().frames_collected, accepted_by);

  std::string request;
  encode_metricsz_request_record(request);
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, request));
  std::string buf;
  std::string page;
  std::uint64_t seq = 0;
  ASSERT_TRUE(read_metricsz(fd, buf, page, seq));
  EXPECT_GT(seq, accepted_by);
  const std::string row = "\napprox_sys_server_clients_accepted ";
  const std::size_t at = page.find(row);
  ASSERT_NE(at, std::string::npos) << page;
  EXPECT_GE(std::stoull(page.substr(at + row.size())), 2u) << page;
  EXPECT_NE(page.find("] client_connect a="), std::string::npos) << page;

  // A second request on the same socket gets a second page.
  ASSERT_TRUE(send_all(fd, request));
  std::string again;
  std::uint64_t again_seq = 0;
  ASSERT_TRUE(read_metricsz(fd, buf, again, again_seq));
  EXPECT_GE(again_seq, seq);
  EXPECT_NE(again.find(row), std::string::npos) << again;
  ::close(fd);

  // A socket in a filter group is answered too.
  const int sys = raw_connect(server.port());
  ASSERT_GE(sys, 0);
  SubscriptionFilter filter;
  filter.prefixes = {"__sys/"};
  std::string subscribe;
  ASSERT_TRUE(encode_subscribe_record(filter, subscribe));
  ASSERT_TRUE(send_all(sys, subscribe + request));
  std::string sys_buf;
  std::string sys_page;
  std::uint64_t sys_seq = 0;
  ASSERT_TRUE(read_metricsz(sys, sys_buf, sys_page, sys_seq));
  EXPECT_NE(sys_page.find(row), std::string::npos) << sys_page;
  ::close(sys);
  server.stop();
}

TEST(SnapshotServer, TopTalkersKeepTheirFirstPeersPastCapacity) {
  // More peers than top-talker rows: the first 16 keep their rows (rows
  // are never cleared or re-assigned) and keep counting, and the peers
  // past capacity are served as usual without a row.
  shard::RegistryT<base::DirectBackend> registry(2);
  shard::AnyCounter& counter =
      registry.create("fleet/c", {ErrorModel::kExact, 0, 1});
  ServerOptions options;
  options.period = 5ms;
  options.io_threads = 2;
  options.self_metrics = true;
  options.ack_deadline_ticks = 0;
  SnapshotServer server(registry, 1, options);
  ASSERT_TRUE(server.start());
  std::vector<TelemetryClient> clients(obs::kTopTalkerRows + 4);
  for (TelemetryClient& client : clients) {
    ASSERT_TRUE(client.connect(server.port()));
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  shard::AnyTopK* talkers = registry.lookup_topk("__sys/server.top_talkers");
  ASSERT_NE(talkers, nullptr);
  std::vector<std::string> labels_before;
  std::vector<std::uint64_t> values_before;
  talkers->snapshot_into(labels_before, values_before);
  ASSERT_EQ(labels_before.size(), obs::kTopTalkerRows);

  counter.increment(0);  // every peer is sent a frame carrying it
  for (TelemetryClient& client : clients) {
    for (int i = 0; i < 400 && view_value(client.view(), "fleet/c") != 1u;
         ++i) {
      ASSERT_TRUE(client.poll_frame(kFrameTimeout));
    }
    ASSERT_EQ(view_value(client.view(), "fleet/c"), 1u);
  }
  server.stop();
  std::vector<std::string> labels;
  std::vector<std::uint64_t> values;
  talkers->snapshot_into(labels, values);
  ASSERT_EQ(labels.size(), obs::kTopTalkerRows);
  std::vector<std::string> sorted_before = labels_before;
  std::vector<std::string> sorted_after = labels;
  std::sort(sorted_before.begin(), sorted_before.end());
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(sorted_after, sorted_before);
  EXPECT_EQ(std::adjacent_find(sorted_after.begin(), sorted_after.end()),
            sorted_after.end());  // one row per peer
  std::uint64_t listed = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto before = std::find(labels_before.begin(), labels_before.end(),
                                  labels[i]) -
                        labels_before.begin();
    EXPECT_GT(values[i], values_before[static_cast<std::size_t>(before)])
        << labels[i];  // still counting
    listed += values[i];
  }
  EXPECT_LT(listed, server.stats().bytes_sent);  // 4 peers have no row
}

}  // namespace
}  // namespace approx::svc
