// Tests for the shared-memory snapshot ring transport
// (src/svc/shm.hpp + the server/client negotiation): a same-host
// client that SHM_REQUESTs moves its data path onto the seqlock ring
// — zero syscalls per frame, zero per-reader server work — while TCP
// stays up for control and recovery. Real /dev/shm segments, real
// sockets, real threads.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "shard/registry.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/shm.hpp"
#include "svc/wire.hpp"

namespace approx::svc {
namespace {

using namespace std::chrono_literals;
using shard::ErrorModel;

constexpr auto kFrameTimeout = 5s;

/// Pumps the client until shm_active() with at least `frames` ring
/// frames applied. False on timeout.
bool await_shm(TelemetryClient& client, std::uint64_t frames,
               int max_polls = 400) {
  for (int i = 0; i < max_polls; ++i) {
    if (!client.poll_frame(kFrameTimeout)) return false;
    if (client.shm_active() && client.shm_frames() >= frames) return true;
  }
  return false;
}

bool await_counter(TelemetryClient& client, const std::string& name,
                   std::uint64_t expected, int max_polls = 400) {
  for (int i = 0; i < max_polls; ++i) {
    if (!client.poll_frame(kFrameTimeout)) return false;
    for (const shard::Sample& sample : client.view().samples()) {
      if (sample.name == name && sample.value >= expected) return true;
    }
  }
  return false;
}

TEST(ShmRingSegment, CreatePublishOpenRoundtrip) {
  ShmRingWriter writer;
  ASSERT_TRUE(writer.create(/*slot_count=*/4, /*slot_payload_bytes=*/256));
  EXPECT_TRUE(writer.active());
  EXPECT_FALSE(writer.name().empty());
  EXPECT_EQ(writer.name().front(), '/');
  EXPECT_NE(writer.generation(), 0u);

  ShmRingReader reader;
  // Wrong generation must not attach (stale offer protection).
  EXPECT_FALSE(reader.open(writer.name(), writer.generation() + 1));
  ASSERT_TRUE(reader.open(writer.name(), writer.generation()));
  const std::string payload = "shm frame payload bytes";
  ASSERT_TRUE(writer.publish(payload));
  std::string out;
  ASSERT_EQ(reader.poll(out), base::RingPoll::kFrame);
  EXPECT_EQ(out, payload);

  // destroy() unlinks the name; the attached reader keeps its mapping
  // and can still drain already-published frames, but the name is gone.
  writer.destroy();
  EXPECT_FALSE(writer.active());
  ShmRingReader late;
  EXPECT_FALSE(late.open("/approx-ring-gone-0000000000000000", 1));
  EXPECT_EQ(reader.poll(out), base::RingPoll::kEmpty);
}

TEST(ShmTransport, NegotiationMovesDataPathOntoRing) {
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& hits = registry.create("hits", {ErrorModel::kExact, 0, 2});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));  // TCP full first
  ASSERT_TRUE(client.request_shm());
  ASSERT_TRUE(await_shm(client, 3));
  EXPECT_TRUE(client.shm_active());

  // Live values still flow — now off the ring.
  const std::uint64_t ring_frames_before = client.shm_frames();
  for (int i = 0; i < 20; ++i) hits.increment(0);
  EXPECT_TRUE(await_counter(client, "hits", 20));
  EXPECT_GT(client.shm_frames(), ring_frames_before);
  EXPECT_GT(client.last_latency_ns(), 0u);

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.shm_requests_received, 1u);
  EXPECT_GE(stats.shm_offers_sent, 1u);
  EXPECT_GE(stats.shm_accepts_received, 1u);
  EXPECT_GT(stats.shm_frames_published, 0u);
  EXPECT_EQ(stats.shm_publish_failures, 0u);
  server.stop();
}

TEST(ShmTransport, ShmViewMatchesTcpViewAtSameSequence) {
  shard::RegistryT<base::DirectBackend> registry(4);
  std::vector<shard::AnyCounter*> counters;
  for (int i = 0; i < 8; ++i) {
    counters.push_back(&registry.create("c" + std::to_string(i),
                                        {ErrorModel::kExact, 0, 2}));
  }
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient shm_client;
  TelemetryClient tcp_client;
  ASSERT_TRUE(shm_client.connect(server.port()));
  ASSERT_TRUE(tcp_client.connect(server.port()));
  ASSERT_TRUE(shm_client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(shm_client.request_shm());
  ASSERT_TRUE(await_shm(shm_client, 1));

  // Churn, then freeze the fleet so both clients can reach a quiesced
  // frame carrying identical values.
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      for (int n = 0; n <= round + static_cast<int>(i); ++n) {
        counters[i]->increment(0);
      }
    }
    ASSERT_TRUE(shm_client.poll_frame(kFrameTimeout));
    ASSERT_TRUE(tcp_client.poll_frame(kFrameTimeout));
  }
  const std::uint64_t final_c0 = 15;  // i=0 gets round+1 per round: Σ=15
  ASSERT_TRUE(await_counter(shm_client, "c0", final_c0));
  ASSERT_TRUE(await_counter(tcp_client, "c0", final_c0));

  // Pump both to the same (quiesced) tick sequence, then the two views
  // must be byte-equivalent: same table, same values, same staleness
  // metadata — the transport is invisible above TelemetryClient.
  for (int i = 0;
       i < 100 && shm_client.view().sequence() != tcp_client.view().sequence();
       ++i) {
    TelemetryClient& behind =
        shm_client.view().sequence() < tcp_client.view().sequence()
            ? shm_client
            : tcp_client;
    ASSERT_TRUE(behind.poll_frame(kFrameTimeout));
  }
  ASSERT_EQ(shm_client.view().sequence(), tcp_client.view().sequence());
  EXPECT_TRUE(shm_client.shm_active());
  EXPECT_FALSE(tcp_client.shm_active());
  const auto& a = shm_client.view().samples();
  const auto& b = tcp_client.view().samples();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].error_bound, b[i].error_bound);
  }
  EXPECT_EQ(shm_client.view().last_data_sequence(),
            tcp_client.view().last_data_sequence());
  server.stop();
}

TEST(ShmTransport, ParkedRingReaderOverrunsAndResyncsOverTcp) {
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 2});
  ServerOptions options;
  options.period = 5ms;
  options.shm_slots = 2;  // tiny ring: two ticks of parking lap it
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.request_shm());
  ASSERT_TRUE(await_shm(client, 1));

  // Park until the ring has published more than slot_count frames past
  // the reader, so it laps the reader. One more than that: the count is
  // bumped after the ring write, so the reader may already hold a frame
  // the count does not show yet.
  const std::uint64_t parked_at = server.stats().shm_frames_published;
  const auto deadline = std::chrono::steady_clock::now() + kFrameTimeout;
  while (server.stats().shm_frames_published <=
             parked_at + options.shm_slots + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  c.increment(0);
  EXPECT_TRUE(await_counter(client, "c", 1));
  EXPECT_GE(client.shm_overruns(), 1u);
  EXPECT_TRUE(client.shm_active());  // ring survives as the data path
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.resyncs_received, 1u);
  server.stop();
}

TEST(ShmTransport, ShmDisabledServerNeverOffersClientStaysOnTcp) {
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 2});
  c.increment(0);
  ServerOptions options;
  options.period = 5ms;
  options.shm_enable = false;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.request_shm());
  // Frames keep flowing over TCP; no offer ever arrives.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  }
  EXPECT_FALSE(client.shm_active());
  EXPECT_EQ(client.shm_frames(), 0u);
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.shm_requests_received, 1u);
  EXPECT_EQ(stats.shm_offers_sent, 0u);
  EXPECT_EQ(stats.shm_frames_published, 0u);
  server.stop();
}

TEST(ShmTransport, SubscribeDetachesRingAndRebasesOntoFilteredTcp) {
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& keep =
      registry.create("keep/a", {ErrorModel::kExact, 0, 2});
  registry.create("drop/b", {ErrorModel::kExact, 0, 2});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.request_shm());
  ASSERT_TRUE(await_shm(client, 2));

  SubscriptionFilter filter;
  filter.prefixes.push_back("keep/");
  ASSERT_TRUE(client.subscribe(filter));
  EXPECT_FALSE(client.shm_active());  // detached immediately
  keep.increment(0);
  ASSERT_TRUE(await_counter(client, "keep/a", 1));
  EXPECT_FALSE(client.view().rebase_pending());
  ASSERT_EQ(client.view().samples().size(), 1u);
  EXPECT_EQ(client.view().samples()[0].name, "keep/a");
  // Post-subscribe frames are TCP frames; the ring counters froze.
  const std::uint64_t ring_frames = client.shm_frames();
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  EXPECT_EQ(client.shm_frames(), ring_frames);
  EXPECT_FALSE(client.shm_active());
  server.stop();
}

TEST(ShmTransport, DeadRingWriterDemotesClientToTcp) {
  // The satellite-2 regression: a writer that DIES (SIGSTOP, kill -9)
  // leaves the ring's generation AND head frozen — RingPoll::kDead
  // never fires (that needs a generation CHANGE), the doorbell just
  // times out forever, and the old client spun there indistinguishable
  // from a quiet fleet. The dead-writer probe must demote it to TCP
  // within the ring-idle deadline while the TCP session stays usable.
  //
  // A real SnapshotServer cannot freeze its collector alone, so the
  // test IS the server: it owns the listening socket and the ring
  // writer, hand-encoding the offer and the frames — and then simply
  // stops publishing.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  ShmRingWriter writer;
  ASSERT_TRUE(writer.create(/*slot_count=*/8, /*slot_payload_bytes=*/4096));

  TelemetryClient client;
  client.set_ring_idle_deadline(100ms);
  ASSERT_TRUE(client.connect(port));
  const int peer = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  ASSERT_TRUE(client.request_shm());

  // Hand the client the offer on its data channel (inbound control
  // records — the request, the eventual ACCEPT and RESYNC — are left
  // in the kernel buffer; this fake server never reads).
  ShmOffer offer;
  offer.name = writer.name();
  offer.generation = writer.generation();
  offer.slot_count = writer.slot_count();
  offer.slot_payload_bytes = writer.slot_payload_bytes();
  std::string offer_frame;
  ASSERT_TRUE(encode_shm_offer_frame(offer, offer_frame));
  ASSERT_EQ(::send(peer, offer_frame.data(), offer_frame.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(offer_frame.size()));

  // Publish fulls until the client has adopted the ring and applied a
  // frame off it (adoption skips to the head, so frames published
  // before it land are skipped — keep publishing until one sticks).
  shard::TelemetryFrame frame;
  frame.registry_version = 1;
  frame.samples.emplace_back();
  frame.samples[0].name = "c";
  std::string encoded;
  std::uint64_t seq = 0;
  bool ring_live = false;
  for (int i = 0; i < 200 && !ring_live; ++i) {
    frame.sequence = ++seq;
    frame.samples[0].value = seq;
    encode_full_frame(frame, steady_now_ns(), encoded);
    ASSERT_TRUE(writer.publish(
        std::string_view(encoded).substr(kFramePrefixBytes)));
    if (client.poll_frame(50ms)) {
      ring_live = client.shm_active() && client.shm_frames() >= 1;
    }
  }
  ASSERT_TRUE(ring_live);
  EXPECT_EQ(client.shm_demotions(), 0u);

  // The writer now goes silent — from the reader's side exactly a
  // SIGSTOP'd server: generation frozen, head frozen, doorbell mute.
  bool demoted = false;
  for (int i = 0; i < 100 && !demoted; ++i) {
    client.poll_frame(50ms);
    demoted = !client.shm_active();
  }
  EXPECT_TRUE(demoted) << "client spun on the dead ring";
  EXPECT_EQ(client.shm_demotions(), 1u);
  EXPECT_TRUE(client.connected()) << "demotion must keep the TCP session";

  // The TCP rung works: a newer full over the socket applies cleanly.
  frame.sequence = ++seq;
  frame.samples[0].value = 1234;
  encode_full_frame(frame, steady_now_ns(), encoded);
  ASSERT_EQ(::send(peer, encoded.data(), encoded.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(encoded.size()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_EQ(client.view().samples().size(), 1u);
  EXPECT_EQ(client.view().samples()[0].value, 1234u);
  EXPECT_FALSE(client.shm_active());
  ::close(peer);
  ::close(listen_fd);
}

TEST(ShmTransport, ServerStopSurfacesAsCleanDisconnect) {
  shard::RegistryT<base::DirectBackend> registry(4);
  registry.create("c", {ErrorModel::kExact, 0, 2});
  ServerOptions options;
  options.period = 5ms;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());

  TelemetryClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.poll_frame(kFrameTimeout));
  ASSERT_TRUE(client.request_shm());
  ASSERT_TRUE(await_shm(client, 1));
  server.stop();
  // The ring stops filling and TCP EOFs: poll_frame winds down false
  // instead of hanging or crashing on the unlinked segment.
  while (client.poll_frame(100ms)) {
  }
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.shm_active());
}

}  // namespace
}  // namespace approx::svc
