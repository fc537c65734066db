// Tests for the ResilientClient supervisor (src/svc/resilient_client.hpp):
// the backoff schedule pinned deterministically through the injectable
// clock/sleep, and cross-session continuity (sessions, gaps, staleness
// that keeps ticking through an outage) against a real server bounce.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "shard/registry.hpp"
#include "svc/resilient_client.hpp"
#include "svc/server.hpp"

namespace approx::svc {
namespace {

using namespace std::chrono_literals;
using shard::ErrorModel;

constexpr auto kFrameTimeout = 5s;

/// A loopback port with nothing listening: bind ephemeral, note, close.
/// Connects to it fail fast (ECONNREFUSED), which is what the backoff
/// tests need — every attempt is instant, only the SLEEPS carry time.
std::uint16_t closed_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// Runs a ResilientClient against a dead port under a fake clock until
/// `attempts` dials happened; returns the recorded backoff sleeps (ms).
std::vector<std::uint64_t> record_backoffs(std::uint64_t seed,
                                           std::uint64_t attempts) {
  std::uint64_t fake_ns = 1;  // the injected steady clock
  std::vector<std::uint64_t> sleeps;
  ResilientClientOptions options;
  options.port = closed_port();
  options.backoff_initial = 50ms;
  options.backoff_cap = 2000ms;
  options.backoff_multiplier = 2.0;
  options.jitter = 0.5;
  options.seed = seed;
  options.now_ns = [&fake_ns] { return fake_ns; };
  options.sleep_fn = [&](std::chrono::milliseconds d) {
    sleeps.push_back(static_cast<std::uint64_t>(d.count()));
    fake_ns += static_cast<std::uint64_t>(d.count()) * 1'000'000ull;
  };
  ResilientClient rc(options);
  while (rc.stats().connect_attempts < attempts) {
    // Zero-timeout polls each make exactly one dial (sleeping out the
    // owed backoff first), so the schedule is stepped deterministically.
    EXPECT_FALSE(rc.poll_frame(0ms));
  }
  EXPECT_EQ(rc.stats().connect_failures, attempts);
  EXPECT_EQ(rc.stats().sessions_established, 0u);
  std::uint64_t slept = 0;
  for (std::uint64_t s : sleeps) slept += s;
  EXPECT_EQ(rc.stats().total_backoff_ms, slept);
  return sleeps;
}

TEST(ResilientClient, BackoffIsJitteredCappedExponentialAndSeeded) {
  const std::vector<std::uint64_t> sleeps = record_backoffs(/*seed=*/7, 12);
  // First dial is immediate: 12 attempts → 11 backed-off ones.
  ASSERT_EQ(sleeps.size(), 11u);
  // Each delay k lies in [(1−jitter)·base, base] for the un-jittered
  // base 50·2^k capped at 2000.
  std::uint64_t base = 50;
  for (std::size_t k = 0; k < sleeps.size(); ++k) {
    EXPECT_GE(sleeps[k], base - base / 2) << "delay " << k;
    EXPECT_LE(sleeps[k], base) << "delay " << k;
    base = std::min<std::uint64_t>(base * 2, 2000);
  }
  // The cap holds forever after.
  EXPECT_LE(sleeps.back(), 2000u);

  // Same seed → the identical schedule; a different seed decorrelates
  // (11 draws over spans ≥ 26 values: a full collision is ~impossible).
  EXPECT_EQ(record_backoffs(7, 12), sleeps);
  EXPECT_NE(record_backoffs(8, 12), sleeps);
}

TEST(ResilientClient, ZeroJitterIsTheExactExponential) {
  std::uint64_t fake_ns = 1;
  std::vector<std::uint64_t> sleeps;
  ResilientClientOptions options;
  options.port = closed_port();
  options.backoff_initial = 10ms;
  options.backoff_cap = 80ms;
  options.jitter = 0.0;
  options.now_ns = [&fake_ns] { return fake_ns; };
  options.sleep_fn = [&](std::chrono::milliseconds d) {
    sleeps.push_back(static_cast<std::uint64_t>(d.count()));
    fake_ns += static_cast<std::uint64_t>(d.count()) * 1'000'000ull;
  };
  ResilientClient rc(options);
  while (rc.stats().connect_attempts < 7) {
    EXPECT_FALSE(rc.poll_frame(0ms));
  }
  EXPECT_EQ(sleeps, (std::vector<std::uint64_t>{10, 20, 40, 80, 80, 80}));
}

TEST(ResilientClient, ReconnectsAcrossServerBounceAndStalenessKeepsTicking) {
  shard::RegistryT<base::DirectBackend> registry(4);
  shard::AnyCounter& c = registry.create("c", {ErrorModel::kExact, 0, 2});
  c.increment(0);
  ServerOptions options;
  options.period = 5ms;
  options.shm_enable = false;
  SnapshotServer server(registry, 3, options);
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.port();

  std::uint64_t fake_ns = 1'000'000'000ull;  // t = 1 s on the fake clock
  ResilientClientOptions rc_options;
  rc_options.port = port;
  rc_options.backoff_initial = 1ms;
  rc_options.backoff_cap = 20ms;
  rc_options.silence_deadline = 0ms;  // not under test here
  rc_options.now_ns = [&fake_ns] { return fake_ns; };
  rc_options.sleep_fn = [&fake_ns](std::chrono::milliseconds d) {
    fake_ns += static_cast<std::uint64_t>(d.count()) * 1'000'000ull;
  };
  ResilientClient rc(rc_options);

  ASSERT_TRUE(rc.poll_frame(kFrameTimeout));
  EXPECT_EQ(rc.stats().sessions_established, 1u);
  EXPECT_EQ(rc.staleness_ns(), 0u);  // frame time == fake now

  // Outage. The staleness clock keeps ticking against the LAST frame —
  // it does not reset with the session or the view.
  server.stop();
  // A frame the server wrote before it stopped can still sit in the
  // socket buffer, and the next poll would apply it. Drain until the
  // session drops (bounded: each poll applies a buffered frame or ends
  // the session), so the outage starts from a dead session.
  for (int i = 0; i < 64 && rc.connected(); ++i) (void)rc.poll_frame(100ms);
  ASSERT_FALSE(rc.connected());
  fake_ns += 5'000'000'000ull;  // 5 s of outage on the fake clock
  EXPECT_GE(rc.staleness_ns(), 5'000'000'000ull);
  // Re-dials fail and back off until the (fake-clock) timeout runs out.
  EXPECT_FALSE(rc.poll_frame(100ms));
  EXPECT_GE(rc.stats().connect_failures, 1u);
  EXPECT_GE(rc.stats().disconnects, 1u);
  EXPECT_GE(rc.staleness_ns(), 5'000'000'000ull);

  // Server comes back on the SAME port (a restart, not a new service).
  ServerOptions restart = options;
  restart.port = port;
  shard::RegistryT<base::DirectBackend> registry2(4);
  shard::AnyCounter& c2 = registry2.create("c", {ErrorModel::kExact, 0, 2});
  for (int i = 0; i < 7; ++i) c2.increment(0);
  SnapshotServer server2(registry2, 3, restart);
  ASSERT_TRUE(server2.start());

  ASSERT_TRUE(rc.poll_frame(kFrameTimeout));
  EXPECT_EQ(rc.stats().sessions_established, 2u);
  EXPECT_EQ(rc.staleness_ns(), 0u);  // fresh frame: stale no more
  ASSERT_EQ(rc.view().samples().size(), 1u);
  EXPECT_EQ(rc.view().samples()[0].value, 7u);
  EXPECT_TRUE(rc.connected());
  server2.stop();
}

}  // namespace
}  // namespace approx::svc
