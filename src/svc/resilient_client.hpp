// resilient_client.hpp — ResilientClient: a self-healing TelemetryClient.
//
// The supervisor rung of the degradation ladder (shm → TCP →
// backoff-reconnect). TelemetryClient deliberately owns exactly one
// session: a dead socket closes it and poll_frame() returns false
// forever after. ResilientClient wraps one TelemetryClient with the
// reconnect state machine deployment needs:
//
//   * jittered exponential backoff between connect attempts — seeded
//     (deterministic in tests, decorrelated across a dashboard fleet in
//     production), multiplier/cap configurable, clock and sleep
//     injectable so the whole schedule is unit-testable without real
//     waiting;
//   * session replay — each new session re-asserts the configured
//     SUBSCRIBE filter (or RESYNCs the unfiltered stream) and
//     re-negotiates the shm ring when asked, so a bounce of the server
//     restores the exact pre-outage stream shape without caller code;
//   * continuity accounting — sessions_established, frames_gap (ticks
//     the outage cost, summed across reconnects), and a staleness clock
//     that keeps ticking through the outage instead of resetting with
//     the view: staleness_ns() answers "how old is what I am looking
//     at" regardless of how many sessions it took to get it;
//   * silence escalation — a session that stays connected but delivers
//     nothing for silence_deadline (blackholed by a middlebox, frozen
//     peer) is dropped and re-dialed; TCP liveness alone is not
//     stream liveness.
//
// The view resets per session by design (a restarted server's name
// table and sequence space owe the old ones nothing); continuity is
// the SUPERVISOR's job, carried in ClientStats and the staleness
// clock, not by stitching incompatible tables together.
//
// Single-threaded like TelemetryClient: one owner calls poll_frame in
// a loop; there is no background thread. poll_frame() never blocks
// past its timeout (connect attempts and backoff sleeps are bounded by
// it too, through the injectable sleep).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "svc/client.hpp"
#include "svc/wire.hpp"

namespace approx::obs {
class TraceRing;
}  // namespace approx::obs

namespace approx::svc {

struct ResilientClientOptions {
  std::uint16_t port = 0;
  std::string host = "127.0.0.1";
  /// Replayed (as SUBSCRIBE) at the start of every session; a pass-all
  /// filter replays as a RESYNC instead (fresh full within one tick).
  SubscriptionFilter filter;
  /// Re-negotiate the shm ring (SHM_REQUEST) each session.
  bool use_shm = false;
  /// Backoff schedule: the first re-dial after a disconnect is
  /// immediate; the k-th failed attempt then waits
  /// jitter([initial · multiplier^(k-1)] capped at backoff_cap), with
  /// jitter(d) uniform in [(1−jitter)·d, d]. Backoff resets once a
  /// session APPLIES a frame (an accept-then-die server keeps backing
  /// off; a serving one clears the slate).
  std::chrono::milliseconds backoff_initial{50};
  std::chrono::milliseconds backoff_cap{2000};
  double backoff_multiplier = 2.0;
  double jitter = 0.5;  // 0 = deterministic full delay
  std::uint64_t seed = 1;  // jitter PRNG seed (xorshift64; never 0)
  /// A connected session that APPLIES nothing for this long is dropped
  /// and re-dialed (ClientStats::reconnects_after_silence). 0 = never:
  /// trust TCP liveness alone.
  std::chrono::milliseconds silence_deadline{10000};
  /// Injectable steady clock (ns) and sleep — tests pin the backoff
  /// schedule and the staleness arithmetic without real waiting.
  /// Defaults: steady_now_ns / std::this_thread::sleep_for.
  std::function<std::uint64_t()> now_ns;
  std::function<void(std::chrono::milliseconds)> sleep_fn;
  /// Optional structured-event sink: the reconnect ladder records
  /// session_lost / backoff / session_established transitions (and the
  /// wrapped client's shm/resync events) into this ring as they happen.
  /// Must outlive the client; nullptr disables. Chaos tests drain it
  /// to assert the exact recovery sequence an outage produced.
  obs::TraceRing* trace = nullptr;
};

/// Monotonic counters over the supervisor's whole life (all sessions).
struct ClientStats {
  std::uint64_t sessions_established = 0;  // successful connects
  std::uint64_t connect_attempts = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;  // sessions that died after establishing
  /// Server ticks the outages cost: Σ over reconnects of the sequence
  /// gap between the last frame of session N and the first of session
  /// N+1 (0 when the server restarted and its sequence space reset).
  std::uint64_t frames_gap = 0;
  /// Mirror of TelemetryClient::shm_demotions (the shm→TCP rung).
  std::uint64_t shm_demotions = 0;
  std::uint64_t reconnects_after_silence = 0;
  std::uint64_t last_backoff_ms = 0;
  std::uint64_t total_backoff_ms = 0;
};

class ResilientClient {
 public:
  explicit ResilientClient(ResilientClientOptions options);

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// Blocks until one frame applies to the view or `timeout` elapses —
  /// dialing, backing off, replaying the subscription and escalating
  /// silent sessions as needed along the way. False only on timeout:
  /// there is no terminal failure state, the next call keeps trying.
  bool poll_frame(std::chrono::milliseconds timeout);

  /// The current session's view. Reset by each reconnect (see header
  /// comment); cross-session continuity lives in stats() and
  /// staleness_ns().
  [[nodiscard]] const MaterializedView& view() const noexcept {
    return client_.view();
  }

  /// The wrapped single-session client (per-session byte/frame
  /// counters, shm state).
  [[nodiscard]] const TelemetryClient& client() const noexcept {
    return client_;
  }

  [[nodiscard]] bool connected() const noexcept {
    return client_.connected();
  }
  [[nodiscard]] bool shm_active() const noexcept {
    return client_.shm_active();
  }

  [[nodiscard]] ClientStats stats() const noexcept {
    ClientStats out = stats_;
    out.shm_demotions = client_.shm_demotions();
    return out;
  }

  /// Age (ns, by the injected clock) of the newest frame ever applied
  /// — across every session, so an outage shows as monotonically
  /// growing staleness rather than a reset. 0 until the first frame.
  [[nodiscard]] std::uint64_t staleness_ns() const;

  /// Drops the current session (the next poll_frame re-dials with a
  /// fresh backoff slate). Stats survive.
  void close();

 private:
  std::uint64_t now() const { return options_.now_ns(); }
  std::uint64_t next_rand();
  /// The jittered delay owed before the next connect attempt, and the
  /// schedule advance.
  std::chrono::milliseconds take_backoff();
  void establish_session();

  ResilientClientOptions options_;
  TelemetryClient client_;
  ClientStats stats_;
  std::uint64_t rng_;
  /// Next un-jittered delay (ms); 0 = the immediate first re-dial.
  std::uint64_t backoff_ms_ = 0;
  bool session_live_ = false;      // established and not yet seen dead
  bool session_has_frame_ = false; // a frame applied this session
  std::uint64_t last_applied_seq_ = 0;  // newest seq ever applied
  std::uint64_t last_frame_local_ns_ = 0;  // when (injected clock)
  std::uint64_t last_activity_ns_ = 0;  // silence-deadline basis
};

}  // namespace approx::svc
