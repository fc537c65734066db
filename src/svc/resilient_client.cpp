// resilient_client.cpp — reconnect state machine (see resilient_client.hpp).
#include "svc/resilient_client.hpp"

#include <algorithm>
#include <thread>

#include "obs/trace_ring.hpp"

namespace approx::svc {
namespace {

constexpr std::uint64_t kNsPerMs = 1'000'000ull;

std::uint64_t to_ns(std::chrono::milliseconds ms) {
  return static_cast<std::uint64_t>(ms.count()) * kNsPerMs;
}

}  // namespace

ResilientClient::ResilientClient(ResilientClientOptions options)
    : options_(std::move(options)), rng_(options_.seed ? options_.seed : 1) {
  if (!options_.now_ns) options_.now_ns = [] { return steady_now_ns(); };
  if (!options_.sleep_fn) {
    options_.sleep_fn = [](std::chrono::milliseconds d) {
      std::this_thread::sleep_for(d);
    };
  }
  if (options_.backoff_initial <= std::chrono::milliseconds::zero()) {
    options_.backoff_initial = std::chrono::milliseconds(1);
  }
  if (options_.backoff_cap < options_.backoff_initial) {
    options_.backoff_cap = options_.backoff_initial;
  }
  if (options_.backoff_multiplier < 1.0) options_.backoff_multiplier = 1.0;
  options_.jitter = std::clamp(options_.jitter, 0.0, 1.0);
  options_.filter.normalize();
  // The wrapped client shares the sink: its shm-overrun/demote/resync
  // events interleave with the supervisor's session ladder in order.
  client_.set_trace(options_.trace);
}

std::uint64_t ResilientClient::next_rand() {
  // xorshift64: tiny, seedable, plenty for decorrelating a fleet's
  // retry storms (this is scheduling, not cryptography).
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

std::chrono::milliseconds ResilientClient::take_backoff() {
  if (backoff_ms_ == 0) {
    // The immediate first (re-)dial; the NEXT failure starts the curve.
    backoff_ms_ = static_cast<std::uint64_t>(options_.backoff_initial.count());
    return std::chrono::milliseconds::zero();
  }
  const std::uint64_t cap =
      static_cast<std::uint64_t>(options_.backoff_cap.count());
  const std::uint64_t base = std::min(backoff_ms_, cap);
  // Advance the schedule (saturating at the cap) before jittering.
  const double next = static_cast<double>(base) * options_.backoff_multiplier;
  backoff_ms_ = next >= static_cast<double>(cap)
                    ? cap
                    : static_cast<std::uint64_t>(next);
  // Uniform in [(1−jitter)·base, base].
  const std::uint64_t floor = static_cast<std::uint64_t>(
      static_cast<double>(base) * (1.0 - options_.jitter));
  const std::uint64_t span = base - floor;
  const std::uint64_t delay =
      span == 0 ? base : floor + next_rand() % (span + 1);
  return std::chrono::milliseconds(static_cast<long long>(delay));
}

void ResilientClient::establish_session() {
  ++stats_.sessions_established;
  if (options_.trace != nullptr) {
    options_.trace->record(obs::TraceKind::kSessionEstablished,
                           stats_.sessions_established);
  }
  session_live_ = true;
  session_has_frame_ = false;
  last_activity_ns_ = now();
  // Replay the stream shape: the server knows nothing of the previous
  // socket. A selective filter re-SUBSCRIBEs (the re-basing filtered
  // full follows within a tick); the pass-all stream RESYNCs so the
  // fresh full is immediate rather than whenever the table changes.
  // (A brand-new subscriber gets a full anyway; the RESYNC makes the
  // intent explicit and costs one control record.)
  if (!options_.filter.pass_all()) {
    client_.subscribe(options_.filter);
  } else {
    client_.request_resync();
  }
  if (options_.use_shm) client_.request_shm();
}

void ResilientClient::close() {
  if (client_.connected() && session_live_) {
    ++stats_.disconnects;
    if (options_.trace != nullptr) {
      options_.trace->record(obs::TraceKind::kSessionLost,
                             stats_.sessions_established);
    }
  }
  session_live_ = false;
  client_.close();
  backoff_ms_ = 0;  // caller-driven drop: re-dial immediately
}

std::uint64_t ResilientClient::staleness_ns() const {
  if (last_frame_local_ns_ == 0) return 0;
  const std::uint64_t t = now();
  return t > last_frame_local_ns_ ? t - last_frame_local_ns_ : 0;
}

bool ResilientClient::poll_frame(std::chrono::milliseconds timeout) {
  const std::uint64_t start_ns = now();
  const std::uint64_t deadline_ns = start_ns + to_ns(timeout);
  while (true) {
    if (!client_.connected()) {
      if (session_live_) {
        // The session died underneath us (poll_frame closed it).
        session_live_ = false;
        ++stats_.disconnects;
        if (options_.trace != nullptr) {
          options_.trace->record(obs::TraceKind::kSessionLost,
                                 stats_.sessions_established);
        }
      }
      const std::chrono::milliseconds delay = take_backoff();
      if (delay.count() > 0) {
        stats_.last_backoff_ms = static_cast<std::uint64_t>(delay.count());
        stats_.total_backoff_ms += static_cast<std::uint64_t>(delay.count());
        if (options_.trace != nullptr) {
          options_.trace->record(obs::TraceKind::kBackoff,
                                 stats_.connect_attempts + 1,
                                 static_cast<std::uint64_t>(delay.count()));
        }
        options_.sleep_fn(delay);
      }
      ++stats_.connect_attempts;
      if (client_.connect(options_.port, options_.host)) {
        establish_session();
      } else {
        ++stats_.connect_failures;
      }
      // Deadline check AFTER the attempt: a zero-timeout call still
      // makes one dial, so a caller polling with 0 makes progress.
      if (now() >= deadline_ns && !client_.connected()) return false;
      continue;
    }
    const std::uint64_t now0 = now();
    if (now0 >= deadline_ns) return false;
    // Short slices keep the silence check live even while the inner
    // poll would happily block for the whole remaining timeout.
    const auto remaining = std::chrono::milliseconds(
        static_cast<long long>((deadline_ns - now0) / kNsPerMs) + 1);
    const auto slice = std::min(remaining, std::chrono::milliseconds(100));
    if (client_.poll_frame(slice)) {
      const std::uint64_t seq = client_.view().sequence();
      if (!session_has_frame_) {
        session_has_frame_ = true;
        backoff_ms_ = 0;  // a SERVING session clears the backoff slate
        // The outage's cost in server ticks: how far the stream moved
        // between the last frame of the previous session and the first
        // of this one. A restarted server's sequence space starts over
        // (seq ≤ last): that is a gap of unknown size, counted as 0 —
        // the view's rebase already healed the data.
        if (stats_.sessions_established > 1 && last_applied_seq_ != 0 &&
            seq > last_applied_seq_ + 1) {
          stats_.frames_gap += seq - last_applied_seq_ - 1;
        }
      }
      last_applied_seq_ = seq;
      last_frame_local_ns_ = now();
      last_activity_ns_ = last_frame_local_ns_;
      return true;
    }
    if (!client_.connected()) continue;  // died: the top re-dials
    if (options_.silence_deadline.count() > 0 &&
        now() - last_activity_ns_ >= to_ns(options_.silence_deadline)) {
      // Connected but mute past the deadline: blackholed middlebox,
      // frozen peer. TCP will not tell us; escalate to a re-dial.
      ++stats_.reconnects_after_silence;
      ++stats_.disconnects;
      if (options_.trace != nullptr) {
        options_.trace->record(obs::TraceKind::kSessionLost,
                               stats_.sessions_established);
      }
      session_live_ = false;
      client_.close();
      backoff_ms_ = 0;  // fresh dial immediately; curve restarts after
      continue;
    }
  }
}

}  // namespace approx::svc
