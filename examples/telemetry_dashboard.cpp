// telemetry_dashboard — the service layer's consumer half: subscribe to
// a running telemetry_service, decode the full+delta stream into a
// materialized view, and render it with its staleness metadata.
//
//   $ ./build/examples/telemetry_dashboard --port=N [--frames=K]
//       [--prefix=P] [--stall-ms=M] [--shm] [--sys]
//       [--reconnect [--expect-sessions=N]]
//
// --sys turns the dashboard on the server itself: it subscribes with
// the reserved "__sys/" prefix (the server's self-metrics subtree,
// present when the service runs with self_metrics on), renders every
// internal it decodes, and asserts the pipeline-timing histogram
// "__sys/server.tick.collect_ns" carries a usable p99 — printing
// "sys OK p99_collect_ns<=<ns>" on success. No new wire machinery:
// the internals ride the same prefix filter as any user subset,
// which is the point the CI probe pins down.
//
// --reconnect swaps the single-session TelemetryClient for the
// ResilientClient supervisor: the dashboard keeps polling through
// server crashes, re-dialing with jittered backoff and replaying its
// --prefix subscription each new session. It exits 0 only once at
// least --expect-sessions sessions were established AND the CURRENT
// session has applied --frames frames — so `--expect-sessions=2`
// proves the dashboard outlived a server bounce, not merely started.
// On success it prints "sessions=<n> frames_gap=<g> reconnect OK"
// after the usual marker/histogram assertions (the CI chaos-smoke
// greps for all three). --dump-trace additionally attaches a trace
// ring to the supervisor and prints the recorded resilience ladder
// (connect → lost → backoff → reconnect) to stderr on exit, success
// or failure — the chaos-smoke job uploads those logs as the
// post-mortem artifact when a dashboard does not survive the bounce.
//
// --prefix=P subscribes with a prefix filter: the server then
// streams only counters named P*, and the view's table IS that subset.
// --stall-ms=M demonstrates client-driven recovery: after the first
// frame the dashboard goes silent for M ms (the server coalesces the
// missed ticks), then issues request_resync() and requires a fresh FULL
// frame to arrive — printing "resync full OK" when it does.
// --shm asks a same-host server for its shared-memory snapshot
// ring and requires the data path to actually move onto it (at least
// one frame applied off the ring) — printing "transport: shm" once it
// has. The view and every assertion below are transport-agnostic;
// that is the point.
//
// Exits 0 only if K frames were decoded, the "startup_marker" counter
// decodes to exactly 42 whenever the subscription includes it (the
// ground truth the server planted before serving), the
// "startup_latency_hist" vector entry decodes to its known p50/p99
// buckets whenever included (printing "hist_p99 OK"), and — with
// --stall-ms — the resync produced its full. This makes the binary
// double as the CI smoke assertion over real sockets and (with --shm)
// over the shared-memory ring.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace_ring.hpp"
#include "shard/registry.hpp"
#include "stats/quantile.hpp"
#include "svc/client.hpp"
#include "svc/resilient_client.hpp"

namespace {

constexpr std::uint64_t kExpectedMarker = 42;

const char* model_tag(approx::shard::ErrorModel model) {
  return approx::shard::error_model_name(model);
}

// True when the subscription prefix covers `name` (empty = everything).
bool covered(const std::string& prefix, std::string_view name) {
  return prefix.empty() || name.substr(0, prefix.size()) == prefix;
}

// Renders the view and runs the ground-truth assertions (startup_marker
// decodes to 42, startup_latency_hist to its planted quantiles, no
// filter leaks). Returns the process exit code; shared by the
// single-session and --reconnect paths — the contract is the same no
// matter how many sessions it took to get the view.
int render_and_assert(const approx::svc::MaterializedView& view,
                      const approx::svc::TelemetryClient& client,
                      const std::string& prefix) {
  using namespace approx;
  std::cout << "frame seq " << view.sequence() << " ("
            << view.full_frames() << " full + " << view.delta_frames()
            << " delta frames, " << client.bytes_received()
            << " bytes, last latency "
            << client.last_latency_ns() / 1000 << " us)";
  if (!prefix.empty()) {
    std::cout << " [subset: " << prefix << "*, " << view.samples().size()
              << " counters]";
  }
  std::cout << "\n\n"
            << std::left << std::setw(16) << "counter" << std::right
            << std::setw(12) << "value" << std::setw(8) << "model"
            << std::setw(12) << "bound" << std::setw(10) << "age\n";
  bool marker_seen = false;
  bool marker_ok = false;
  bool hist_seen = false;
  bool hist_ok = false;
  for (std::size_t i = 0; i < view.samples().size(); ++i) {
    const shard::Sample& sample = view.samples()[i];
    // Frames are self-describing; staleness is per counter: "age" is
    // how many frames ago this value last moved.
    std::cout << std::left << std::setw(16) << sample.name << std::right
              << std::setw(12) << sample.value << std::setw(8)
              << model_tag(sample.model) << std::setw(12)
              << sample.error_bound << std::setw(9)
              << view.sequence() - view.entry_update_seq()[i] << "\n";
    if (sample.model == shard::ErrorModel::kHistogram) {
      // Vector entry: derive rank-error-bounded quantiles straight from
      // the decoded bucket counts — same math, other side of the wire.
      const stats::QuantileView quantiles(sample);
      if (quantiles.valid()) {
        const stats::QuantileEstimate p50 = quantiles.p50();
        const stats::QuantileEstimate p99 = quantiles.p99();
        std::cout << "    p50 in (" << p50.lower_edge << ", "
                  << p50.upper_edge << "]  p99 in (" << p99.lower_edge
                  << ", " << p99.upper_edge << "]  (N=" << quantiles.total()
                  << ", rank err <= " << quantiles.rank_error_bound()
                  << ", " << quantiles.num_buckets() << " buckets)\n";
      } else {
        std::cout << "    (histogram entry with no decodable buckets)\n";
      }
      if (sample.name == "startup_latency_hist") {
        hist_seen = true;
        // Planted by the server: values 1..1000, flushed, quiescent —
        // counts {10,90,400,500,0}, so p50 in (100,500], p99 in
        // (500,1000], with per-bucket slack 16 (k=16, one shard).
        hist_ok = quantiles.valid() && sample.value == 1000 &&
                  quantiles.p50().lower_edge == 100 &&
                  quantiles.p50().upper_edge == 500 &&
                  quantiles.p99().lower_edge == 500 &&
                  quantiles.p99().upper_edge == 1000 &&
                  sample.error_bound == 16;
      }
    }
    if (sample.name == "startup_marker") {
      marker_seen = true;
      marker_ok = sample.value == kExpectedMarker &&
                  sample.model == shard::ErrorModel::kExact;
    }
  }
  // The marker must decode correctly whenever the subscription covers
  // it; a filtered view that excludes it has nothing to assert.
  const bool marker_expected = covered(prefix, "startup_marker");
  if (marker_expected && !(marker_seen && marker_ok)) {
    std::cerr << "\nstartup_marker != " << kExpectedMarker
              << ": decoded state disagrees with the server\n";
    return 1;
  }
  if (!marker_expected && marker_seen) {
    std::cerr << "\nfilter leak: startup_marker is outside --prefix="
              << prefix << " but was streamed anyway\n";
    return 1;
  }
  // Same contract for the planted histogram: whenever the subscription
  // covers it, its decoded quantiles must match the known plant.
  const bool hist_expected = covered(prefix, "startup_latency_hist");
  if (hist_expected && !(hist_seen && hist_ok)) {
    std::cerr << "\nstartup_latency_hist quantiles disagree with the"
                 " planted distribution\n";
    return 1;
  }
  if (!hist_expected && hist_seen) {
    std::cerr << "\nfilter leak: startup_latency_hist is outside --prefix="
              << prefix << " but was streamed anyway\n";
    return 1;
  }
  if (hist_expected) std::cout << "hist_p99 OK\n";
  if (marker_expected) {
    std::cout << "\nstartup_marker=" << kExpectedMarker << " OK\n";
  } else {
    std::cout << "\nsubset of " << view.samples().size()
              << " counters OK (marker outside filter)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace approx;
  std::uint16_t port = 0;
  int frames = 5;
  std::string prefix;
  std::uint64_t stall_ms = 0;
  bool use_shm = false;
  bool reconnect = false;
  bool dump_trace = false;
  bool sys = false;
  std::uint64_t expect_sessions = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      port = static_cast<std::uint16_t>(
          std::strtoul(arg.data() + 7, nullptr, 10));
    } else if (arg.rfind("--frames=", 0) == 0) {
      frames = std::atoi(arg.data() + 9);
    } else if (arg.rfind("--prefix=", 0) == 0) {
      prefix = std::string(arg.substr(9));
    } else if (arg.rfind("--stall-ms=", 0) == 0) {
      stall_ms = std::strtoull(arg.data() + 11, nullptr, 10);
    } else if (arg == "--shm") {
      use_shm = true;
    } else if (arg == "--reconnect") {
      reconnect = true;
    } else if (arg == "--dump-trace") {
      dump_trace = true;
    } else if (arg == "--sys") {
      sys = true;
    } else if (arg.rfind("--expect-sessions=", 0) == 0) {
      expect_sessions = std::strtoull(arg.data() + 18, nullptr, 10);
    } else {
      std::cerr << "usage: telemetry_dashboard --port=N [--frames=K]"
                   " [--prefix=P] [--stall-ms=M] [--shm] [--sys]"
                   " [--reconnect [--expect-sessions=N] [--dump-trace]]\n";
      return 2;
    }
  }
  if (port == 0) {
    std::cerr << "telemetry_dashboard: --port is required\n";
    return 2;
  }
  if (reconnect && (use_shm || stall_ms != 0 || sys)) {
    std::cerr << "telemetry_dashboard: --reconnect composes with --prefix"
                 " and --frames only\n";
    return 2;
  }
  if (sys && (use_shm || stall_ms != 0 || !prefix.empty())) {
    std::cerr << "telemetry_dashboard: --sys composes with --frames only\n";
    return 2;
  }
  if (dump_trace && !reconnect) {
    std::cerr << "telemetry_dashboard: --dump-trace requires --reconnect\n";
    return 2;
  }

  if (reconnect) {
    // Supervised path: keep polling through crashes until the session
    // count AND the current session's frame count both clear the bar —
    // a restarted server must re-prove the stream, not coast on the
    // pre-crash one.
    obs::TraceRing trace(256);
    svc::ResilientClientOptions rc_options;
    rc_options.port = port;
    if (dump_trace) rc_options.trace = &trace;
    if (!prefix.empty()) rc_options.filter.prefixes = {prefix};
    svc::ResilientClient rc(rc_options);
    const auto dump_ladder = [&] {
      if (!dump_trace) return;
      std::vector<obs::TraceEvent> events;
      trace.snapshot(events);
      std::cerr << "trace ladder (" << events.size() << " events):\n";
      obs::print_trace(events, std::cerr);
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (rc.stats().sessions_established < expect_sessions ||
           rc.view().frames_applied() < static_cast<std::uint64_t>(frames) ||
           rc.view().rebase_pending()) {
      if (std::chrono::steady_clock::now() > deadline) {
        const svc::ClientStats stats = rc.stats();
        std::cerr << "telemetry_dashboard: gave up waiting for "
                  << expect_sessions << " sessions x " << frames
                  << " frames (sessions=" << stats.sessions_established
                  << " attempts=" << stats.connect_attempts
                  << " frames=" << rc.view().frames_applied() << ")\n";
        dump_ladder();
        return 1;
      }
      rc.poll_frame(std::chrono::seconds(10));
    }
    const int code = render_and_assert(rc.view(), rc.client(), prefix);
    dump_ladder();
    if (code != 0) return code;
    const svc::ClientStats stats = rc.stats();
    std::cout << "sessions=" << stats.sessions_established
              << " frames_gap=" << stats.frames_gap << " reconnect OK\n";
    return 0;
  }

  if (sys) {
    // Self-metrics probe: the server's own internals, fetched through
    // the exact same subscribe/decode path as user counters. The bar:
    // the "__sys/" subset re-bases cleanly, the collect-stage timing
    // histogram accumulates at least --frames tick samples, and its
    // p99 decodes to something a human would believe (under a second
    // per collect pass — three orders of magnitude of slack on any
    // machine CI runs on).
    svc::TelemetryClient client;
    if (!client.connect(port)) {
      std::cerr << "telemetry_dashboard: connect to 127.0.0.1:" << port
                << " failed\n";
      return 1;
    }
    svc::SubscriptionFilter filter;
    filter.prefixes = {std::string(shard::kReservedPrefix)};
    if (!client.subscribe(filter)) {
      std::cerr << "telemetry_dashboard: __sys/ subscribe failed\n";
      return 1;
    }
    const std::string collect_name = "__sys/server.tick.collect_ns";
    const std::uint64_t want_ticks =
        frames > 0 ? static_cast<std::uint64_t>(frames) : 1;
    const shard::Sample* collect = nullptr;
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (!client.poll_frame(std::chrono::seconds(10))) {
        std::cerr << "telemetry_dashboard: stream ended waiting for the"
                     " __sys/ subset (is the server running with"
                     " self_metrics?)\n";
        return 1;
      }
      if (client.view().rebase_pending()) continue;
      collect = nullptr;
      for (const shard::Sample& sample : client.view().samples()) {
        if (sample.name == collect_name) {
          collect = &sample;
          break;
        }
      }
      if (collect != nullptr) {
        const stats::QuantileView quantiles(*collect);
        if (quantiles.valid() && quantiles.total() >= want_ticks) break;
        collect = nullptr;  // not enough ticks timed yet: keep pumping
      }
    }
    if (collect == nullptr) {
      std::cerr << "telemetry_dashboard: " << collect_name
                << " never accumulated " << want_ticks << " tick samples\n";
      return 1;
    }
    std::size_t internals = 0;
    for (const shard::Sample& sample : client.view().samples()) {
      if (!shard::is_reserved_name(sample.name)) {
        std::cerr << "telemetry_dashboard: filter leak: " << sample.name
                  << " is outside __sys/ but was streamed anyway\n";
        return 1;
      }
      ++internals;
      std::cout << std::left << std::setw(40) << sample.name << std::right
                << std::setw(14) << sample.value << "  "
                << model_tag(sample.model) << "\n";
    }
    const stats::QuantileView quantiles(*collect);
    const stats::QuantileEstimate p99 = quantiles.p99();
    std::cout << internals << " internals decoded; collect p99 in ("
              << p99.lower_edge << ", " << p99.upper_edge << "] ns over "
              << quantiles.total() << " ticks (rank err <= "
              << quantiles.rank_error_bound() << ")\n";
    if (p99.upper_edge == 0 || p99.upper_edge > 1'000'000'000) {
      std::cerr << "telemetry_dashboard: collect p99 bound " << p99.upper_edge
                << " ns is not believable\n";
      return 1;
    }
    std::cout << "sys OK p99_collect_ns<=" << p99.upper_edge << "\n";
    return 0;
  }

  svc::TelemetryClient client;
  if (!client.connect(port)) {
    std::cerr << "telemetry_dashboard: connect to 127.0.0.1:" << port
              << " failed\n";
    return 1;
  }
  if (!prefix.empty()) {
    svc::SubscriptionFilter filter;
    filter.prefixes = {prefix};
    if (!client.subscribe(filter)) {
      std::cerr << "telemetry_dashboard: subscribe failed\n";
      return 1;
    }
  }
  if (use_shm && !client.request_shm()) {
    std::cerr << "telemetry_dashboard: shm request send failed\n";
    return 1;
  }
  bool resync_ok = stall_ms == 0;  // nothing to prove without a stall
  for (int f = 0; f < frames; ++f) {
    if (!client.poll_frame(std::chrono::seconds(10))) {
      std::cerr << "telemetry_dashboard: stream ended after " << f
                << " frames\n";
      return 1;
    }
    if (stall_ms != 0 && f == 0) {
      // Simulated stall: miss ticks, then drive recovery ourselves — a
      // fresh full must arrive without waiting for a table change.
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      const std::uint64_t fulls_before = client.view().full_frames();
      if (!client.request_resync()) {
        std::cerr << "telemetry_dashboard: resync send failed\n";
        return 1;
      }
      for (int attempt = 0; attempt < 50 && !resync_ok; ++attempt) {
        if (!client.poll_frame(std::chrono::seconds(10))) {
          std::cerr << "telemetry_dashboard: stream ended mid-resync\n";
          return 1;
        }
        resync_ok = client.view().full_frames() > fulls_before;
      }
      if (!resync_ok) {
        std::cerr << "telemetry_dashboard: no full frame after resync\n";
        return 1;
      }
      std::cout << "resync full OK\n";
    }
  }
  // A filtered run may still be inside the re-base window (the server
  // services a brand-new client with the unfiltered full before it
  // reads the SUBSCRIBE): pump until the subset table is in place so
  // the assertions below judge the subscription, not that race.
  for (int attempt = 0;
       attempt < 50 && client.view().rebase_pending(); ++attempt) {
    if (!client.poll_frame(std::chrono::seconds(10))) {
      std::cerr << "telemetry_dashboard: stream ended before the"
                   " subscription re-base\n";
      return 1;
    }
  }
  if (use_shm) {
    // The offer may trail the first frames; keep pumping until the
    // data path is demonstrably the ring (mapped AND a frame applied
    // off it), not just requested.
    for (int attempt = 0;
         attempt < 50 && !(client.shm_active() && client.shm_frames() >= 1);
         ++attempt) {
      if (!client.poll_frame(std::chrono::seconds(10))) {
        std::cerr << "telemetry_dashboard: stream ended before a frame"
                     " arrived off the shm ring\n";
        return 1;
      }
    }
    if (!(client.shm_active() && client.shm_frames() >= 1)) {
      std::cerr << "telemetry_dashboard: --shm requested but the data"
                   " path never moved onto the ring\n";
      return 1;
    }
    std::cout << "transport: shm (" << client.shm_frames()
              << " ring frames, " << client.shm_overruns()
              << " overruns)\n";
  }

  return render_and_assert(client.view(), client, prefix);
}
