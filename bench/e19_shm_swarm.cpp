// E19 — same-host fan-out at memory speed: the shared-memory
// snapshot ring vs the TCP stream, swept across subscriber swarms.
//
// An all-hot 48-counter fleet (every tick ships a real delta), but the
// question is now the TRANSPORT: S same-host dashboards all want every
// tick. Over TCP the server encodes once but still writes S sockets per
// tick, and the kernel wakes S readers; over the seqlock ring the
// collector publishes the tick's frame ONCE into /dev/shm and every
// reader pulls it with zero syscalls and zero per-reader server work.
// Two figures of merit, one per acceptance check:
//
//   1. Freshness under swarm — p99 collect→apply delivery latency. One
//      PROBE subscriber per cell samples it; the other S-1 subscribers
//      are the load swarm. The probe connects last — the tail of the
//      server's per-tick write order, which is where a swarm's
//      population p99 lives — and runs at real-time priority where the
//      host allows it, the swarm at nice +15: on a small host, S
//      consumer threads waking per tick serialize through the
//      scheduler, and sampling latency on ALL of them measures the
//      length of that scheduler wake train — the same for both
//      transports — rather than the transport. The probe isolates what
//      the TRANSPORT imposes: over TCP its frame exists only after the
//      server's per-subscriber write train reaches its socket (a
//      serialization that survives any reader core count); over shm it
//      is readable the moment the collector publishes, no matter how
//      many readers share the ring. Bar: shm p99 ≥ 5× lower at 64
//      subs / 5 ms.
//   2. Server cost flatness — collector+io thread CPU over the measure
//      window. Ring publish cost is per TICK, not per subscriber, so
//      shm server CPU must stay ~flat as the swarm grows. Bar: shm
//      server CPU at 64 subs ≤ 3× the 1-sub figure (same tick).
//
// Time-based like E17 (--duration-ms / --warmup-ms; defaults 600/100).
// Workers are deliberately gentle (bursty increments with ~100 µs
// back-off) — this box may share one core between server, workers and
// up to 256 subscriber threads, and the experiment measures transport,
// not increment throughput.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "bench/harness.hpp"
#include "shard/registry.hpp"
#include "sim/workload.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace {

using namespace approx;
using namespace std::chrono_literals;

constexpr unsigned kFleetCounters = 48;
constexpr unsigned kHotCounters = 48;  // busy fleet: every counter moves
constexpr unsigned kWorkers = 2;
constexpr unsigned kServerPid = kWorkers;  // registry pid space: n = 3

std::string fleet_counter_name(unsigned index) {
  return "svc_ctr_" + std::to_string(index / 10) + std::to_string(index % 10);
}

/// Probe at RT priority if the host allows (CAP_SYS_NICE / rtprio
/// rlimit), so a doorbell ring or socket readability preempts the load
/// swarm instantly and the sample reads the transport, not the
/// scheduler. Silently stays at normal priority otherwise — the swarm's
/// nice +15 below still keeps the probe ahead of it.
void boost_probe_priority() {
  sched_param param{};
  param.sched_priority = 1;
  (void)pthread_setschedparam(pthread_self(), SCHED_FIFO, &param);
}

/// Load-swarm threads step aside for the probe (always permitted:
/// lowering one's own priority needs no capability).
void deprioritize_swarm_thread() {
  (void)setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)),
                    15);
}

/// Per-subscriber receive tallies for one cell.
struct SubscriberResult {
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;  // TCP full+delta or ring payload bytes
  std::vector<std::uint64_t> latencies_ns;  // probe only
  std::uint64_t overruns = 0;
  bool survived = false;
  bool on_ring = false;
};

std::uint64_t percentile_ns(std::vector<std::uint64_t>& values, double p) {
  if (values.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

/// One cell: S subscribers over one transport at one tick rate. Returns
/// the aggregated row data via out-params.
struct CellResult {
  double per_sub_fps = 0.0;
  double bytes_per_frame = 0.0;
  double p99_ms = 0.0;
  double server_cpu_ms = 0.0;
  std::uint64_t overruns = 0;
  unsigned on_ring = 0;
  unsigned survived = 0;
};

CellResult run_cell(bool use_shm, unsigned subs, std::uint64_t period_ms,
                    std::chrono::milliseconds warmup,
                    std::chrono::milliseconds duration, std::uint64_t seed) {
  CellResult cell;
  shard::RegistryT<base::RelaxedDirectBackend> registry(kWorkers + 1);
  std::vector<shard::AnyCounter*> hot;
  for (unsigned c = 0; c < kFleetCounters; ++c) {
    shard::CounterSpec spec;
    if (c < kHotCounters) {
      spec.model = (c % 2 == 0) ? shard::ErrorModel::kExact
                                : shard::ErrorModel::kMultiplicative;
      spec.k = 2;
      spec.shards = 2;
    } else {
      spec.model = shard::ErrorModel::kExact;
      spec.shards = 1;
    }
    shard::AnyCounter& counter = registry.create(fleet_counter_name(c), spec);
    if (c < kHotCounters) hot.push_back(&counter);
  }

  svc::ServerOptions server_options;
  server_options.period = std::chrono::milliseconds(period_ms);
  server_options.io_threads = 2;
  server_options.shm_enable = use_shm;
  svc::RelaxedSnapshotServer server(registry, kServerPid, server_options);
  if (!server.start()) return cell;  // port exhaustion; empty cell

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (unsigned pid = 0; pid < kWorkers; ++pid) {
    workers.emplace_back([&, pid] {
      sim::Rng rng(seed + pid);
      while (!stop.load(std::memory_order_acquire)) {
        hot[rng.below(hot.size())]->increment(pid);
        // Gentle on purpose: the transport is under test, not the
        // increment path, and the swarm shares this core.
        if ((rng.next() & 0x7) == 0) std::this_thread::sleep_for(100us);
      }
    });
  }

  std::atomic<bool> measuring{false};
  std::atomic<bool> done{false};
  std::atomic<unsigned> connected_count{0};
  std::vector<SubscriberResult> results(subs);
  std::vector<std::thread> subscribers;
  // Subscriber 0 is the probe; it connects LAST, so its slot in the
  // server's client list puts it at the end of the per-tick TCP write
  // train. That is where the population p99 across a swarm lives: at
  // p99 over S subscribers' samples, the sample is a late-train one by
  // construction, and the train is serialized inside the server no
  // matter how many cores readers get. The ring imposes no such
  // ordering — one publish, any reader — which is exactly the
  // difference under test.
  const unsigned rest_of_swarm = subs - 1;
  for (unsigned s = 0; s < subs; ++s) {
    subscribers.emplace_back([&, s] {
      const bool probe = s == 0;
      SubscriberResult& r = results[s];
      if (probe) {
        boost_probe_priority();
        while (connected_count.load(std::memory_order_acquire) <
                   rest_of_swarm &&
               !done.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(2ms);
        }
      } else {
        deprioritize_swarm_thread();
      }
      svc::TelemetryClient client;
      // Retry until the cell ends: a 256-thread connect storm on one
      // core can take a while to drain through accept().
      bool connected = false;
      while (!connected && !done.load(std::memory_order_acquire)) {
        connected = client.connect(server.port());
        if (!connected) std::this_thread::sleep_for(5ms);
      }
      if (!connected) return;
      connected_count.fetch_add(1, std::memory_order_release);
      if (use_shm) client.request_shm();
      std::uint64_t base_frames = 0;
      std::uint64_t base_bytes = 0;
      bool armed = false;
      while (!done.load(std::memory_order_acquire)) {
        if (!client.poll_frame(50ms)) {
          if (!client.connected()) return;  // dropped: not survived
          continue;  // idle slice; re-check phase flags
        }
        if (probe && measuring.load(std::memory_order_acquire)) {
          if (!armed) {  // discard warmup tallies once
            base_frames = client.view().frames_applied();
            base_bytes = client.full_frame_bytes() +
                         client.delta_frame_bytes() + client.shm_frame_bytes();
            armed = true;
          }
          // Only stamped frames contribute a latency sample (an
          // unstamped frame leaves last_latency_ns at the previous
          // value — counting it again would duplicate a sample).
          if (client.view().last_collect_ns() != 0) {
            r.latencies_ns.push_back(client.last_latency_ns());
          }
        }
      }
      if (probe && !armed) return;
      if (probe) {
        r.frames = client.view().frames_applied() - base_frames;
        r.wire_bytes = client.full_frame_bytes() + client.delta_frame_bytes() +
                       client.shm_frame_bytes() - base_bytes;
      }
      r.survived = client.connected();
      r.on_ring = client.shm_active();
      r.overruns = client.shm_overruns();
    });
  }

  // Barrier: measurement starts only after the whole swarm is on the
  // stream (the connect storm is setup, not workload). Capped so a
  // pathological cell still terminates.
  for (int i = 0; i < 1000 && connected_count.load(std::memory_order_acquire) <
                                  subs;
       ++i) {
    std::this_thread::sleep_for(5ms);
  }
  std::this_thread::sleep_for(warmup);
  const svc::ServerStats stats_start = server.stats();
  measuring.store(true, std::memory_order_release);
  const double measured_secs =
      bench::time_seconds([&] { std::this_thread::sleep_for(duration); });
  const svc::ServerStats stats_end = server.stats();
  done.store(true, std::memory_order_release);
  for (std::thread& t : subscribers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  server.stop();

  std::vector<std::uint64_t> latencies;
  for (SubscriberResult& r : results) {
    cell.survived += r.survived ? 1 : 0;
    cell.on_ring += r.on_ring ? 1 : 0;
    cell.overruns += r.overruns;
    latencies.insert(latencies.end(), r.latencies_ns.begin(),
                     r.latencies_ns.end());
  }
  // Rate and size come from the probe's tallies: it is the instrumented
  // subscriber, and every subscriber rides the same stream.
  const SubscriberResult& probe = results[0];
  cell.per_sub_fps = static_cast<double>(probe.frames) / measured_secs;
  cell.bytes_per_frame = probe.frames == 0
                             ? 0.0
                             : static_cast<double>(probe.wire_bytes) /
                                   static_cast<double>(probe.frames);
  cell.p99_ms = static_cast<double>(percentile_ns(latencies, 0.99)) / 1e6;
  cell.server_cpu_ms =
      static_cast<double>((stats_end.collector_cpu_ns + stats_end.io_cpu_ns) -
                          (stats_start.collector_cpu_ns +
                           stats_start.io_cpu_ns)) /
      1e6;
  return cell;
}

const bench::Experiment kExperiment{
    "e19",
    "shm swarm: seqlock snapshot ring vs TCP across same-host subscriber "
    "counts",
    "all-hot 48-counter fleet (2 gentle worker threads), SnapshotServer on "
    "loopback; per cell one RT-priority probe subscriber samples delivery "
    "latency while S-1 nice+15 load subscribers consume the same tick "
    "stream, over TCP or off the shared-memory seqlock ring",
    "the paper's counters make collection cheap; same-host fan-out should "
    "be cheap too — one ring publish per tick serves every local reader "
    "with zero syscalls and zero per-reader server work, where TCP pays a "
    "socket write and a wakeup per subscriber per tick",
    "probe p99 collect→apply ≥ 5× lower on shm than TCP at 64 subscribers "
    "/ 5 ms tick (TCP delivery waits on the per-subscriber write train; "
    "ring delivery is one publish); shm server CPU ~flat in subscriber "
    "count; per-subscriber frame rate holds at the tick rate on both",
    [](const bench::Options& options, bench::Report& report) {
      const auto warmup = bench::warmup_or(options, 100);
      const auto duration = bench::duration_or(options, 600);

      const unsigned subscriber_counts[] = {1, 16, 64, 256};
      const std::uint64_t periods_ms[] = {5, 20};

      auto& table = report.section(
          {"transport", "subs", "tick ms", "frames/s/sub", "B/frame",
           "p99 ms", "srv cpu ms", "alive", "on ring", "overruns"},
          "transport × swarm × frame-rate sweep (" +
              std::to_string(duration.count()) + " ms cells, probe p99)");

      double tcp_p99_64 = 0.0;
      double shm_p99_64 = 0.0;
      double shm_cpu_1 = 0.0;
      double shm_cpu_64 = 0.0;
      for (const bool use_shm : {false, true}) {
        for (const std::uint64_t period_ms : periods_ms) {
          for (const unsigned subs : subscriber_counts) {
            const CellResult cell = run_cell(use_shm, subs, period_ms, warmup,
                                             duration, options.seed);
            if (subs == 64 && period_ms == 5) {
              (use_shm ? shm_p99_64 : tcp_p99_64) = cell.p99_ms;
            }
            if (use_shm && period_ms == 5) {
              if (subs == 1) shm_cpu_1 = cell.server_cpu_ms;
              if (subs == 64) shm_cpu_64 = cell.server_cpu_ms;
            }
            table.add_row({use_shm ? "shm" : "tcp",
                           bench::num(std::uint64_t{subs}),
                           bench::num(period_ms),
                           bench::num(cell.per_sub_fps, 1),
                           bench::num(cell.bytes_per_frame, 0),
                           bench::num(cell.p99_ms, 3),
                           bench::num(cell.server_cpu_ms, 1),
                           bench::num(std::uint64_t{cell.survived}),
                           bench::num(std::uint64_t{cell.on_ring}),
                           bench::num(cell.overruns)});
          }
        }
      }

      // The acceptance pair is re-measured twice more and the ratio
      // taken over medians: the TCP probe's p99 is its slot in the
      // per-tick write train plus scheduler jitter, which swings a
      // single 600 ms reading by ~2x on a busy box. Three independent
      // cells bound that noise without inflating the whole sweep.
      std::vector<double> tcp64{tcp_p99_64};
      std::vector<double> shm64{shm_p99_64};
      for (int rep = 0; rep < 2; ++rep) {
        const std::uint64_t rep_seed = options.seed + 101 + rep;
        tcp64.push_back(
            run_cell(false, 64, 5, warmup, duration, rep_seed).p99_ms);
        shm64.push_back(
            run_cell(true, 64, 5, warmup, duration, rep_seed).p99_ms);
      }
      const auto median3 = [](std::vector<double>& v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };
      const double tcp_med = median3(tcp64);
      const double shm_med = median3(shm64);
      const double p99_ratio = shm_med <= 0.0 ? 0.0 : tcp_med / shm_med;
      // +1 ms of slack on both CPU figures: the window is sub-second and
      // scheduler noise on a shared core is a real fraction of small
      // absolute readings.
      const double cpu_flatness = (shm_cpu_64 + 1.0) / (shm_cpu_1 + 1.0);
      auto& verdict = report.section(
          {"check", "value", "bar", "pass"},
          "acceptance: the ring beats sockets where fan-out hurts");
      verdict.add_row({"tcp/shm probe p99 ratio @64 subs, 5 ms tick (med-of-3)",
                       bench::num(p99_ratio, 1), ">= 5.0",
                       p99_ratio >= 5.0 ? "yes" : "NO"});
      verdict.add_row({"shm srv cpu 64-subs vs 1-sub @5 ms tick",
                       bench::num(cpu_flatness, 2), "<= 3.0",
                       cpu_flatness <= 3.0 ? "yes" : "NO"});
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
