// E21 — what watching the watcher costs: the self-observability layer's
// overhead on the server's own tick, and the price of a metricsz page.
//
// Two questions, one per section:
//
//   1. Tick overhead — a real SnapshotServer collecting a 1024-counter
//      registry every 2 ms while 2 threads hammer the counters, run
//      twice: self_metrics OFF (no "__sys/" rows) and ON (23 read-only
//      "__sys/" views of the server's own instruments in the same
//      registry, a trace ring attached). The server counts its events,
//      its 3 per-tick stage timings and its CPU clock the same way in
//      both configs — one counter source — so ON pays only for
//      collecting the 23 view rows and for the trace. The metric is
//      collector CPU per tick (CLOCK_THREAD_CPUTIME_ID delta over the
//      ticks it covered), median of interleaved repetitions so a noisy
//      neighbor hits both configs alike. Acceptance (the CI guard,
//      tools/check_e21_overhead.py): ON ≤ 1.05× OFF — observability
//      that taxes the pipeline more than 5% would be the instrument
//      perturbing the experiment.
//   2. Page cost — rendering the metricsz exposition (every "__sys/"
//      entry + the trace tail) from an already-collected sample set,
//      and encoding it into its wire frame. This is the price of ONE
//      curious scraper per request — paid only when a kMetricszRequest
//      arrives, never on the steady-state tick path.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "bench/harness.hpp"
#include "obs/metricsz.hpp"
#include "obs/trace_ring.hpp"
#include "shard/registry.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"

namespace {

using namespace approx;

constexpr unsigned kHammers = 2;
constexpr unsigned kServerPid = kHammers;
constexpr unsigned kCounters = 1024;
constexpr unsigned kReps = 5;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct TickCost {
  double us_per_tick = 0.0;
  std::uint64_t ticks = 0;
};

/// One measured server run: build the fleet, serve for the window with
/// the hammers running, read collector CPU / ticks over the steady
/// window only (start-up excluded by the warmup slice).
TickCost run_config(bool self_obs, std::chrono::milliseconds warmup,
                    std::chrono::milliseconds window) {
  shard::RegistryT<base::DirectBackend> registry(kHammers + 1);
  std::vector<shard::AnyCounter*> counters;
  counters.reserve(kCounters);
  for (unsigned i = 0; i < kCounters; ++i) {
    counters.push_back(&registry.create(
        "e21_ctr_" + std::to_string(i),
        {shard::ErrorModel::kMultiplicative, 2, 4}));
  }

  obs::TraceRing trace(256);
  svc::ServerOptions options;
  options.port = 0;
  options.period = std::chrono::milliseconds(2);
  options.self_metrics = self_obs;
  if (self_obs) options.trace = &trace;
  svc::SnapshotServer server(registry, kServerPid, options);
  if (!server.start()) return {};

  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (unsigned pid = 0; pid < kHammers; ++pid) {
    hammers.emplace_back([&, pid] {
      std::size_t i = pid;
      while (!stop.load(std::memory_order_acquire)) {
        counters[i % kCounters]->increment(pid);
        ++i;
      }
    });
  }

  std::this_thread::sleep_for(warmup);
  const svc::ServerStats before = server.stats();
  std::this_thread::sleep_for(window);
  const svc::ServerStats after = server.stats();

  stop.store(true, std::memory_order_release);
  for (std::thread& hammer : hammers) hammer.join();
  server.stop();

  TickCost cost;
  cost.ticks = after.frames_collected - before.frames_collected;
  if (cost.ticks > 0) {
    cost.us_per_tick =
        static_cast<double>(after.collector_cpu_ns - before.collector_cpu_ns) /
        1e3 / static_cast<double>(cost.ticks);
  }
  return cost;
}

const bench::Experiment kExperiment{
    "e21",
    "self-observability overhead: the server's tick with and without "
    "__sys/ instrumentation, and the metricsz page cost",
    "section 1: a SnapshotServer over 1024 k-multiplicative counters "
    "(k = 2, S = 4), 2 hammer threads, 2 ms period, self_metrics off vs "
    "on (median collector CPU/tick over interleaved repetitions); "
    "section 2: rendering + encoding the metricsz page (23 internals + "
    "trace tail) from collected samples",
    "the paper's instruments are cheap enough to meter the meter: the "
    "server counts its own events (exact atomics), stage timings "
    "(k-additive-bucket histograms) and top talkers (exact per-peer "
    "byte counts) once, and the served registry carries read-only "
    "views of them — the observability plane rides the data plane's "
    "wire and accuracy contract instead of a second mechanism",
    "self_metrics ON within 5% of OFF (the only ON-side tick work is "
    "collecting 23 view rows — one lock and one read each — against a "
    "1024-entry collect; the 3 histogram records and one clock read "
    "per tick are paid either way); the metricsz page costs "
    "microseconds and only on request — the exposition path never "
    "touches the tick loop",
    [](const bench::Options& options, bench::Report& report) {
      // --- section 1: tick overhead ----------------------------------
      const std::chrono::milliseconds warmup = bench::warmup_or(options, 200);
      const std::chrono::milliseconds window =
          bench::duration_or(options, 1000);

      std::vector<double> off_us;
      std::vector<double> on_us;
      std::vector<double> ratios;
      std::uint64_t off_ticks = 0;
      std::uint64_t on_ticks = 0;
      // Interleaved A/B repetitions, compared *pairwise*: each rep's
      // ON/OFF runs are adjacent in time, so frequency drift and noisy
      // CI neighbors tax both sides of a ratio alike and cancel; the
      // median across reps then sheds any rep that caught a descheduling
      // spike on one side only.
      for (unsigned rep = 0; rep < kReps; ++rep) {
        const TickCost off = run_config(false, warmup, window);
        const TickCost on = run_config(true, warmup, window);
        if (off.ticks == 0 || on.ticks == 0) continue;
        off_us.push_back(off.us_per_tick);
        on_us.push_back(on.us_per_tick);
        ratios.push_back(on.us_per_tick / off.us_per_tick);
        off_ticks += off.ticks;
        on_ticks += on.ticks;
      }

      auto& overhead = report.section(
          {"config", "ticks", "collect cpu us/tick", "on/off ratio"},
          "collector cpu per tick, 1024 counters + 2 hammer threads "
          "(medians over interleaved reps; ratio = median of paired "
          "per-rep ratios)");
      if (!off_us.empty()) {
        overhead.add_row({"self_metrics off", bench::num(off_ticks),
                          bench::num(median(off_us), 2),
                          bench::num(1.0, 3)});
        overhead.add_row({"self_metrics on", bench::num(on_ticks),
                          bench::num(median(on_us), 2),
                          bench::num(median(ratios), 3)});
      }

      // --- section 2: metricsz page cost -----------------------------
      // A populated registry: the __sys/ views plus enough trace
      // events to fill the page's tail, sampled once, then rendered
      // repeatedly — the per-request cost a scraper imposes.
      shard::RegistryT<base::DirectBackend> registry(2);
      obs::TraceRing trace(256);
      for (unsigned i = 0; i < 64; ++i) {
        trace.record(obs::TraceKind::kClientConnect, i);
      }
      svc::ServerOptions srv_options;
      srv_options.port = 0;
      srv_options.period = std::chrono::milliseconds(2);
      srv_options.self_metrics = true;
      srv_options.trace = &trace;
      svc::SnapshotServer server(registry, 1, srv_options);
      std::vector<shard::Sample> samples;
      std::uint64_t pages = 0;
      std::string page;
      std::string wire;
      double render_s = 0.0;
      double encode_s = 0.0;
      if (server.start()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        server.stop();
        (void)registry.snapshot_all_into(0, samples, 0);
        const std::uint64_t renders = bench::scaled_ops(options, 2000);
        render_s = bench::time_seconds([&] {
          for (std::uint64_t r = 0; r < renders; ++r) {
            pages += obs::render_metricsz(samples, &trace, page);
          }
        });
        encode_s = bench::time_seconds([&] {
          for (std::uint64_t r = 0; r < renders; ++r) {
            svc::encode_metricsz_frame(r, 1, 0, page, wire);
          }
        });
        auto& cost = report.section({"stage", "page bytes", "us/page"},
                                    "metricsz exposition cost (on request "
                                    "only; never on the tick path)");
        cost.add_row({"render", bench::num(std::uint64_t{page.size()}),
                      bench::num(render_s * 1e6 /
                                     static_cast<double>(renders),
                                 2)});
        cost.add_row({"encode", bench::num(std::uint64_t{wire.size()}),
                      bench::num(encode_s * 1e6 /
                                     static_cast<double>(renders),
                                 2)});
      }
      (void)pages;
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
