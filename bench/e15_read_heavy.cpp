// E15 — read-heavy throughput: counters and max registers under a 90%
// read mix, DirectBackend vs InstrumentedBackend (the PR 1 follow-up:
// E10's increment-heavy kmult rows showed ~1.0× because batched
// increments rarely touch shared memory — reads are where every
// operation pays per-primitive instrumentation, so the overhead the
// backend split removes must dominate here).
//
// Three sections:
//
//   1. counters, 90% reads / 10% increments — the collect/snapshot
//      baselines spend Θ(n)/Θ(n²) primitives per read, multiplying the
//      per-primitive overhead; kmult reads amortize O(1) primitives and
//      bound the effect from below.
//   2. max registers, 90% reads / 10% log-uniform writes — the
//      read-heavy throughput experiment for Algorithm 2
//      (core/kmult_max_register.hpp).
//   3. snapshot retirement at n = 16 — the bounded retirement list
//      (exact/snapshot.hpp) in action: the retired count stays within a
//      small multiple of the cap instead of growing with the update
//      count, which is what lets this section run at higher n at all.
//      The count is sampled from
//      the main thread while the workers run and reported as its peak:
//      one sample at the end caught wherever the last reclaim pass left
//      it (93–3854 over 20 runs at --scale=0.05).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "bench/harness.hpp"
#include "exact/snapshot_counter.hpp"
#include "sim/workload.hpp"

namespace {

using namespace approx;

constexpr unsigned kMaxThreads = 8;
constexpr unsigned kSnapshotProcs = 16;  // "higher n" retirement section
constexpr double kReadFraction = 0.9;

struct CounterFamily {
  std::string name;
  std::uint64_t base_ops;
  std::function<std::unique_ptr<sim::ICounter>()> direct;
  std::function<std::unique_ptr<sim::ICounter>()> instrumented;
};

struct MaxRegFamily {
  std::string name;
  std::uint64_t base_ops;
  std::function<std::unique_ptr<sim::IMaxRegister>()> direct;
  std::function<std::unique_ptr<sim::IMaxRegister>()> instrumented;
};

const bench::Experiment kExperiment{
    "e15",
    "read-heavy throughput — DirectBackend vs InstrumentedBackend",
    "90% reads / 10% mutations per thread, shared instance",
    "reads execute Θ(1)..Θ(n²) shared-memory primitives per operation "
    "with no local batching to hide behind, so the per-primitive "
    "instrumentation cost (two TLS lookups + a branch) dominates "
    "exactly where E10's increment-heavy mix could not show it; the "
    "bounded retirement list keeps the snapshot rows runnable at "
    "n = 16",
    "direct/instr speedup is largest for the register-scan reads "
    "(collect/kadditive counters, exact max registers: ~3-4x vs the "
    "~1.0-1.8x of E10's increment mix), diluted for the snapshot "
    "counter (allocation cost is paid in both builds) and ~1.0x for "
    "kmult — whose amortized reads are so cheap there is nothing to "
    "instrument, itself the paper's point; the sampled peak of snapshot "
    "retired records stays within a small multiple of the cap (a "
    "preempted scan pins the horizon while the others keep retiring) "
    "instead of growing with the update count",
    [](const bench::Options& options, bench::Report& report) {
      using base::DirectBackend;
      const std::uint64_t kmult_k =
          std::max<std::uint64_t>(2, base::ceil_sqrt(kMaxThreads));
      const std::uint64_t m = std::uint64_t{1} << 20;

      const std::vector<CounterFamily> counters = {
          {"kmult-fix(k=3)", 400'000,
           [&] {
             return std::make_unique<
                 sim::KMultCounterCorrectedAdapterT<DirectBackend>>(
                 kMaxThreads, kmult_k);
           },
           [&] {
             return std::make_unique<sim::KMultCounterCorrectedAdapter>(
                 kMaxThreads, kmult_k);
           }},
          {"kadditive(k=64)", 400'000,
           [] {
             return std::make_unique<
                 sim::KAdditiveCounterAdapterT<DirectBackend>>(kMaxThreads,
                                                               64);
           },
           [] {
             return std::make_unique<sim::KAdditiveCounterAdapter>(
                 kMaxThreads, 64);
           }},
          {"collect", 400'000,
           [] {
             return std::make_unique<
                 sim::CollectCounterAdapterT<DirectBackend>>(kMaxThreads);
           },
           [] {
             return std::make_unique<sim::CollectCounterAdapter>(kMaxThreads);
           }},
          {"snapshot(n=16)", 30'000,
           [] {
             return std::make_unique<
                 sim::SnapshotCounterAdapterT<DirectBackend>>(kSnapshotProcs);
           },
           [] {
             return std::make_unique<sim::SnapshotCounterAdapter>(
                 kSnapshotProcs);
           }},
      };

      auto& counter_table =
          report.section({"impl", "threads", "direct Mops/s", "instr Mops/s",
                          "direct/instr"},
                         "counters, 90% reads");
      for (const CounterFamily& family : counters) {
        const std::uint64_t ops = bench::scaled_ops(options, family.base_ops);
        for (const unsigned threads : {1u, 4u, 8u}) {
          const auto run = [&](sim::ICounter& counter) {
            bench::counter_throughput_mops(
                counter, threads, std::max<std::uint64_t>(1, ops / 20),
                options.seed, kReadFraction);
            return bench::counter_throughput_mops(counter, threads, ops,
                                                  options.seed,
                                                  kReadFraction);
          };
          const auto direct = family.direct();
          const double direct_mops = run(*direct);
          const auto instrumented = family.instrumented();
          const double instr_mops = run(*instrumented);
          counter_table.add_row({family.name,
                                 bench::num(std::uint64_t{threads}),
                                 bench::num(direct_mops, 2),
                                 bench::num(instr_mops, 2),
                                 bench::num(direct_mops / instr_mops, 2)});
        }
      }

      const std::vector<MaxRegFamily> registers = {
          {"kmult-bounded(k=2)", 400'000,
           [&] {
             return std::make_unique<
                 sim::KMultMaxRegisterAdapterT<DirectBackend>>(m, 2);
           },
           [&] {
             return std::make_unique<sim::KMultMaxRegisterAdapter>(m, 2);
           }},
          {"exact-bounded", 100'000,
           [&] {
             return std::make_unique<
                 sim::ExactBoundedMaxRegisterAdapterT<DirectBackend>>(m);
           },
           [&] {
             return std::make_unique<sim::ExactBoundedMaxRegisterAdapter>(m);
           }},
          {"kmult-unbounded(k=2)", 400'000,
           [] {
             return std::make_unique<
                 sim::KMultUnboundedMaxRegisterAdapterT<DirectBackend>>(2);
           },
           [] {
             return std::make_unique<sim::KMultUnboundedMaxRegisterAdapter>(
                 2);
           }},
          {"exact-unbounded", 400'000,
           [] {
             return std::make_unique<
                 sim::ExactUnboundedMaxRegisterAdapterT<DirectBackend>>();
           },
           [] {
             return std::make_unique<sim::ExactUnboundedMaxRegisterAdapter>();
           }},
      };

      auto& reg_table =
          report.section({"impl", "threads", "direct Mops/s", "instr Mops/s",
                          "direct/instr"},
                         "max registers, 90% reads / log-uniform writes");
      for (const MaxRegFamily& family : registers) {
        const std::uint64_t ops = bench::scaled_ops(options, family.base_ops);
        for (const unsigned threads : {1u, 4u, 8u}) {
          const auto run = [&](sim::IMaxRegister& reg) {
            bench::max_register_throughput_mops(
                reg, threads, std::max<std::uint64_t>(1, ops / 20),
                options.seed, kReadFraction, m);
            return bench::max_register_throughput_mops(
                reg, threads, ops, options.seed, kReadFraction, m);
          };
          const auto direct = family.direct();
          const double direct_mops = run(*direct);
          const auto instrumented = family.instrumented();
          const double instr_mops = run(*instrumented);
          reg_table.add_row({family.name, bench::num(std::uint64_t{threads}),
                             bench::num(direct_mops, 2),
                             bench::num(instr_mops, 2),
                             bench::num(direct_mops / instr_mops, 2)});
        }
      }

      // Retirement evidence: drive a DirectBackend snapshot counter hard
      // and report the peak of its retired list, sampled while it runs.
      {
        exact::SnapshotCounterT<DirectBackend> counter(kSnapshotProcs);
        const std::uint64_t total_ops = bench::scaled_ops(options, 200'000);
        std::atomic<std::uint64_t> updates{0};
        std::atomic<unsigned> running{kMaxThreads};
        std::vector<std::thread> threads;
        for (unsigned pid = 0; pid < kMaxThreads; ++pid) {
          threads.emplace_back([&, pid] {
            sim::Rng rng(options.seed + pid);
            std::uint64_t mine = 0;
            for (std::uint64_t i = 0; i < total_ops / kMaxThreads; ++i) {
              if (rng.chance(0.5)) {
                volatile std::uint64_t sink = counter.read();
                (void)sink;
              } else {
                counter.increment(pid);
                ++mine;
              }
            }
            updates.fetch_add(mine, std::memory_order_relaxed);
            running.fetch_sub(1, std::memory_order_release);
          });
        }
        std::uint64_t peak_retired = 0;
        while (running.load(std::memory_order_acquire) > 0) {
          peak_retired = std::max<std::uint64_t>(
              peak_retired, counter.retired_records_unrecorded());
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        for (auto& thread : threads) thread.join();
        auto& retire_table = report.section(
            {"updates", "peak retired while running (cap 1024)"},
            "snapshot retirement list, n = 16");
        retire_table.add_row(
            {bench::num(updates.load()), bench::num(peak_retired)});
      }
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
