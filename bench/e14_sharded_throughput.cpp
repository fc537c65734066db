// E14 — sharded-counter throughput: shard-count sweep on the direct
// backend, the scalability experiment behind the src/shard layer.
//
// Each row drives one counter configuration from t real threads
// (thread index = pid, 90% increments / 10% reads) and reports million
// ops/sec plus the ratio against the *single-instance* counter of the
// same family at the same thread count. Families:
//
//   * snapshot    — the exact baseline whose update embeds a scan over
//     the *provisioned* pid space (n = 64 here, driven by up to 8
//     active threads: the telemetry-fleet shape, provisioned for many
//     clients with few concurrently active). Compact sharding shrinks
//     each shard's provisioned space to n/S, so per-shard updates
//     collect n/S slots instead of n — an algorithmic reduction that
//     shows on any machine, single-core included.
//   * fetch&add   — the classic striped statistics counter. Its win is
//     cache-line contention, which needs true hardware parallelism; on
//     a single-core host expect ~1× (reported honestly either way).
//   * kmult-fix   — the paper's counter. Increments batch locally and
//     announce ever more rarely, so the single instance already scales;
//     sharding mainly splits announce/helping traffic (≈1× here) while
//     *relaxing* the accuracy precondition to k ≥ ⌈√(n/S)⌉.
//   * kadditive   — per-process slots, already contention-free; the
//     sweep shows the S× read-cost + S·k-error price of striping it.
//
// The sharded counter must beat the single instance at ≥ 8 threads —
// the snapshot family is where the layer earns that claim.
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "bench/harness.hpp"
#include "sim/workload.hpp"

namespace {

using namespace approx;

constexpr unsigned kMaxThreads = 8;
// Provisioned pid space of the snapshot family: sized for a fleet of
// potential clients, of which only kMaxThreads are concurrently active.
// Collect-based costs scale with this width, which is what compact
// sharding divides by S.
constexpr unsigned kProvisionedProcs = 64;

/// One family: the single-instance baseline plus a sharded factory per
/// shard count. Factories build DirectBackend instances.
struct Family {
  std::string name;
  std::uint64_t base_ops;  // per-thread op budget before --scale
  std::function<std::unique_ptr<sim::ICounter>()> single;
  std::function<std::unique_ptr<sim::ICounter>(unsigned shards)> sharded;
};

const bench::Experiment kExperiment{
    "e14",
    "sharded-counter throughput — shard-count sweep (DirectBackend)",
    "90% increments / 10% reads per thread, shared instance, "
    "single vs S ∈ {2,4,8} shards",
    "striping increments over S shards removes the single-instance "
    "hotspot while the accuracy band composes (mult: k; additive: S·k; "
    "exact: exact) — the snapshot family additionally shrinks every "
    "embedded collect from the provisioned width n to n/S via compact "
    "shards",
    "sharded snapshot beats the single instance at every S, most at "
    "S = 8 and 8 threads; fetch&add/kmult gains need multi-core "
    "parallelism (≈1× on a single-core host); kadditive shows the "
    "deliberate S× read-cost price of striping an already-striped "
    "counter",
    [](const bench::Options& options, bench::Report& report) {
      using base::DirectBackend;
      const std::uint64_t kmult_k =
          std::max<std::uint64_t>(2, base::ceil_sqrt(kMaxThreads));

      const std::vector<Family> families = {
          {"snapshot(n=64)", 40'000,
           [] {
             return std::make_unique<
                 sim::SnapshotCounterAdapterT<DirectBackend>>(
                 kProvisionedProcs);
           },
           [](unsigned shards) {
             return std::make_unique<
                 sim::ShardedSnapshotCounterAdapterT<DirectBackend>>(
                 kProvisionedProcs, 0, shards);
           }},
          {"fetch&add", 1'000'000,
           [] {
             return std::make_unique<
                 sim::FetchAddCounterAdapterT<DirectBackend>>();
           },
           [](unsigned shards) {
             return std::make_unique<
                 sim::ShardedFetchAddCounterAdapterT<DirectBackend>>(
                 kMaxThreads, 0, shards);
           }},
          {"kmult-fix", 500'000,
           [&] {
             return std::make_unique<
                 sim::KMultCounterCorrectedAdapterT<DirectBackend>>(
                 kMaxThreads, kmult_k);
           },
           [&](unsigned shards) {
             return std::make_unique<
                 sim::ShardedKMultCounterAdapterT<DirectBackend>>(
                 kMaxThreads, kmult_k, shards);
           }},
          {"kadditive", 500'000,
           [] {
             return std::make_unique<
                 sim::KAdditiveCounterAdapterT<DirectBackend>>(kMaxThreads,
                                                               64);
           },
           [](unsigned shards) {
             return std::make_unique<
                 sim::ShardedKAdditiveCounterAdapterT<DirectBackend>>(
                 kMaxThreads, 64, shards);
           }},
      };

      auto& table = report.section(
          {"impl", "shards", "threads", "Mops/s", "vs single"});
      for (const Family& family : families) {
        const std::uint64_t ops = bench::scaled_ops(options, family.base_ops);
        std::map<unsigned, double> single_mops;  // threads -> baseline
        const auto run = [&](sim::ICounter& counter, unsigned threads) {
          bench::counter_throughput_mops(
              counter, threads, std::max<std::uint64_t>(1, ops / 20),
              options.seed, 0.1);  // warmup
          return bench::counter_throughput_mops(counter, threads, ops,
                                                options.seed, 0.1);
        };
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
          const auto counter = family.single();
          const double mops = run(*counter, threads);
          single_mops[threads] = mops;
          table.add_row({family.name, "single",
                         bench::num(std::uint64_t{threads}),
                         bench::num(mops, 2), bench::num(1.0, 2)});
        }
        for (const unsigned shards : {2u, 4u, 8u}) {
          for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            const auto counter = family.sharded(shards);
            const double mops = run(*counter, threads);
            table.add_row({family.name, bench::num(std::uint64_t{shards}),
                           bench::num(std::uint64_t{threads}),
                           bench::num(mops, 2),
                           bench::num(mops / single_mops[threads], 2)});
          }
        }
      }
    }};

}  // namespace

APPROX_BENCH_MAIN(kExperiment)
