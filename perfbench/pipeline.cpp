// pipeline.cpp — the served-pipeline benchmark: increment → visible
// latency, server CPU per tick, wire bytes per frame and set-up time of
// one in-process RelaxedSnapshotServer, plus a traced run that times
// calls into each layer's public functions. README.md gives the
// workloads, the metrics and which end-to-end metric each layer metric
// should move.
//
//   pipeline --workload <kmult_fleet|wide_exact|filtered_churn>
//            --seed <n> --seconds <s> --trace <0|1>
//
// One process: a server (5 ms period, self-metrics on, default I/O
// threads) over a generated fleet, and four load threads — an open-loop
// hammer, an open-loop prober, and two subscriber threads with one
// TelemetryClient each. --trace 0 prints the end-to-end metrics of one
// untraced window; --trace 1 runs an untraced window, then a traced one
// on a fresh set-up, and prints the per-layer metrics. Every window ends
// with the correctness gate (gate.hpp); a violation exits 1. The last
// stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/backend.hpp"
#include "gate.hpp"
#include "measure.hpp"
#include "shard/registry.hpp"
#include "stats/histogram.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/wire.hpp"

namespace {

using namespace approx;
using namespace perfbench;
using Registry = shard::RegistryT<base::RelaxedDirectBackend>;
using Server = svc::RelaxedSnapshotServer;
using svc::steady_now_ns;

// Registry pid space, one thread per pid. The tracer's pid is reserved in
// untraced runs too, so both runs size the registry alike.
constexpr unsigned kHammerPid = 0;
constexpr unsigned kProberPid = 1;
constexpr unsigned kTracerPid = 2;
constexpr unsigned kServerPid = 3;
constexpr unsigned kPids = 4;

constexpr auto kPeriod = std::chrono::milliseconds(5);
constexpr std::uint64_t kSecondNs = 1'000'000'000;
constexpr unsigned kProbes = 8;
constexpr std::uint64_t kProbeSpacingNs = 1'300'000;
constexpr std::uint64_t kProbeJitterNs = 200'000;
constexpr unsigned kChurnEveryProbes = 38;  // one create per ~50 ms
constexpr std::uint64_t kHammerBatchNs = 1'000'000;
constexpr std::uint64_t kMissAfterNs = kSecondNs;
constexpr std::uint64_t kWarmupNs = kSecondNs / 2;
constexpr std::uint64_t kSetupTimeoutNs = 5 * kSecondNs;
// setup_s is the median of this many set-ups: a set-up waits 0–5 ms for
// the next tick, a large share of the few ms it takes.
constexpr std::size_t kSetups = 61;
constexpr unsigned kHistBuckets = 16;
constexpr std::size_t kMinSweepCalls = 256;
constexpr std::size_t kAbsent = ~std::size_t{0};
// filtered_churn: subscriber 2 admits these 6 of the 64 families (~10%).
constexpr unsigned kFamilies = 64;
constexpr std::array<unsigned, 6> kFilterFamilies = {3, 14, 25, 36, 47, 58};

enum Phase : int { kWarmup, kMeasure, kStopped };
// Entry kinds of a collect pass; kOther (server-owned `__sys/` entries and
// additive counters) is timed but not reported.
enum Kind : int { kKmult, kExactKind, kHist, kOther, kKinds };
constexpr int kReportedKinds = 3;
constexpr const char* kKindNames[kReportedKinds] = {"kmult", "exact",
                                                    "histogram"};

struct WorkloadSpec {
  const char* name;
  const char* prefix;  // entry names "<prefix>/…" unless `families`
  unsigned scalars;
  shard::CounterSpec scalar_spec;
  unsigned histograms;
  double hammer_rate;  // offered hammer ops per second, open loop
  bool request_shm;    // both subscribers call request_shm()
  bool families;       // 64 name families, filtered subscriber 2, churn
};

const WorkloadSpec kWorkloads[] = {
    {"kmult_fleet", "m", 1024, {shard::ErrorModel::kMultiplicative, 2, 4},
     0, 2.5e6, true, false},
    {"wide_exact", "x", 2048, {shard::ErrorModel::kExact, 1, 1}, 32, 1.0e6,
     false, false},
    {"filtered_churn", "f", 256, {shard::ErrorModel::kExact, 1, 2}, 0, 2.0e4,
     true, true},
};

void sleep_until_ns(std::uint64_t due_ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due_ns)));
}

std::size_t find_entry(const std::vector<shard::Sample>& samples,
                       const std::string& name) {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const shard::Sample& s, const std::string& n) { return s.name < n; });
  return it != samples.end() && it->name == name
             ? static_cast<std::size_t>(it - samples.begin())
             : kAbsent;
}

// --- fleet and set-up --------------------------------------------------

std::string scalar_name(const WorkloadSpec& spec, unsigned i) {
  char buf[32];
  if (spec.families) {
    const unsigned per_family = spec.scalars / kFamilies;
    std::snprintf(buf, sizeof buf, "f%02u/c%u", i / per_family,
                  i % per_family);
  } else {
    std::snprintf(buf, sizeof buf, "%s/%04u", spec.prefix, i);
  }
  return buf;
}

struct Fleet {
  Registry registry{kPids};
  std::vector<std::string> names;  // scalars, then histograms
  std::vector<shard::AnyCounter*> scalars;
  std::vector<shard::AnyHistogram*> histograms;
  std::vector<std::uint64_t> hist_bounds;
  // Exact probe counters. Each name sorts right after an evenly spaced
  // fleet entry, so probes sample the whole collect pass, not its end.
  std::vector<std::string> probe_names;
  std::vector<shard::AnyCounter*> probes;
};

stats::HistogramSpec histogram_spec() {
  stats::HistogramSpec spec;
  spec.bounds = stats::exponential_bounds(1, 2.0, kHistBuckets - 1);
  spec.k = 64;
  return spec;
}

void build_fleet(const WorkloadSpec& spec, Fleet& fleet) {
  for (unsigned i = 0; i < spec.scalars; ++i) {
    fleet.names.push_back(scalar_name(spec, i));
    fleet.scalars.push_back(
        &fleet.registry.create(fleet.names.back(), spec.scalar_spec));
  }
  for (unsigned p = 0; p < kProbes; ++p) {
    fleet.probe_names.push_back(
        scalar_name(spec, (2 * p + 1) * spec.scalars / (2 * kProbes)) +
        ".probe");
    fleet.probes.push_back(&fleet.registry.create(
        fleet.probe_names.back(), {shard::ErrorModel::kExact, 1, 1}));
  }
  const stats::HistogramSpec hist_spec = histogram_spec();
  for (unsigned h = 0; h < spec.histograms; ++h) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s/h%02u", spec.prefix, h);
    fleet.names.emplace_back(buf);
    fleet.histograms.push_back(
        stats::create_histogram(fleet.registry, buf, hist_spec));
  }
  if (!fleet.histograms.empty()) {
    fleet.hist_bounds = fleet.histograms.front()->bucket_bounds();
  }
}

bool is_filter_family(unsigned family) {
  return std::find(kFilterFamilies.begin(), kFilterFamilies.end(), family) !=
         kFilterFamilies.end();
}

/// filtered_churn's subscriber 2: ~10% of the families plus the probes.
svc::SubscriptionFilter filtered_subscription(const Fleet& fleet) {
  svc::SubscriptionFilter filter;
  for (const unsigned family : kFilterFamilies) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "f%02u/", family);
    filter.prefixes.emplace_back(buf);
  }
  filter.exact = fleet.probe_names;
  filter.normalize();
  return filter;
}

// Self-metrics feed the obs.* cross-check. The flag is set only where it
// exists, so the benchmark keeps building if self-metrics become
// unconditional.
template <typename Options>
void enable_self_metrics(Options& options) {
  if constexpr (requires { options.self_metrics = true; }) {
    options.self_metrics = true;
  }
}

struct Subscriber {
  svc::TelemetryClient client;
  svc::SubscriptionFilter filter;  // pass-all unless filtered
  bool wait_shm = false;           // shm requested on a stream offered it
};

/// One served set-up: fleet, running server, two connected subscribers.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    for (Subscriber& sub : subs) sub.client.close();
    if (server) server->stop();
  }

  Fleet fleet;
  std::unique_ptr<Server> server;
  std::array<Subscriber, 2> subs;
  double setup_s = 0.0;
};

bool ready(const Subscriber& sub) {
  const svc::MaterializedView& view = sub.client.view();
  return view.full_frames() > 0 && !view.rebase_pending() &&
         (!sub.wait_shm || sub.client.shm_active());
}

/// Fleet build + server start + every subscriber's first full applied
/// (on its subscribed table, and shm adopted where it is offered).
std::unique_ptr<Rig> set_up(const WorkloadSpec& spec) {
  const std::uint64_t start = steady_now_ns();
  auto rig = std::make_unique<Rig>();
  build_fleet(spec, rig->fleet);
  svc::ServerOptions options;
  options.period = kPeriod;
  enable_self_metrics(options);
  rig->server =
      std::make_unique<Server>(rig->fleet.registry, kServerPid, options);
  if (!rig->server->start()) {
    std::fprintf(stderr, "set-up: server start failed\n");
    return nullptr;
  }
  for (std::size_t s = 0; s < rig->subs.size(); ++s) {
    Subscriber& sub = rig->subs[s];
    if (!sub.client.connect(rig->server->port())) {
      std::fprintf(stderr, "set-up: connect failed\n");
      return nullptr;
    }
    if (s == 1 && spec.families) {
      sub.filter = filtered_subscription(rig->fleet);
      if (!sub.client.subscribe(sub.filter)) return nullptr;
    }
    if (spec.request_shm) {
      if (!sub.client.request_shm()) return nullptr;
      // The server offers its ring to unfiltered streams only.
      sub.wait_shm = sub.filter.pass_all();
    }
  }
  while (!ready(rig->subs[0]) || !ready(rig->subs[1])) {
    if (steady_now_ns() - start > kSetupTimeoutNs) {
      std::fprintf(stderr, "set-up: subscribers not ready\n");
      return nullptr;
    }
    for (Subscriber& sub : rig->subs) {
      if (!ready(sub) && !sub.client.poll_frame(std::chrono::milliseconds(1)) &&
          !sub.client.connected()) {
        std::fprintf(stderr, "set-up: subscriber disconnected\n");
        return nullptr;
      }
    }
  }
  rig->setup_s = static_cast<double>(steady_now_ns() - start) / 1e9;
  return rig;
}

// --- load threads ------------------------------------------------------

/// The hammer's seeded op sequence, cycled: scalar increments in seeded
/// sweep order (every scalar moves once per sweep) and histogram records
/// with seeded values. A batch runs its scalar ops, then its records, so
/// a traced batch times each kind.
struct HammerPlan {
  struct Record {
    std::uint32_t hist;
    std::uint32_t bucket;
    std::uint64_t value;
  };
  std::vector<std::uint32_t> order;
  std::vector<Record> records;
  std::uint64_t scalars_per_batch = 0;
  std::uint64_t records_per_batch = 0;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

HammerPlan make_plan(const WorkloadSpec& spec, const Fleet& fleet,
                     std::uint64_t seed) {
  Rng rng(seed ^ 0x68616d6d6572ull);
  HammerPlan plan;
  std::vector<std::uint32_t> perm(spec.scalars);
  std::iota(perm.begin(), perm.end(), 0u);
  for (int sweep = 0; sweep < 4; ++sweep) {
    shuffle(perm, rng);
    plan.order.insert(plan.order.end(), perm.begin(), perm.end());
  }
  std::vector<std::uint32_t> hists(spec.histograms);
  std::iota(hists.begin(), hists.end(), 0u);
  for (int sweep = 0; sweep < 64 && !hists.empty(); ++sweep) {
    shuffle(hists, rng);
    for (const std::uint32_t h : hists) {
      const std::uint64_t value = rng.below(2ull << rng.below(kHistBuckets));
      const auto bucket = static_cast<std::uint32_t>(
          std::lower_bound(fleet.hist_bounds.begin(), fleet.hist_bounds.end(),
                           value) -
          fleet.hist_bounds.begin());
      plan.records.push_back({h, bucket, value});
    }
  }
  const double per_batch =
      spec.hammer_rate * static_cast<double>(kHammerBatchNs) / 1e9;
  const double record_share = static_cast<double>(spec.histograms) /
                              (spec.scalars + spec.histograms);
  plan.records_per_batch =
      static_cast<std::uint64_t>(std::llround(per_batch * record_share));
  plan.scalars_per_batch =
      static_cast<std::uint64_t>(std::llround(per_batch)) -
      plan.records_per_batch;
  return plan;
}

struct ProbeEvent {
  std::uint32_t probe = 0;
  std::uint64_t target = 0;  // the probe's value once this increment lands
  std::uint64_t due_ns = 0;
};

/// State the load threads share. The window is cut into 1 s slices; the
/// main thread advances `slice`. `events` is preallocated; slot j is
/// written once, before `published` covers it (release).
struct Shared {
  Shared(std::size_t capacity, int slices)
      : slices(slices), events(capacity) {}
  const int slices;
  std::atomic<int> phase{kWarmup};
  std::atomic<int> slice{0};  // meaningful while phase == kMeasure
  std::atomic<bool> subs_stop{false};
  std::vector<ProbeEvent> events;
  std::atomic<std::size_t> published{0};
};

/// The hammer's CPU clock and op count when it first saw a slice begin.
struct HammerMark {
  bool set = false;
  std::uint64_t cpu_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t ns = 0;
};

struct HammerResult {
  std::uint64_t scalar_ops = 0;  // totals since start: the ground truth
  std::uint64_t record_ops = 0;
  std::vector<HammerMark> marks;  // [s]: slice s began; [slices]: the stop
  std::vector<double> scalar_ns;  // traced: ns per op, one per batch
  std::vector<double> record_ns;
};

/// Open loop: batch b is due at start + b ms whatever the system does; a
/// late hammer runs its owed batches back to back.
void run_hammer(const HammerPlan& plan, const Fleet& fleet,
                const Shared& shared, bool traced, HammerResult& out) {
  std::size_t si = 0;
  std::size_t ri = 0;
  int seen = -1;  // newest slice marked
  out.marks.assign(static_cast<std::size_t>(shared.slices) + 1, {});
  const std::uint64_t start = steady_now_ns();
  for (std::uint64_t batch = 0;; ++batch) {
    sleep_until_ns(start + batch * kHammerBatchNs);
    const int phase = shared.phase.load(std::memory_order_acquire);
    const auto mark = [&](int s) {
      out.marks[static_cast<std::size_t>(s)] = {
          true, thread_cpu_ns(), out.scalar_ops + out.record_ops,
          steady_now_ns()};
    };
    if (phase == kStopped) {
      if (seen >= 0) mark(shared.slices);
      return;
    }
    const int slice = shared.slice.load(std::memory_order_acquire);
    if (phase == kMeasure && slice != seen) {
      mark(slice);
      seen = slice;
    }
    const bool timed = traced && seen >= 0;
    const std::uint64_t ta = timed ? steady_now_ns() : 0;
    for (std::uint64_t k = 0; k < plan.scalars_per_batch; ++k) {
      fleet.scalars[plan.order[si]]->increment(kHammerPid);
      if (++si == plan.order.size()) si = 0;
    }
    const std::uint64_t tb = timed ? steady_now_ns() : 0;
    for (std::uint64_t k = 0; k < plan.records_per_batch; ++k) {
      const HammerPlan::Record& r = plan.records[ri];
      fleet.histograms[r.hist]->record(kHammerPid, r.value);
      if (++ri == plan.records.size()) ri = 0;
    }
    if (timed) {
      const std::uint64_t tc = steady_now_ns();
      out.scalar_ns.push_back(static_cast<double>(tb - ta) /
                              static_cast<double>(plan.scalars_per_batch));
      if (plan.records_per_batch > 0) {
        out.record_ns.push_back(static_cast<double>(tc - tb) /
                                static_cast<double>(plan.records_per_batch));
      }
    }
    out.scalar_ops += plan.scalars_per_batch;
    out.record_ops += plan.records_per_batch;
  }
}

struct ProberResult {
  std::vector<std::int64_t> late_ns;  // per event: send time − due time
  std::array<std::uint64_t, kProbes> probe_counts{};
  std::vector<std::pair<std::string, shard::AnyCounter*>> created;
  std::vector<double> create_us;
};

std::string churn_name(bool inside, Rng& rng, std::size_t index) {
  unsigned family = 0;
  if (inside) {
    family = kFilterFamilies[rng.below(kFilterFamilies.size())];
  } else {
    do {
      family = static_cast<unsigned>(rng.below(kFamilies));
    } while (is_filter_family(family));
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "f%02u/n%06llx_%zu", family,
                static_cast<unsigned long long>(rng.next() & 0xFFFFFF), index);
  return buf;
}

/// Open loop: probe j is due at start + j·1.3 ms + seeded jitter and is
/// timed from that due time, so a stalled prober shows as latency.
void run_prober(const WorkloadSpec& spec, Fleet& fleet, Shared& shared,
                std::uint64_t seed, ProberResult& out) {
  Rng rng(seed ^ 0x70726f6265ull);
  out.late_ns.assign(shared.events.size(), 0);
  const std::uint64_t start = steady_now_ns();
  for (std::size_t j = 0; j < shared.events.size(); ++j) {
    const std::uint64_t due =
        start + j * kProbeSpacingNs + rng.below(kProbeJitterNs);
    sleep_until_ns(due);
    if (shared.phase.load(std::memory_order_acquire) == kStopped) return;
    out.late_ns[j] = static_cast<std::int64_t>(steady_now_ns() - due);
    const auto p = static_cast<std::uint32_t>(j % kProbes);
    shared.events[j] = {p, ++out.probe_counts[p], due};
    // Published before the increment: a subscriber that sees the new
    // value already knows which event it completes.
    shared.published.store(j + 1, std::memory_order_release);
    fleet.probes[p]->increment(kProberPid);
    if (spec.families && j % kChurnEveryProbes == kChurnEveryProbes - 1) {
      std::string name =
          churn_name(out.created.size() % 2 == 0, rng, out.created.size());
      const std::uint64_t t0 = steady_now_ns();
      shard::AnyCounter* counter =
          fleet.registry.get_or_create(name, spec.scalar_spec);
      out.create_us.push_back(static_cast<double>(steady_now_ns() - t0) / 1e3);
      counter->increment(kProberPid);
      out.created.emplace_back(std::move(name), counter);
    }
  }
}

struct SubResult {
  std::vector<std::int64_t> seen_ns;  // per event: first sighting − due
  std::vector<std::int64_t> wait_ns;  // per event: revealing stamp − due
  std::vector<double> stamp_to_apply_us;
  std::vector<double> tick_interval_us;
  // Per-slice tallies of the window.
  std::vector<std::uint64_t> frames;
  std::vector<std::uint64_t> full_frames;
  std::vector<std::uint64_t> wire_bytes;  // TCP bytes + shm frame bytes
  std::vector<std::uint64_t> shm_frames;
  bool dropped = false;
  std::atomic<std::uint64_t> view_seq{0};
  std::atomic<std::size_t> sighted{0};
};

std::uint64_t wire_bytes(const svc::TelemetryClient& client) {
  return client.bytes_received() + client.shm_frame_bytes();
}

void run_subscriber(Subscriber& sub, const Fleet& fleet, Shared& shared,
                    SubResult& out) {
  svc::TelemetryClient& client = sub.client;
  const svc::MaterializedView& view = client.view();
  std::array<std::vector<std::uint32_t>, kProbes> pending;
  std::array<std::size_t, kProbes> head{};
  std::array<std::size_t, kProbes> index{};
  std::uint64_t indexed_fulls = ~std::uint64_t{0};
  std::size_t known = 0;
  std::uint64_t prev_bytes = wire_bytes(client);
  std::uint64_t prev_shm = client.shm_frames();
  std::uint64_t prev_fulls = view.full_frames();
  std::uint64_t prev_stamp = view.last_collect_ns();
  while (!shared.subs_stop.load(std::memory_order_acquire)) {
    if (!client.poll_frame(std::chrono::milliseconds(20))) {
      if (!client.connected()) {
        out.dropped = true;
        return;
      }
      continue;
    }
    const std::uint64_t now = steady_now_ns();
    const std::uint64_t stamp = view.last_collect_ns();
    if (shared.phase.load(std::memory_order_acquire) == kMeasure) {
      const auto s = static_cast<std::size_t>(
          shared.slice.load(std::memory_order_acquire));
      ++out.frames[s];
      out.full_frames[s] += view.full_frames() - prev_fulls;
      out.wire_bytes[s] += wire_bytes(client) - prev_bytes;
      out.shm_frames[s] += client.shm_frames() - prev_shm;
      out.stamp_to_apply_us.push_back(
          static_cast<double>(client.last_latency_ns()) / 1e3);
      if (prev_stamp != 0 && stamp > prev_stamp) {
        out.tick_interval_us.push_back(
            static_cast<double>(stamp - prev_stamp) / 1e3);
      }
    }
    prev_bytes = wire_bytes(client);
    prev_shm = client.shm_frames();
    prev_fulls = view.full_frames();
    prev_stamp = stamp;
    out.view_seq.store(view.sequence(), std::memory_order_release);

    const std::size_t published =
        shared.published.load(std::memory_order_acquire);
    for (; known < published; ++known) {
      pending[shared.events[known].probe].push_back(
          static_cast<std::uint32_t>(known));
    }
    if (view.full_frames() != indexed_fulls) {  // a full re-based the table
      indexed_fulls = view.full_frames();
      for (unsigned p = 0; p < kProbes; ++p) {
        index[p] = find_entry(view.samples(), fleet.probe_names[p]);
      }
    }
    for (unsigned p = 0; p < kProbes; ++p) {
      if (index[p] == kAbsent) continue;
      const std::uint64_t value = view.samples()[index[p]].value;
      for (; head[p] < pending[p].size(); ++head[p]) {
        const std::uint32_t j = pending[p][head[p]];
        const ProbeEvent& event = shared.events[j];
        if (event.target > value) break;
        out.seen_ns[j] = static_cast<std::int64_t>(now - event.due_ns);
        out.wait_ns[j] = static_cast<std::int64_t>(stamp - event.due_ns);
        out.sighted.fetch_add(1, std::memory_order_release);
      }
    }
  }
}

// --- tracer --------------------------------------------------------------

/// One registry entry as its collect pass reads it (exactly one set).
struct Handle {
  shard::AnyCounter* counter = nullptr;
  shard::AnyHistogram* hist = nullptr;
};

struct KindHandles {
  std::uint64_t version = 0;  // registry version the lists reflect
  std::array<std::vector<Handle>, kKinds> by_kind;
};

/// Every entry of a collected frame, by kind, through the registry's own
/// lookups, so the read sweeps cover the pass. Top-k entries are left
/// out: their snapshot uses a single-reader scratch that only the
/// registry's lock may drive.
KindHandles handles_of(const Registry& registry,
                       const shard::TelemetryFrame& frame) {
  KindHandles h;
  h.version = frame.registry_version;
  for (const shard::Sample& s : frame.samples) {
    const bool reserved = shard::is_reserved_name(s.name);
    switch (s.model) {
      case shard::ErrorModel::kMultiplicative:
      case shard::ErrorModel::kExact:
      case shard::ErrorModel::kAdditive: {
        const Kind kind =
            reserved || s.model == shard::ErrorModel::kAdditive ? kOther
            : s.model == shard::ErrorModel::kExact              ? kExactKind
                                                                : kKmult;
        h.by_kind[kind].push_back({registry.lookup(s.name), nullptr});
        break;
      }
      case shard::ErrorModel::kHistogram:
        h.by_kind[reserved ? kOther : kHist].push_back(
            {nullptr, registry.lookup_histogram(s.name)});
        break;
      case shard::ErrorModel::kTopK:
        break;
    }
  }
  return h;
}

struct CollectSamples {
  std::array<std::vector<double>, kKinds> read_ns;     // per-entry read
  std::array<std::vector<double>, kKinds> collect_ns;  // pass share/entry
  std::vector<double> pass_us;
};

/// Median of the observations a bucket-count delta holds, interpolated
/// inside its bucket (the overflow bucket is read as 4× its lower edge,
/// the `__sys/` layout's factor).
double bucket_median(const std::vector<std::uint64_t>& bounds,
                     const std::vector<std::uint64_t>& counts) {
  const double total = static_cast<double>(
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}));
  if (total == 0.0) return 0.0;
  const double rank = total / 2.0;
  double below = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double count = static_cast<double>(counts[i]);
    if (count > 0.0 && below + count >= rank) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double hi = i < bounds.size() ? static_cast<double>(bounds[i])
                                          : 4.0 * lo;
      return lo + (hi - lo) * (rank - below) / count;
    }
    below += count;
  }
  return 0.0;
}

constexpr const char* kStageNames[3] = {"__sys/server.tick.collect_ns",
                                        "__sys/server.tick.encode_ns",
                                        "__sys/server.tick.flush_ns"};

/// Traced-run spans, taken from the main thread about once per tick with
/// the spare tracer pid: the registry collect pass and changed walk,
/// per-kind reads, wire encode and view apply, on the served registry.
/// Kinds the workload's fleet or hammer lacks are timed on a small side
/// fleet the tracer owns, so every per-layer metric exists on every
/// workload.
class Tracer {
 public:
  explicit Tracer(const WorkloadSpec& spec) : spec_(spec) {
    const stats::HistogramSpec hist_spec = histogram_spec();
    for (unsigned i = 0; i < 64; ++i) {
      side_kmult_.push_back(&side_.create(
          "side/k" + std::to_string(i),
          {shard::ErrorModel::kMultiplicative, 2, 4}));
      side_exact_.push_back(&side_.create(
          "side/e" + std::to_string(i), {shard::ErrorModel::kExact, 1, 1}));
    }
    for (unsigned h = 0; h < 4; ++h) {
      side_hists_.push_back(stats::create_histogram(
          side_, "side/h" + std::to_string(h), hist_spec));
    }
    for (unsigned rep = 0; rep < 8192; ++rep) {
      for (shard::AnyCounter* c : side_kmult_) c->increment(kTracerPid);
      for (shard::AnyCounter* c : side_exact_) c->increment(kTracerPid);
    }
    for (unsigned rep = 0; rep < 1024; ++rep) {
      for (shard::AnyHistogram* h : side_hists_) h->record(kTracerPid, rep);
    }
  }

  /// Window start: the `__sys/` stage-histogram baseline.
  void begin(const Rig& rig) { stage_base_ = stage_counts(rig); }

  void step(const Rig& rig) {
    time_collect(rig.fleet.registry, served_, frame_, served_costs_);
    time_collect(side_, side_handles_, side_frame_, side_costs_);
    time_wire(rig);
    time_side_ops();
    ++steps_;
  }

  /// Window end: `__sys/` stage p50s over the window.
  void end(const Rig& rig) {
    const auto final_counts = stage_counts(rig);
    for (std::size_t s = 0; s < stage_us_.size(); ++s) {
      std::vector<std::uint64_t> delta = final_counts[s];
      for (std::size_t b = 0; b < delta.size() && b < stage_base_[s].size();
           ++b) {
        delta[b] -= std::min(delta[b], stage_base_[s][b]);
      }
      stage_us_[s] = bucket_median(stage_bounds_, delta) / 1e3;
    }
  }

  /// Per-kind figures: served where the workload has the kind, else side.
  double read_ns(Kind kind) const {
    return median(kind_source(kind).read_ns[kind]);
  }
  double collect_ns(Kind kind) const {
    return median(kind_source(kind).collect_ns[kind]);
  }
  const char* source(Kind kind) const {
    return &kind_source(kind) == &served_costs_ ? "served" : "side";
  }
  double collect_pass_us() const { return median(served_costs_.pass_us); }
  double changed_walk_us() const { return median(walk_us_); }
  double encode_full_us() const { return median(encode_full_us_); }
  double full_frame_bytes() const { return median(full_bytes_); }
  double encode_delta_ns_per_byte() const {
    return median(encode_delta_ns_per_byte_);
  }
  double delta_frame_bytes() const { return median(delta_bytes_); }
  double apply_ns_per_byte() const { return median(apply_ns_per_byte_); }
  double side_increment_ns(Kind kind) const {
    return median(side_increment_ns_[kind]);
  }
  double side_create_us() const { return median(side_create_us_); }
  double stage_us(std::size_t stage) const { return stage_us_[stage]; }
  unsigned apply_errors() const { return apply_errors_; }

 private:
  const CollectSamples& kind_source(Kind kind) const {
    return served_costs_.read_ns[kind].empty() ? side_costs_ : served_costs_;
  }

  /// ns per call of `call(i)` for i in [0, n), repeated until at least
  /// kMinSweepCalls calls ran.
  template <typename Call>
  static double sweep_ns(std::size_t n, Call&& call) {
    if (n == 0) return 0.0;
    const std::size_t passes = (kMinSweepCalls + n - 1) / n;
    const std::uint64_t t0 = steady_now_ns();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < n; ++i) call(i);
    }
    return static_cast<double>(steady_now_ns() - t0) /
           static_cast<double>(passes * n);
  }

  /// The per-entry read a collect pass makes, from the tracer pid.
  void read(const Handle& h) {
    if (h.counter != nullptr) {
      sink_ += h.counter->read(kTracerPid);
    } else {
      h.hist->snapshot_into(kTracerPid, counts_);
      sink_ += counts_.front();
    }
  }

  /// One snapshot_all_into pass, then a read sweep over each kind's
  /// entries; the pass is split across kinds in proportion to their
  /// sweep cost, giving collect ns per entry of each kind.
  void time_collect(const Registry& registry, KindHandles& h,
                    shard::TelemetryFrame& frame, CollectSamples& out) {
    const std::uint64_t t0 = steady_now_ns();
    frame.registry_version = registry.snapshot_all_into(
        kTracerPid, frame.samples, frame.registry_version);
    const auto pass_ns = static_cast<double>(steady_now_ns() - t0);
    out.pass_us.push_back(pass_ns / 1e3);
    if (h.version != frame.registry_version) h = handles_of(registry, frame);
    std::array<double, kKinds> read_ns{};
    double swept = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      const std::vector<Handle>& list = h.by_kind[k];
      read_ns[k] = sweep_ns(list.size(),
                            [&](std::size_t i) { read(list[i]); });
      swept += read_ns[k] * static_cast<double>(list.size());
    }
    for (int k = 0; k < kReportedKinds; ++k) {
      if (h.by_kind[k].empty()) continue;
      out.read_ns[k].push_back(read_ns[k]);
      out.collect_ns[k].push_back(read_ns[k] * pass_ns / swept);
    }
  }

  /// Changed-since walk over the last tick, full and delta encode of the
  /// tracer's own collect, and MaterializedView::apply of the delta.
  void time_wire(const Rig& rig) {
    const std::uint64_t seq = rig.server->aggregator().frames_collected();
    if (seq < 2) return;
    changed_.clear();
    const std::uint64_t t0 = steady_now_ns();
    const auto label = rig.fleet.registry.for_each_changed_since(
        seq - 1, frame_.registry_version,
        [&](std::size_t index, const std::string&, std::uint64_t value,
            std::uint64_t, const std::vector<std::uint64_t>* counts,
            const std::vector<std::string>* labels) {
          changed_.emplace_back(
              index, value,
              counts != nullptr ? *counts : std::vector<std::uint64_t>{},
              labels != nullptr ? *labels : std::vector<std::string>{});
        });
    const std::uint64_t t1 = steady_now_ns();
    if (!label || *label < 2) return;  // a create moved the table: skip
    walk_us_.push_back(static_cast<double>(t1 - t0) / 1e3);

    frame_.sequence = *label - 1;
    const std::uint64_t t2 = steady_now_ns();
    svc::encode_full_frame(frame_, t2, full_);
    const std::uint64_t t3 = steady_now_ns();
    svc::encode_delta_frame(*label, frame_.registry_version, t3, *label - 1,
                            changed_, delta_);
    const std::uint64_t t4 = steady_now_ns();
    encode_full_us_.push_back(static_cast<double>(t3 - t2) / 1e3);
    full_bytes_.push_back(static_cast<double>(full_.size()));
    encode_delta_ns_per_byte_.push_back(static_cast<double>(t4 - t3) /
                                        static_cast<double>(delta_.size()));
    delta_bytes_.push_back(static_cast<double>(delta_.size()));

    svc::MaterializedView view;
    const std::string_view full_payload =
        std::string_view(full_).substr(svc::kFramePrefixBytes);
    const std::string_view delta_payload =
        std::string_view(delta_).substr(svc::kFramePrefixBytes);
    if (view.apply(full_payload) != svc::ApplyResult::kApplied) {
      ++apply_errors_;
      return;
    }
    const std::uint64_t t5 = steady_now_ns();
    const svc::ApplyResult applied = view.apply(delta_payload);
    const std::uint64_t t6 = steady_now_ns();
    if (applied != svc::ApplyResult::kApplied) {
      ++apply_errors_;
      return;
    }
    apply_ns_per_byte_.push_back(static_cast<double>(t6 - t5) /
                                 static_cast<double>(delta_payload.size()));
  }

  /// Counter ops on the side fleet for kinds the hammer does not drive,
  /// and registry creates where the workload has no churn.
  void time_side_ops() {
    if (spec_.scalar_spec.model != shard::ErrorModel::kMultiplicative) {
      side_increment_ns_[kKmult].push_back(
          sweep_ns(side_kmult_.size(), [&](std::size_t i) {
            side_kmult_[i]->increment(kTracerPid);
          }));
    }
    if (spec_.scalar_spec.model != shard::ErrorModel::kExact) {
      side_increment_ns_[kExactKind].push_back(
          sweep_ns(side_exact_.size(), [&](std::size_t i) {
            side_exact_[i]->increment(kTracerPid);
          }));
    }
    if (spec_.histograms == 0) {
      side_increment_ns_[kHist].push_back(
          sweep_ns(side_hists_.size(), [&](std::size_t i) {
            side_hists_[i]->record(kTracerPid,
                                   (steps_ * 131 + i * 977) % 40000);
          }));
    }
    if (!spec_.families && steps_ % 10 == 0) {
      const std::string name = "side/n" + std::to_string(steps_);
      const std::uint64_t t0 = steady_now_ns();
      (void)side_.create(name, {shard::ErrorModel::kExact, 1, 1});
      side_create_us_.push_back(static_cast<double>(steady_now_ns() - t0) /
                                1e3);
    }
  }

  /// Cumulative bucket counts of the server's `__sys/` stage histograms.
  std::array<std::vector<std::uint64_t>, 3> stage_counts(const Rig& rig) {
    frame_.registry_version = rig.fleet.registry.snapshot_all_into(
        kTracerPid, frame_.samples, frame_.registry_version);
    std::array<std::vector<std::uint64_t>, 3> counts;
    for (std::size_t s = 0; s < counts.size(); ++s) {
      const std::size_t i = find_entry(frame_.samples, kStageNames[s]);
      if (i == kAbsent) continue;
      counts[s] = frame_.samples[i].bucket_counts;
      stage_bounds_ = frame_.samples[i].bucket_bounds;
    }
    return counts;
  }

  const WorkloadSpec& spec_;
  Registry side_{kPids};
  std::vector<shard::AnyCounter*> side_kmult_;
  std::vector<shard::AnyCounter*> side_exact_;
  std::vector<shard::AnyHistogram*> side_hists_;
  KindHandles side_handles_;
  KindHandles served_;
  shard::TelemetryFrame frame_;
  shard::TelemetryFrame side_frame_;
  CollectSamples served_costs_;
  CollectSamples side_costs_;
  std::vector<svc::DeltaEntry> changed_;
  std::string full_;
  std::string delta_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t sink_ = 0;  // keeps timed reads observable
  std::uint64_t steps_ = 0;
  unsigned apply_errors_ = 0;
  std::vector<double> walk_us_;
  std::vector<double> encode_full_us_;
  std::vector<double> full_bytes_;
  std::vector<double> encode_delta_ns_per_byte_;
  std::vector<double> delta_bytes_;
  std::vector<double> apply_ns_per_byte_;
  std::array<std::vector<double>, kKinds> side_increment_ns_;
  std::vector<double> side_create_us_;
  std::array<std::vector<std::uint64_t>, 3> stage_base_;
  std::vector<std::uint64_t> stage_bounds_;
  std::array<double, 3> stage_us_{};
};

// --- one measured window -------------------------------------------------

struct WindowSummary {
  double window_s = 0.0;
  std::uint64_t attempted = 0;  // probe events × subscribers
  std::uint64_t misses = 0;     // not seen within 1 s of due
  double visible_p50_us = 0.0;
  double visible_p99_us = 0.0;
  double visible_p90_us = 0.0;
  double tick_wait_us = 0.0;
  double probe_late_p99_us = 0.0;
  double frames_per_s_per_sub = 0.0;
  double full_frames_per_s_per_sub = 0.0;
  double wire_bytes_per_frame = 0.0;
  double shm_frame_share = 0.0;
  double stamp_to_apply_p50_us = 0.0;
  double stamp_to_apply_p99_us = 0.0;
  double tick_interval_p50_us = 0.0;
  double tick_interval_p99_us = 0.0;
  double server_cpu_us_per_tick = 0.0;  // median of slices
  double collector_us_per_tick = 0.0;   // whole window
  double io_us_per_tick = 0.0;
  double group_encodes_per_tick = 0.0;
  double frames_coalesced = 0.0;
  double increment_cpu_ns = 0.0;
  double hammer_achieved_rate = 0.0;
  bool gate_ok = true;
  std::string gate_report;  // one line per subscriber
};

struct WindowRun {
  HammerResult hammer;
  ProberResult prober;
  WindowSummary summary;
};

Truth build_truth(const WorkloadSpec& spec, const Fleet& fleet,
                  const HammerPlan& plan, const HammerResult& hammer,
                  const ProberResult& prober) {
  Truth truth;
  std::vector<std::uint64_t> counts(fleet.scalars.size(), 0);
  const std::uint64_t cycles = hammer.scalar_ops / plan.order.size();
  const std::uint64_t rest = hammer.scalar_ops % plan.order.size();
  for (std::size_t j = 0; j < plan.order.size(); ++j) {
    counts[plan.order[j]] += cycles + (j < rest ? 1 : 0);
  }
  for (std::size_t i = 0; i < fleet.scalars.size(); ++i) {
    truth[fleet.names[i]] = {spec.scalar_spec.model, counts[i], {},
                             fleet.scalars[i]->accuracy_guaranteed()};
  }
  if (!plan.records.empty()) {
    std::vector<std::vector<std::uint64_t>> buckets(
        fleet.histograms.size(),
        std::vector<std::uint64_t>(fleet.hist_bounds.size() + 1, 0));
    const std::uint64_t rcycles = hammer.record_ops / plan.records.size();
    const std::uint64_t rrest = hammer.record_ops % plan.records.size();
    for (std::size_t j = 0; j < plan.records.size(); ++j) {
      const HammerPlan::Record& r = plan.records[j];
      buckets[r.hist][r.bucket] += rcycles + (j < rrest ? 1 : 0);
    }
    for (std::size_t h = 0; h < fleet.histograms.size(); ++h) {
      truth[fleet.names[fleet.scalars.size() + h]] = {
          shard::ErrorModel::kHistogram, 0, std::move(buckets[h]), true};
    }
  }
  for (unsigned p = 0; p < kProbes; ++p) {
    truth[fleet.probe_names[p]] = {shard::ErrorModel::kExact,
                                   prober.probe_counts[p], {}, true};
  }
  for (const auto& [name, counter] : prober.created) {
    truth[name] = {shard::ErrorModel::kExact, 1, {}, true};
  }
  return truth;
}

/// Warm-up, one measured window of `seconds`, then the drain and the
/// correctness gate. With a tracer, the main thread takes its spans
/// during the window.
WindowRun run_window(const WorkloadSpec& spec, Rig& rig, std::uint64_t seed,
                     unsigned seconds, Tracer* tracer) {
  const auto slices = static_cast<std::size_t>(seconds);
  const std::size_t capacity =
      (kWarmupNs + seconds * kSecondNs + 2 * kSecondNs) / kProbeSpacingNs +
      64;
  Shared shared(capacity, static_cast<int>(slices));
  std::array<SubResult, 2> subs;
  for (SubResult& r : subs) {
    r.seen_ns.assign(capacity, -1);
    r.wait_ns.assign(capacity, -1);
    for (auto* tally :
         {&r.frames, &r.full_frames, &r.wire_bytes, &r.shm_frames}) {
      tally->assign(slices, 0);
    }
  }
  const HammerPlan plan = make_plan(spec, rig.fleet, seed);
  WindowRun run;
  // Slice s spans [edges[s], edges[s + 1]); stats[s] is read at edges[s].
  std::vector<std::uint64_t> edges(slices + 1);
  std::vector<svc::ServerStats> stats(slices + 1);
  {
    std::array<std::jthread, 2> sub_threads;
    for (std::size_t s = 0; s < subs.size(); ++s) {
      sub_threads[s] = std::jthread([&, s] {
        run_subscriber(rig.subs[s], rig.fleet, shared, subs[s]);
      });
    }
    std::jthread hammer([&] {
      run_hammer(plan, rig.fleet, shared, tracer != nullptr, run.hammer);
    });
    std::jthread prober(
        [&] { run_prober(spec, rig.fleet, shared, seed, run.prober); });

    sleep_until_ns(steady_now_ns() + kWarmupNs);
    stats[0] = rig.server->stats();
    edges[0] = steady_now_ns();
    shared.phase.store(kMeasure, std::memory_order_release);
    if (tracer != nullptr) tracer->begin(rig);
    for (std::size_t s = 0; s < slices; ++s) {
      const std::uint64_t until = edges[0] + (s + 1) * kSecondNs;
      if (tracer != nullptr) {
        while (steady_now_ns() < until) {
          tracer->step(rig);
          std::this_thread::sleep_for(kPeriod);
        }
      } else {
        sleep_until_ns(until);
      }
      stats[s + 1] = rig.server->stats();
      edges[s + 1] = steady_now_ns();
      if (s + 1 < slices) {
        shared.slice.store(static_cast<int>(s + 1), std::memory_order_release);
      }
    }
    if (tracer != nullptr) tracer->end(rig);
    shared.phase.store(kStopped, std::memory_order_release);
    hammer.join();
    prober.join();

    // Drain: each subscriber applies a frame collected after the load
    // stopped, and sights every probe (or the miss deadline passes).
    const std::uint64_t settled_seq =
        rig.server->aggregator().frames_collected() + 2;
    const std::size_t published = shared.published.load();
    const std::uint64_t deadline = steady_now_ns() + kMissAfterNs;
    while (steady_now_ns() < deadline) {
      bool settled = true;
      for (const SubResult& r : subs) {
        settled = settled && r.view_seq.load() >= settled_seq &&
                  r.sighted.load() >= published;
      }
      if (settled) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    shared.subs_stop.store(true, std::memory_order_release);
  }

  WindowSummary& w = run.summary;
  const std::uint64_t t_start = edges.front();
  const std::uint64_t t_end = edges.back();
  w.window_s = static_cast<double>(t_end - t_start) / 1e9;

  // Visibility per slice, pooled over both subscribers. A probe not seen
  // within 1 s of its due time is a miss and counts as 1 s late.
  std::vector<std::vector<double>> visible(slices);
  std::vector<double> waits;
  std::vector<double> late;
  const std::size_t published = shared.published.load();
  for (std::size_t j = 0; j < published; ++j) {
    const std::uint64_t due = shared.events[j].due_ns;
    if (due < t_start || due >= t_end) continue;
    const auto s = static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), due) - edges.begin() - 1);
    late.push_back(static_cast<double>(run.prober.late_ns[j]) / 1e3);
    for (const SubResult& r : subs) {
      ++w.attempted;
      const std::int64_t seen = r.seen_ns[j];
      if (seen < 0 || static_cast<std::uint64_t>(seen) > kMissAfterNs) {
        ++w.misses;
        visible[s].push_back(static_cast<double>(kMissAfterNs) / 1e3);
      } else {
        visible[s].push_back(static_cast<double>(seen) / 1e3);
        waits.push_back(static_cast<double>(r.wait_ns[j]) / 1e3);
      }
    }
  }
  w.tick_wait_us = median(waits);
  w.probe_late_p99_us = percentile(late, 0.99);

  // Each end-to-end figure is the median of its per-slice values, so a
  // host stall that hits one slice does not move it.
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> p90;
  std::vector<double> fps;
  std::vector<double> bytes_per_frame;
  std::vector<double> cpu_per_tick;
  std::vector<double> inc_ns;
  std::uint64_t frames = 0;
  std::uint64_t fulls = 0;
  std::uint64_t shm_frames = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    std::uint64_t slice_frames = 0;
    std::uint64_t slice_bytes = 0;
    for (const SubResult& r : subs) {
      slice_frames += r.frames[s];
      slice_bytes += r.wire_bytes[s];
      fulls += r.full_frames[s];
      shm_frames += r.shm_frames[s];
    }
    frames += slice_frames;
    const double sub_s = static_cast<double>(edges[s + 1] - edges[s]) / 1e9 *
                         static_cast<double>(subs.size());
    p50.push_back(percentile(visible[s], 0.50));
    p99.push_back(percentile(visible[s], 0.99));
    p90.push_back(percentile(visible[s], 0.90));
    fps.push_back(ratio(static_cast<double>(slice_frames), sub_s));
    bytes_per_frame.push_back(ratio(static_cast<double>(slice_bytes),
                                    static_cast<double>(slice_frames)));
    const svc::ServerStats& a = stats[s];
    const svc::ServerStats& b = stats[s + 1];
    cpu_per_tick.push_back(
        ratio(static_cast<double>(b.collector_cpu_ns + b.io_cpu_ns -
                                  a.collector_cpu_ns - a.io_cpu_ns) /
                  1e3,
              static_cast<double>(b.frames_collected - a.frames_collected)));
    const HammerMark& m0 = run.hammer.marks[s];
    const HammerMark& m1 = run.hammer.marks[s + 1];
    if (m0.set && m1.set && m1.ops > m0.ops) {
      inc_ns.push_back(static_cast<double>(m1.cpu_ns - m0.cpu_ns) /
                       static_cast<double>(m1.ops - m0.ops));
    }
  }
  for (const auto& [label, values] :
       {std::pair{"p50", &p50}, {"p90", &p90}, {"fps", &fps},
        {"cpu", &cpu_per_tick}, {"bytes", &bytes_per_frame},
        {"inc", &inc_ns}}) {
    std::printf("slices %s:", label);
    for (const double v : *values) std::printf(" %.2f", v);
    std::printf("\n");
  }
  w.visible_p50_us = median(p50);
  w.visible_p99_us = median(p99);
  w.visible_p90_us = median(p90);
  w.frames_per_s_per_sub = median(fps);
  w.wire_bytes_per_frame = median(bytes_per_frame);
  w.server_cpu_us_per_tick = median(cpu_per_tick);
  w.increment_cpu_ns = median(inc_ns);

  // Whole-window figures for the per-layer report.
  std::vector<double> stamp_to_apply;
  std::vector<double> intervals;
  for (const SubResult& r : subs) {
    stamp_to_apply.insert(stamp_to_apply.end(), r.stamp_to_apply_us.begin(),
                          r.stamp_to_apply_us.end());
    intervals.insert(intervals.end(), r.tick_interval_us.begin(),
                     r.tick_interval_us.end());
  }
  const double subscriber_s = w.window_s * static_cast<double>(subs.size());
  w.full_frames_per_s_per_sub = ratio(static_cast<double>(fulls), subscriber_s);
  w.shm_frame_share =
      ratio(static_cast<double>(shm_frames), static_cast<double>(frames));
  w.stamp_to_apply_p50_us = percentile(stamp_to_apply, 0.50);
  w.stamp_to_apply_p99_us = percentile(stamp_to_apply, 0.99);
  w.tick_interval_p50_us = percentile(intervals, 0.50);
  w.tick_interval_p99_us = percentile(intervals, 0.99);

  const svc::ServerStats& before = stats.front();
  const svc::ServerStats& after = stats.back();
  const auto ticks =
      static_cast<double>(after.frames_collected - before.frames_collected);
  w.collector_us_per_tick = ratio(
      static_cast<double>(after.collector_cpu_ns - before.collector_cpu_ns) /
          1e3,
      ticks);
  w.io_us_per_tick = ratio(
      static_cast<double>(after.io_cpu_ns - before.io_cpu_ns) / 1e3, ticks);
  w.group_encodes_per_tick =
      ratio(static_cast<double>(
                after.filtered_full_encodes + after.filtered_delta_encodes -
                before.filtered_full_encodes - before.filtered_delta_encodes),
            ticks);
  w.frames_coalesced =
      static_cast<double>(after.frames_coalesced - before.frames_coalesced);
  const HammerMark& first = run.hammer.marks.front();
  const HammerMark& last = run.hammer.marks.back();
  if (first.set && last.set) {
    w.hammer_achieved_rate = ratio(static_cast<double>(last.ops - first.ops),
                                   static_cast<double>(last.ns - first.ns) /
                                       1e9);
  }

  // The gate: every subscriber's final view against the tracked truth,
  // then planted faults to show the checker is not vacuous.
  const Truth truth =
      build_truth(spec, rig.fleet, plan, run.hammer, run.prober);
  for (std::size_t s = 0; s < subs.size(); ++s) {
    const Subscriber& sub = rig.subs[s];
    const std::vector<shard::Sample>& view = sub.client.view().samples();
    const GateResult gate = check_view(view, truth, sub.filter);
    unsigned planted = 0;
    const unsigned missed =
        planted_faults_missed(view, truth, sub.filter, planted);
    const bool ok = gate.ok && !subs[s].dropped && planted >= 2 && missed == 0;
    char line[512];
    std::snprintf(line, sizeof line,
                  "  gate subscriber %zu: %s, %zu entries checked%s%s%s; "
                  "planted faults caught %u/%u\n",
                  s + 1, ok ? "pass" : "FAIL", gate.checked,
                  gate.ok ? "" : ", first violation: ",
                  gate.violation.c_str(),
                  subs[s].dropped ? ", connection dropped" : "",
                  planted - missed, planted);
    w.gate_report += line;
    w.gate_ok = w.gate_ok && ok;
  }
  return run;
}

void print_window(const char* label, const WorkloadSpec& spec,
                  const WindowSummary& w) {
  std::printf(
      "%s window %.2f s: visible samples %llu (%u probes x 2 subscribers), "
      "misses %llu (probe_miss_ratio %.6f)\n",
      label, w.window_s, static_cast<unsigned long long>(w.attempted),
      kProbes, static_cast<unsigned long long>(w.misses),
      ratio(static_cast<double>(w.misses), static_cast<double>(w.attempted)));
  std::printf("  visible_p90_us %.1f, visible_p99_us %.1f (medians of 1 s "
              "slices; unbounded, they follow host wake-up delay)\n",
              w.visible_p90_us, w.visible_p99_us);
  std::printf("  probe_late_us p99 %.1f; hammer achieved %.0f of offered "
              "%.0f ops/s (%.4f); increment_cpu_ns %.2f\n",
              w.probe_late_p99_us, w.hammer_achieved_rate, spec.hammer_rate,
              ratio(w.hammer_achieved_rate, spec.hammer_rate),
              w.increment_cpu_ns);
  std::fputs(w.gate_report.c_str(), stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

int usage() {
  std::fprintf(stderr,
               "usage: pipeline --workload <kmult_fleet|wide_exact|"
               "filtered_churn> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  unsigned seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(value, w.name) == 0) spec = &w;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || spec == nullptr || seconds == 0 || seconds > 60 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  std::printf("workload %s, seed %llu, %u s window, trace %d\n", spec->name,
              static_cast<unsigned long long>(seed), seconds, trace);

  if (trace == 0) {
    // The window runs on the first set-up and the peak RSS is read right
    // after it, before more set-ups can spread the heap over new thread
    // arenas. The remaining set-ups are only timed.
    std::unique_ptr<Rig> rig = set_up(*spec);
    if (!rig) return 1;
    std::vector<double> setups = {rig->setup_s};
    const WindowRun run = run_window(*spec, *rig, seed, seconds, nullptr);
    const double rss_mb = peak_rss_mb();
    rig.reset();
    while (setups.size() < kSetups) {
      rig = set_up(*spec);
      if (!rig) return 1;
      setups.push_back(rig->setup_s);
      rig.reset();
    }
    const WindowSummary& w = run.summary;
    print_window("untraced", *spec, w);
    std::printf("  set-ups (s):");
    for (const double s : setups) std::printf(" %.4f", s);
    std::printf("\n");
    Report e2e;
    e2e.add("visible_p50_us", w.visible_p50_us, "us");
    e2e.add("frames_per_s_per_sub", w.frames_per_s_per_sub, "1/s");
    e2e.add("server_cpu_us_per_tick", w.server_cpu_us_per_tick, "us");
    e2e.add("wire_bytes_per_frame", w.wire_bytes_per_frame, "B");
    e2e.add("setup_s", median(setups), "s");
    e2e.add("rss_mb", rss_mb, "MB");
    e2e.print_table("end-to-end");
    e2e.print_json(w.gate_ok, w.attempted, w.misses);
    return w.gate_ok ? 0 : 1;
  }

  // Traced mode: an untraced window for the overhead baseline, then the
  // traced window on a fresh set-up with the same inputs.
  Tracer tracer(*spec);
  std::unique_ptr<Rig> rig = set_up(*spec);
  if (!rig) return 1;
  const WindowRun untraced = run_window(*spec, *rig, seed, seconds, nullptr);
  rig.reset();
  rig = set_up(*spec);
  if (!rig) return 1;
  const WindowRun traced = run_window(*spec, *rig, seed, seconds, &tracer);
  rig.reset();
  const WindowSummary& u = untraced.summary;
  const WindowSummary& w = traced.summary;
  print_window("untraced", *spec, u);
  print_window("traced", *spec, w);
  std::printf("tracing overhead: visible_p50_us %.1f traced vs %.1f "
              "untraced (%.3fx)\n",
              w.visible_p50_us, u.visible_p50_us,
              ratio(w.visible_p50_us, u.visible_p50_us));
  std::printf("obs cross-check (p50, us): collect stage %.1f vs benchmark "
              "collect pass %.1f; encode stage %.1f vs benchmark full+delta "
              "encode %.1f; flush stage %.1f\n",
              tracer.stage_us(0), tracer.collect_pass_us(),
              tracer.stage_us(1),
              tracer.encode_full_us() + tracer.encode_delta_ns_per_byte() *
                                            tracer.delta_frame_bytes() / 1e3,
              tracer.stage_us(2));
  std::printf("kind sources: kmult %s, exact %s, histogram %s; hammer "
              "drives %s%s; creates on the %s registry\n",
              tracer.source(kKmult), tracer.source(kExactKind),
              tracer.source(kHist), kKindNames[spec->scalar_spec.model ==
                                                       shard::ErrorModel::kExact
                                                   ? kExactKind
                                                   : kKmult],
              spec->histograms > 0 ? " + histogram" : "",
              spec->families ? "served" : "side");
  if (tracer.apply_errors() > 0) {
    std::printf("tracer: %u benchmark-encoded payloads failed to apply\n",
                tracer.apply_errors());
  }

  const bool hammer_kmult =
      spec->scalar_spec.model == shard::ErrorModel::kMultiplicative;
  const auto hammer_or_side = [&](bool hammered,
                                  const std::vector<double>& samples,
                                  Kind kind) {
    return hammered ? median(samples) : tracer.side_increment_ns(kind);
  };
  Report layers;
  layers.add("core.kmult_read_ns", tracer.read_ns(kKmult), "ns");
  layers.add("core.kmult_increment_ns",
             hammer_or_side(hammer_kmult, traced.hammer.scalar_ns, kKmult),
             "ns");
  layers.add("exact.read_ns", tracer.read_ns(kExactKind), "ns");
  layers.add("exact.increment_ns",
             hammer_or_side(!hammer_kmult, traced.hammer.scalar_ns,
                            kExactKind),
             "ns");
  layers.add("stats.histogram_record_ns",
             hammer_or_side(spec->histograms > 0, traced.hammer.record_ns,
                            kHist),
             "ns");
  layers.add("shard.collect_us", tracer.collect_pass_us(), "us");
  for (int k = 0; k < kReportedKinds; ++k) {
    layers.add(std::string("shard.collect_ns_per_entry.") + kKindNames[k],
               tracer.collect_ns(static_cast<Kind>(k)), "ns");
  }
  layers.add("shard.changed_walk_us", tracer.changed_walk_us(), "us");
  layers.add("shard.create_us",
             spec->families ? median(traced.prober.create_us)
                            : tracer.side_create_us(),
             "us");
  layers.add("svc.encode_full_us", tracer.encode_full_us(), "us");
  layers.add("svc.full_frame_bytes", tracer.full_frame_bytes(), "B");
  layers.add("svc.encode_delta_ns_per_byte",
             tracer.encode_delta_ns_per_byte(), "ns/B");
  layers.add("svc.delta_frame_bytes", tracer.delta_frame_bytes(), "B");
  layers.add("svc.apply_ns_per_byte", tracer.apply_ns_per_byte(), "ns/B");
  layers.add("svc.tick_wait_us", w.tick_wait_us, "us");
  layers.add("svc.tick_interval_p50_us", w.tick_interval_p50_us, "us");
  layers.add("svc.tick_interval_p99_us", w.tick_interval_p99_us, "us");
  layers.add("svc.stamp_to_apply_p50_us", w.stamp_to_apply_p50_us, "us");
  layers.add("svc.stamp_to_apply_p99_us", w.stamp_to_apply_p99_us, "us");
  layers.add("svc.collector_cpu_us_per_tick", w.collector_us_per_tick, "us");
  layers.add("svc.io_cpu_us_per_tick", w.io_us_per_tick, "us");
  layers.add("svc.frames_coalesced", w.frames_coalesced, "count");
  layers.add("svc.full_frames_per_s_per_sub", w.full_frames_per_s_per_sub,
             "1/s");
  layers.add("svc.group_encodes_per_tick", w.group_encodes_per_tick, "count");
  layers.add("svc.shm_frame_share", w.shm_frame_share, "ratio");
  layers.add("obs.tick_collect_us", tracer.stage_us(0), "us");
  layers.add("obs.tick_encode_us", tracer.stage_us(1), "us");
  layers.add("obs.tick_flush_us", tracer.stage_us(2), "us");
  layers.add("svc.visible_p90_us", w.visible_p90_us, "us");
  layers.add("svc.visible_p99_us", w.visible_p99_us, "us");
  layers.add("load.probe_late_p99_us", w.probe_late_p99_us, "us");
  layers.add("load.hammer_rate_ratio",
             ratio(w.hammer_achieved_rate, spec->hammer_rate), "ratio");
  // From the untraced window: the traced one also times each batch.
  layers.add("load.increment_cpu_ns", u.increment_cpu_ns, "ns");
  layers.add("trace.visible_p50_us", w.visible_p50_us, "us");
  layers.add("trace.untraced_visible_p50_us", u.visible_p50_us, "us");
  layers.print_table("per-layer (traced window)");
  const bool correct = u.gate_ok && w.gate_ok && tracer.apply_errors() == 0;
  layers.print_json(correct, u.attempted + w.attempted, u.misses + w.misses);
  return correct ? 0 : 1;
}
