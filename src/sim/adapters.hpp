// adapters.hpp — uniform counter/max-register views for measurement code.
//
// Benchmarks, the perturbation harness and the workload driver compare
// several implementations with different concrete APIs. These thin
// adapters present them behind two tiny virtual interfaces. The virtual
// dispatch costs nothing in the step-complexity model (it is local
// computation) and is negligible against a shared-memory operation in
// wall-clock benches.
//
// Backend policy. Every adapter is a template over the Backend policy
// (base/backend.hpp) with the *instrumented* backend as the default: the
// sim pipeline — sim::StepScheduler interleavings, the lin-check history
// drivers, the perturbation experiments and every step-counting bench —
// requires per-primitive yield points and step recording, which only
// InstrumentedBackend provides. The un-suffixed adapter names
// (`KMultCounterAdapter`, ...) are pinned to that backend and are what
// the sim/test code uses. Wall-clock throughput benches instantiate the
// `...AdapterT<base::DirectBackend>` forms explicitly; `instrumented()`
// lets measurement code reject a mismatched instance instead of silently
// reporting zero steps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "core/kadditive_counter.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_max_register.hpp"
#include "core/kmult_unbounded_max_register.hpp"
#include "exact/aach_counter.hpp"
#include "exact/bounded_max_register.hpp"
#include "exact/collect_counter.hpp"
#include "exact/fetch_add_counter.hpp"
#include "exact/snapshot_counter.hpp"
#include "exact/unbounded_max_register.hpp"
#include "shard/sharded_counter.hpp"
#include "stats/histogram.hpp"

namespace approx::sim {

/// A counter under measurement. `k` reports the accuracy parameter the
/// implementation promises (1 = exact) so checkers know what to verify.
class ICounter {
 public:
  virtual ~ICounter() = default;
  virtual void increment(unsigned pid) = 0;
  virtual std::uint64_t read(unsigned pid) = 0;
  [[nodiscard]] virtual std::uint64_t k() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// True iff primitives charge steps (InstrumentedBackend). Step-model
  /// measurement code asserts this; wall-clock code accepts either.
  [[nodiscard]] virtual bool instrumented() const = 0;
};

/// A histogram under measurement (stats layer). `per_bucket_bound`
/// reports the composed one-sided additive slack each bucket count may
/// trail the truth by (0 would mean exact buckets).
class IHistogram {
 public:
  virtual ~IHistogram() = default;
  virtual void record(unsigned pid, std::uint64_t value) = 0;
  virtual void snapshot_into(unsigned pid,
                             std::vector<std::uint64_t>& counts) = 0;
  virtual void flush(unsigned pid) = 0;
  [[nodiscard]] virtual const std::vector<std::uint64_t>& bounds() const = 0;
  [[nodiscard]] virtual std::uint64_t per_bucket_bound() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual bool instrumented() const = 0;
};

/// A max register under measurement.
class IMaxRegister {
 public:
  virtual ~IMaxRegister() = default;
  virtual void write(std::uint64_t value) = 0;
  virtual std::uint64_t read() = 0;
  [[nodiscard]] virtual std::uint64_t k() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual bool instrumented() const = 0;
};

namespace detail {
/// Appends the backend tag to uninstrumented-build adapter names so
/// bench output distinguishes the builds of the same algorithm
/// ("/direct" = seq_cst hot path, "/relaxed" = role-mapped orders).
template <typename Backend>
std::string tag_name(std::string name) {
  if constexpr (!Backend::kInstrumented) {
    name += '/';
    name += Backend::kLabel;
  }
  return name;
}
}  // namespace detail

// ---------------------------------------------------------------------
// Counter adapters
// ---------------------------------------------------------------------

/// Algorithm 1 on either switch schedule; the schedule's label names it
/// ("kmult(k=…)" for the paper's, "kmult-fix(k=…)" for the corrected).
template <typename Backend, typename Schedule>
class SwitchCounterAdapterT final : public ICounter {
 public:
  SwitchCounterAdapterT(unsigned n, std::uint64_t k) : counter_(n, k) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned pid) override { return counter_.read(pid); }
  [[nodiscard]] std::uint64_t k() const override { return counter_.k(); }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>(std::string(Schedule::kLabel) +
                                     "(k=" + std::to_string(counter_.k()) +
                                     ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  core::SwitchCounterT<Backend, Schedule> counter_;
};

template <typename Backend = base::InstrumentedBackend>
using KMultCounterAdapterT =
    SwitchCounterAdapterT<Backend, core::PaperSchedule>;
template <typename Backend = base::InstrumentedBackend>
using KMultCounterCorrectedAdapterT =
    SwitchCounterAdapterT<Backend, core::CorrectedSchedule>;

using KMultCounterAdapter = KMultCounterAdapterT<>;
using KMultCounterCorrectedAdapter = KMultCounterCorrectedAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class CollectCounterAdapterT final : public ICounter {
 public:
  explicit CollectCounterAdapterT(unsigned n) : counter_(n) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned) override { return counter_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("collect");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  exact::CollectCounterT<Backend> counter_;
};

using CollectCounterAdapter = CollectCounterAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class SnapshotCounterAdapterT final : public ICounter {
 public:
  explicit SnapshotCounterAdapterT(unsigned n) : counter_(n) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned) override { return counter_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("snapshot");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  exact::SnapshotCounterT<Backend> counter_;
};

using SnapshotCounterAdapter = SnapshotCounterAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class AachCounterAdapterT final : public ICounter {
 public:
  explicit AachCounterAdapterT(unsigned n) : counter_(n) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned) override { return counter_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("aach");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  exact::AachCounterT<Backend> counter_;
};

using AachCounterAdapter = AachCounterAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class FetchAddCounterAdapterT final : public ICounter {
 public:
  void increment(unsigned) override { counter_.increment(); }
  std::uint64_t read(unsigned) override { return counter_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("fetch&add");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  exact::FetchAddCounterT<Backend> counter_;
};

using FetchAddCounterAdapter = FetchAddCounterAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class KAdditiveCounterAdapterT final : public ICounter {
 public:
  KAdditiveCounterAdapterT(unsigned n, std::uint64_t k) : counter_(n, k) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned) override { return counter_.read(); }
  // Reports k = 1: additive accuracy is a different contract; callers
  // use the additive checker/band directly (see tests and E11).
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("kadditive");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }
  [[nodiscard]] core::KAdditiveCounterT<Backend>& impl() noexcept {
    return counter_;
  }

 private:
  core::KAdditiveCounterT<Backend> counter_;
};

using KAdditiveCounterAdapter = KAdditiveCounterAdapterT<>;

// ---------------------------------------------------------------------
// Sharded-counter adapters (src/shard layer)
// ---------------------------------------------------------------------

/// Sharded corrected k-multiplicative counter. Reports the *composed*
/// accuracy parameter (= k: multiplicative bands survive summation), so
/// the generic k-mult checkers apply to the aggregate unchanged.
template <typename Backend = base::InstrumentedBackend>
class ShardedKMultCounterAdapterT final : public ICounter {
 public:
  ShardedKMultCounterAdapterT(
      unsigned n, std::uint64_t k, unsigned shards,
      shard::ShardPolicy policy = shard::ShardPolicy::kHashPinned)
      : counter_(n, k, shards, policy) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned pid) override { return counter_.read(pid); }
  [[nodiscard]] std::uint64_t k() const override {
    return counter_.error_bound();
  }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>(
        "sharded-kmult(k=" + std::to_string(counter_.k()) +
        ",S=" + std::to_string(counter_.num_shards()) + ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }
  [[nodiscard]] shard::ShardedCounterT<core::KMultCounterCorrectedT,
                                       Backend>&
  impl() noexcept {
    return counter_;
  }

 private:
  shard::ShardedCounterT<core::KMultCounterCorrectedT, Backend> counter_;
};

using ShardedKMultCounterAdapter = ShardedKMultCounterAdapterT<>;

/// Sharded k-additive counter. Follows the KAdditiveCounterAdapter
/// convention of reporting k = 1 to the multiplicative checkers; the
/// additive aggregate bound is impl().error_bound() (= S·k).
template <typename Backend = base::InstrumentedBackend>
class ShardedKAdditiveCounterAdapterT final : public ICounter {
 public:
  ShardedKAdditiveCounterAdapterT(
      unsigned n, std::uint64_t k, unsigned shards,
      shard::ShardPolicy policy = shard::ShardPolicy::kHashPinned)
      : counter_(n, k, shards, policy) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned pid) override { return counter_.read(pid); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>(
        "sharded-kadditive(k=" + std::to_string(counter_.k()) +
        ",S=" + std::to_string(counter_.num_shards()) + ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }
  [[nodiscard]] shard::ShardedCounterT<core::KAdditiveCounterT, Backend>&
  impl() noexcept {
    return counter_;
  }

 private:
  shard::ShardedCounterT<core::KAdditiveCounterT, Backend> counter_;
};

using ShardedKAdditiveCounterAdapter = ShardedKAdditiveCounterAdapterT<>;

/// Sharded snapshot-based exact counter (compact shards under the
/// pinned policy: per-shard updates cost O((n/S)²) instead of O(n²)).
template <typename Backend = base::InstrumentedBackend>
class ShardedSnapshotCounterAdapterT final : public ICounter {
 public:
  ShardedSnapshotCounterAdapterT(
      unsigned n, unsigned shards,
      shard::ShardPolicy policy = shard::ShardPolicy::kHashPinned)
      : counter_(n, 0, shards, policy) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned pid) override { return counter_.read(pid); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>(
        "sharded-snapshot(S=" + std::to_string(counter_.num_shards()) +
        ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }
  [[nodiscard]] shard::ShardedCounterT<exact::SnapshotCounterT, Backend>&
  impl() noexcept {
    return counter_;
  }

 private:
  shard::ShardedCounterT<exact::SnapshotCounterT, Backend> counter_;
};

using ShardedSnapshotCounterAdapter = ShardedSnapshotCounterAdapterT<>;

/// Sharded fetch&add — the classic striped statistics counter; exact.
template <typename Backend = base::InstrumentedBackend>
class ShardedFetchAddCounterAdapterT final : public ICounter {
 public:
  ShardedFetchAddCounterAdapterT(
      unsigned n, unsigned shards,
      shard::ShardPolicy policy = shard::ShardPolicy::kHashPinned)
      : counter_(n, 0, shards, policy) {}
  void increment(unsigned pid) override { counter_.increment(pid); }
  std::uint64_t read(unsigned pid) override { return counter_.read(pid); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>(
        "sharded-fetch&add(S=" + std::to_string(counter_.num_shards()) +
        ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }
  [[nodiscard]] shard::ShardedCounterT<exact::FetchAddCounterT, Backend>&
  impl() noexcept {
    return counter_;
  }

 private:
  shard::ShardedCounterT<exact::FetchAddCounterT, Backend> counter_;
};

using ShardedFetchAddCounterAdapter = ShardedFetchAddCounterAdapterT<>;

// ---------------------------------------------------------------------
// Histogram adapter (src/stats layer)
// ---------------------------------------------------------------------

/// Wait-free fixed-bucket histogram over sharded k-additive counters.
/// per_bucket_bound() reports the composed S·k each bucket inherits.
template <typename Backend = base::InstrumentedBackend>
class HistogramAdapterT final : public IHistogram {
 public:
  HistogramAdapterT(unsigned n, const stats::HistogramSpec& spec)
      : histogram_(n, spec) {}
  void record(unsigned pid, std::uint64_t value) override {
    histogram_.record(pid, value);
  }
  void snapshot_into(unsigned pid,
                     std::vector<std::uint64_t>& counts) override {
    histogram_.snapshot_into(pid, counts);
  }
  void flush(unsigned pid) override { histogram_.flush(pid); }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const override {
    return histogram_.bounds();
  }
  [[nodiscard]] std::uint64_t per_bucket_bound() const override {
    return histogram_.per_bucket_bound();
  }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>(
        "histogram(k=" + std::to_string(histogram_.k()) +
        ",S=" + std::to_string(histogram_.num_shards()) +
        ",B=" + std::to_string(histogram_.num_buckets()) + ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }
  [[nodiscard]] stats::HistogramT<Backend>& impl() noexcept {
    return histogram_;
  }

 private:
  stats::HistogramT<Backend> histogram_;
};

using HistogramAdapter = HistogramAdapterT<>;

// ---------------------------------------------------------------------
// Max-register adapters
// ---------------------------------------------------------------------

template <typename Backend = base::InstrumentedBackend>
class KMultMaxRegisterAdapterT final : public IMaxRegister {
 public:
  KMultMaxRegisterAdapterT(std::uint64_t m, std::uint64_t k) : reg_(m, k) {}
  void write(std::uint64_t value) override { reg_.write(value); }
  std::uint64_t read() override { return reg_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return reg_.k(); }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("kmult-bounded(k=" +
                                     std::to_string(reg_.k()) + ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  core::KMultMaxRegisterT<Backend> reg_;
};

using KMultMaxRegisterAdapter = KMultMaxRegisterAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class ExactBoundedMaxRegisterAdapterT final : public IMaxRegister {
 public:
  explicit ExactBoundedMaxRegisterAdapterT(std::uint64_t m) : reg_(m) {}
  void write(std::uint64_t value) override { reg_.write(value); }
  std::uint64_t read() override { return reg_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("exact-bounded");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  exact::BoundedMaxRegisterT<Backend> reg_;
};

using ExactBoundedMaxRegisterAdapter = ExactBoundedMaxRegisterAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class ExactUnboundedMaxRegisterAdapterT final : public IMaxRegister {
 public:
  void write(std::uint64_t value) override { reg_.write(value); }
  std::uint64_t read() override { return reg_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return 1; }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("exact-unbounded");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  exact::UnboundedMaxRegisterT<Backend> reg_;
};

using ExactUnboundedMaxRegisterAdapter = ExactUnboundedMaxRegisterAdapterT<>;

template <typename Backend = base::InstrumentedBackend>
class KMultUnboundedMaxRegisterAdapterT final : public IMaxRegister {
 public:
  explicit KMultUnboundedMaxRegisterAdapterT(std::uint64_t k) : reg_(k) {}
  void write(std::uint64_t value) override { reg_.write(value); }
  std::uint64_t read() override { return reg_.read(); }
  [[nodiscard]] std::uint64_t k() const override { return reg_.k(); }
  [[nodiscard]] std::string name() const override {
    return detail::tag_name<Backend>("kmult-unbounded(k=" +
                                     std::to_string(reg_.k()) + ")");
  }
  [[nodiscard]] bool instrumented() const override {
    return Backend::kInstrumented;
  }

 private:
  core::KMultUnboundedMaxRegisterT<Backend> reg_;
};

using KMultUnboundedMaxRegisterAdapter = KMultUnboundedMaxRegisterAdapterT<>;

}  // namespace approx::sim
