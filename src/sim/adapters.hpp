// adapters.hpp — uniform counter/max-register views for measurement code.
//
// Benchmarks, the perturbation harness and the workload driver compare
// several implementations with different concrete APIs. Two templates
// present them behind two tiny virtual interfaces: CounterAdapter wraps
// any counter as an ICounter, MaxRegisterAdapter any max register as an
// IMaxRegister. The virtual dispatch costs nothing in the
// step-complexity model (it is local computation) and is negligible
// against a shared-memory operation in wall-clock benches.
//
// Backend policy. Every named adapter below is an alias over the Backend
// policy (base/backend.hpp) with the *instrumented* backend as the
// default: the sim pipeline — sim::StepScheduler interleavings, the
// lin-check history drivers, the perturbation experiments and every
// step-counting bench — requires per-primitive yield points and step
// recording, which only InstrumentedBackend provides. The un-suffixed
// names (`KMultCounterAdapter`, ...) are pinned to that backend and are
// what the sim/test code uses. Wall-clock throughput benches instantiate
// the `...AdapterT<base::DirectBackend>` forms explicitly;
// `instrumented()` lets measurement code reject a mismatched instance
// instead of silently reporting zero steps.
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>

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

namespace approx::sim {

/// A counter under measurement. `k` reports the accuracy parameter the
/// implementation promises (1 = exact) so checkers know what to verify.
class ICounter {
 public:
  virtual ~ICounter() = default;
  virtual void increment(unsigned pid) = 0;
  virtual std::uint64_t read(unsigned pid) = 0;
  [[nodiscard]] virtual std::uint64_t k() const = 0;
  /// True iff primitives charge steps (InstrumentedBackend). Step-model
  /// measurement code requires this; wall-clock code accepts either.
  [[nodiscard]] virtual bool instrumented() const = 0;
};

/// A max register under measurement.
class IMaxRegister {
 public:
  virtual ~IMaxRegister() = default;
  virtual void write(std::uint64_t value) = 0;
  virtual std::uint64_t read() = 0;
  [[nodiscard]] virtual std::uint64_t k() const = 0;
  [[nodiscard]] virtual bool instrumented() const = 0;
};

/// Any counter as an ICounter; constructor arguments go to the counter.
/// Counters whose increment/read take no pid ignore the caller's. k()
/// is the counter's k only when its reads are k-multiplicative (for a
/// sharded counter, the composed model). Additive and exact counters
/// report 1: additive accuracy is a different contract, which callers
/// check with the additive band and impl().error_bound() (see the tests
/// and E11).
template <typename Counter>
class CounterAdapter final : public ICounter {
 public:
  template <typename... Args>
    requires std::constructible_from<Counter, Args...>
  explicit CounterAdapter(Args&&... args)
      : counter_(std::forward<Args>(args)...) {}

  void increment(unsigned pid) override {
    if constexpr (requires(Counter& c) { c.increment(0u); }) {
      counter_.increment(pid);
    } else {
      counter_.increment();
    }
  }
  std::uint64_t read(unsigned pid) override {
    if constexpr (requires(Counter& c) { c.read(0u); }) {
      return counter_.read(pid);
    } else {
      return counter_.read();
    }
  }
  [[nodiscard]] std::uint64_t k() const override {
    if constexpr (error_model() == shard::ErrorModel::kMultiplicative) {
      return counter_.k();
    } else {
      return 1;
    }
  }
  [[nodiscard]] bool instrumented() const override {
    return Counter::backend_type::kInstrumented;
  }
  [[nodiscard]] Counter& impl() noexcept { return counter_; }

 private:
  static constexpr shard::ErrorModel error_model() {
    if constexpr (requires { Counter::error_model(); }) {
      return Counter::error_model();
    } else {
      return shard::ShardTraits<Counter>::kModel;
    }
  }

  Counter counter_;
};

/// Any max register as an IMaxRegister; constructor arguments go to the
/// register. k() is the register's k, or 1 for an exact register.
template <typename Register>
class MaxRegisterAdapter final : public IMaxRegister {
 public:
  template <typename... Args>
    requires std::constructible_from<Register, Args...>
  explicit MaxRegisterAdapter(Args&&... args)
      : reg_(std::forward<Args>(args)...) {}

  void write(std::uint64_t value) override { reg_.write(value); }
  std::uint64_t read() override { return reg_.read(); }
  [[nodiscard]] std::uint64_t k() const override {
    if constexpr (requires(const Register& r) { r.k(); }) {
      return reg_.k();
    } else {
      return 1;
    }
  }
  [[nodiscard]] bool instrumented() const override {
    return Register::backend_type::kInstrumented;
  }

 private:
  Register reg_;
};

// ---------------------------------------------------------------------
// Named adapters. Sharded ones take ShardedCounterT's arguments
// (n, k, shards[, policy]); exact shards ignore k.
// ---------------------------------------------------------------------

template <typename Backend = base::InstrumentedBackend>
using KMultCounterAdapterT =
    CounterAdapter<core::SwitchCounterT<Backend, core::PaperSchedule>>;
template <typename Backend = base::InstrumentedBackend>
using KMultCounterCorrectedAdapterT =
    CounterAdapter<core::SwitchCounterT<Backend, core::CorrectedSchedule>>;
template <typename Backend = base::InstrumentedBackend>
using CollectCounterAdapterT = CounterAdapter<exact::CollectCounterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using SnapshotCounterAdapterT =
    CounterAdapter<exact::SnapshotCounterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using AachCounterAdapterT = CounterAdapter<exact::AachCounterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using FetchAddCounterAdapterT =
    CounterAdapter<exact::FetchAddCounterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using KAdditiveCounterAdapterT =
    CounterAdapter<core::KAdditiveCounterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using ShardedKMultCounterAdapterT = CounterAdapter<
    shard::ShardedCounterT<core::KMultCounterCorrectedT, Backend>>;
template <typename Backend = base::InstrumentedBackend>
using ShardedKAdditiveCounterAdapterT =
    CounterAdapter<shard::ShardedCounterT<core::KAdditiveCounterT, Backend>>;
template <typename Backend = base::InstrumentedBackend>
using ShardedSnapshotCounterAdapterT =
    CounterAdapter<shard::ShardedCounterT<exact::SnapshotCounterT, Backend>>;
template <typename Backend = base::InstrumentedBackend>
using ShardedFetchAddCounterAdapterT =
    CounterAdapter<shard::ShardedCounterT<exact::FetchAddCounterT, Backend>>;

template <typename Backend = base::InstrumentedBackend>
using KMultMaxRegisterAdapterT =
    MaxRegisterAdapter<core::KMultMaxRegisterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using KMultUnboundedMaxRegisterAdapterT =
    MaxRegisterAdapter<core::KMultUnboundedMaxRegisterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using ExactBoundedMaxRegisterAdapterT =
    MaxRegisterAdapter<exact::BoundedMaxRegisterT<Backend>>;
template <typename Backend = base::InstrumentedBackend>
using ExactUnboundedMaxRegisterAdapterT =
    MaxRegisterAdapter<exact::UnboundedMaxRegisterT<Backend>>;

using KMultCounterAdapter = KMultCounterAdapterT<>;
using KMultCounterCorrectedAdapter = KMultCounterCorrectedAdapterT<>;
using CollectCounterAdapter = CollectCounterAdapterT<>;
using SnapshotCounterAdapter = SnapshotCounterAdapterT<>;
using AachCounterAdapter = AachCounterAdapterT<>;
using FetchAddCounterAdapter = FetchAddCounterAdapterT<>;
using KAdditiveCounterAdapter = KAdditiveCounterAdapterT<>;
using ShardedKMultCounterAdapter = ShardedKMultCounterAdapterT<>;
using ShardedKAdditiveCounterAdapter = ShardedKAdditiveCounterAdapterT<>;
using ShardedSnapshotCounterAdapter = ShardedSnapshotCounterAdapterT<>;
using ShardedFetchAddCounterAdapter = ShardedFetchAddCounterAdapterT<>;
using KMultMaxRegisterAdapter = KMultMaxRegisterAdapterT<>;
using KMultUnboundedMaxRegisterAdapter = KMultUnboundedMaxRegisterAdapterT<>;
using ExactBoundedMaxRegisterAdapter = ExactBoundedMaxRegisterAdapterT<>;
using ExactUnboundedMaxRegisterAdapter = ExactUnboundedMaxRegisterAdapterT<>;

}  // namespace approx::sim
