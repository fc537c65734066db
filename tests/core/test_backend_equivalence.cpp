// Backend-equivalence suite: the DirectBackend and InstrumentedBackend
// instantiations of every algorithm must return identical values on
// identical single-threaded operation sequences — the policy split
// changes *what a primitive costs*, never *what it does*. This is what
// lets model-checking results from the instrumented build (stepper,
// lin-check, perturbation) speak about the direct build production code.
//
// Also pins the zero-overhead side of the contract: direct base objects
// are layout-identical to their atomics, allocate no ObjectIds, and
// record no steps even when a recorder is installed.
#include <gtest/gtest.h>

#include <cstdint>

#include "base/backend.hpp"
#include "base/register.hpp"
#include "base/step_recorder.hpp"
#include "base/test_and_set.hpp"
#include "core/kadditive_counter.hpp"
#include "core/kmult_bounded_counter.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_max_register.hpp"
#include "core/kmult_unbounded_max_register.hpp"
#include "exact/aach_counter.hpp"
#include "exact/bounded_max_register.hpp"
#include "exact/collect_counter.hpp"
#include "exact/fetch_add_counter.hpp"
#include "exact/snapshot_counter.hpp"
#include "exact/unbounded_max_register.hpp"
#include "sim/workload.hpp"

namespace approx {
namespace {

// Deterministic op mix shared by both instances: ~20% reads, increments
// otherwise, pids round-robin with seeded jitter.
template <typename Direct, typename Instrumented, typename Inc,
          typename Read>
void expect_equivalent_counters(Direct& direct, Instrumented& instrumented,
                                unsigned n, Inc&& inc, Read&& read,
                                std::uint64_t ops, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto pid = static_cast<unsigned>(rng.below(n));
    if (rng.chance(0.2)) {
      ASSERT_EQ(read(direct, pid), read(instrumented, pid))
          << "diverged at op " << i;
    } else {
      inc(direct, pid);
      inc(instrumented, pid);
    }
  }
  for (unsigned pid = 0; pid < n; ++pid) {
    EXPECT_EQ(read(direct, pid), read(instrumented, pid));
  }
}

template <template <typename> class CounterT>
void check_pid_counter(unsigned n, std::uint64_t k, std::uint64_t ops) {
  CounterT<base::DirectBackend> direct(n, k);
  CounterT<base::InstrumentedBackend> instrumented(n, k);
  expect_equivalent_counters(
      direct, instrumented, n,
      [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned pid) { return c.read(pid); }, ops, 0xBEEF + n);
}

TEST(BackendEquivalence, KMultCounter) {
  check_pid_counter<core::KMultCounterT>(1, 2, 5'000);
  check_pid_counter<core::KMultCounterT>(4, 2, 20'000);
  check_pid_counter<core::KMultCounterT>(8, 3, 20'000);
}

TEST(BackendEquivalence, KMultCounterCorrected) {
  check_pid_counter<core::KMultCounterCorrectedT>(1, 2, 5'000);
  check_pid_counter<core::KMultCounterCorrectedT>(4, 2, 20'000);
  check_pid_counter<core::KMultCounterCorrectedT>(8, 3, 20'000);
}

// read_fast on both switch schedules (one body serves both), over
// n ∈ {1, 4, 16} and k ∈ {2..5}.
template <typename Backend>
void check_read_fast_both_schedules() {
  for (const unsigned n : {1u, 4u, 16u}) {
    for (std::uint64_t k = 2; k <= 5; ++k) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k);
      core::KMultCounterT<Backend> paper(n, k);
      core::KMultCounterT<base::InstrumentedBackend> paper_model(n, k);
      core::KMultCounterCorrectedT<Backend> corrected(n, k);
      core::KMultCounterCorrectedT<base::InstrumentedBackend> corrected_model(
          n, k);
      const auto inc = [](auto& c, unsigned pid) { c.increment(pid); };
      const auto read = [](auto& c, unsigned pid) { return c.read_fast(pid); };
      expect_equivalent_counters(paper, paper_model, n, inc, read, 20'000,
                                 0xF457);
      expect_equivalent_counters(corrected, corrected_model, n, inc, read,
                                 20'000, 0xF457);
    }
  }
}

TEST(BackendEquivalence, KMultCounterCorrectedReadFast) {
  check_read_fast_both_schedules<base::DirectBackend>();
}

TEST(BackendEquivalence, KMultBoundedCounter) {
  const std::uint64_t m = 50'000;
  core::KMultBoundedCounterT<base::DirectBackend> direct(4, 3, m);
  core::KMultBoundedCounterT<base::InstrumentedBackend> instrumented(4, 3, m);
  expect_equivalent_counters(
      direct, instrumented, 4,
      [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned pid) { return c.read(pid); }, 20'000, 0xB0BB);
}

TEST(BackendEquivalence, KAdditiveCounter) {
  core::KAdditiveCounterT<base::DirectBackend> direct(4, 64);
  core::KAdditiveCounterT<base::InstrumentedBackend> instrumented(4, 64);
  expect_equivalent_counters(
      direct, instrumented, 4,
      [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 20'000, 0xADD);
}

TEST(BackendEquivalence, ExactCounters) {
  const unsigned n = 4;
  exact::CollectCounterT<base::DirectBackend> collect_d(n);
  exact::CollectCounterT<base::InstrumentedBackend> collect_i(n);
  expect_equivalent_counters(
      collect_d, collect_i, n,
      [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 20'000, 0xC011);

  exact::AachCounterT<base::DirectBackend> aach_d(n);
  exact::AachCounterT<base::InstrumentedBackend> aach_i(n);
  expect_equivalent_counters(
      aach_d, aach_i, n, [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 5'000, 0xAAC4);

  exact::SnapshotCounterT<base::DirectBackend> snap_d(n);
  exact::SnapshotCounterT<base::InstrumentedBackend> snap_i(n);
  expect_equivalent_counters(
      snap_d, snap_i, n, [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 2'000, 0x5A45);

  exact::FetchAddCounterT<base::DirectBackend> faa_d;
  exact::FetchAddCounterT<base::InstrumentedBackend> faa_i;
  expect_equivalent_counters(
      faa_d, faa_i, n, [](auto& c, unsigned) { c.increment(); },
      [](auto& c, unsigned) { return c.read(); }, 20'000, 0xFAA);
}

template <typename Direct, typename Instrumented>
void expect_equivalent_max_registers(Direct& direct,
                                     Instrumented& instrumented,
                                     std::uint64_t max_value,
                                     std::uint64_t ops, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (rng.chance(0.4)) {
      ASSERT_EQ(direct.read(), instrumented.read()) << "diverged at op " << i;
    } else {
      const std::uint64_t value = rng.log_uniform(max_value);
      direct.write(value);
      instrumented.write(value);
    }
  }
  EXPECT_EQ(direct.read(), instrumented.read());
}

TEST(BackendEquivalence, BoundedMaxRegisters) {
  const std::uint64_t m = std::uint64_t{1} << 32;
  exact::BoundedMaxRegisterT<base::DirectBackend> exact_d(m);
  exact::BoundedMaxRegisterT<base::InstrumentedBackend> exact_i(m);
  expect_equivalent_max_registers(exact_d, exact_i, m - 1, 5'000, 0xE4AC);

  core::KMultMaxRegisterT<base::DirectBackend> kmult_d(m, 3);
  core::KMultMaxRegisterT<base::InstrumentedBackend> kmult_i(m, 3);
  expect_equivalent_max_registers(kmult_d, kmult_i, m - 1, 5'000, 0x7143);
}

TEST(BackendEquivalence, UnboundedMaxRegisters) {
  exact::UnboundedMaxRegisterT<base::DirectBackend> exact_d;
  exact::UnboundedMaxRegisterT<base::InstrumentedBackend> exact_i;
  expect_equivalent_max_registers(exact_d, exact_i, base::kU64Max, 5'000,
                                  0x0B0);

  core::KMultUnboundedMaxRegisterT<base::DirectBackend> kmult_d(4);
  core::KMultUnboundedMaxRegisterT<base::InstrumentedBackend> kmult_i(4);
  expect_equivalent_max_registers(kmult_d, kmult_i, base::kU64Max, 5'000,
                                  0x1B1);
}

// --- RelaxedDirectBackend: same values, weaker orders ----------------
//
// Single-threaded operation sequences are deterministic under ANY
// memory-order mapping, so the relaxed instantiation of every algorithm
// must return exactly the instrumented values — the role mapping changes
// *how a primitive is fenced*, never *what it does*. (Concurrent
// behaviour of the relaxed build is covered by the TSan suite in
// tests/integration/test_relaxed_threads.cpp and the stepper-free
// property tests in tests/shard/test_sharded_accuracy.cpp.)

template <template <typename> class CounterT>
void check_pid_counter_relaxed(unsigned n, std::uint64_t k,
                               std::uint64_t ops) {
  CounterT<base::RelaxedDirectBackend> relaxed(n, k);
  CounterT<base::InstrumentedBackend> instrumented(n, k);
  expect_equivalent_counters(
      relaxed, instrumented, n,
      [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned pid) { return c.read(pid); }, ops, 0xBEEF + n);
}

TEST(BackendEquivalence, RelaxedKMultCounters) {
  check_pid_counter_relaxed<core::KMultCounterT>(4, 2, 20'000);
  check_pid_counter_relaxed<core::KMultCounterCorrectedT>(8, 3, 20'000);
}

TEST(BackendEquivalence, RelaxedKMultCounterCorrectedReadFast) {
  check_read_fast_both_schedules<base::RelaxedDirectBackend>();
}

TEST(BackendEquivalence, RelaxedExactAndAdditiveCounters) {
  const unsigned n = 4;
  exact::CollectCounterT<base::RelaxedDirectBackend> collect_r(n);
  exact::CollectCounterT<base::InstrumentedBackend> collect_i(n);
  expect_equivalent_counters(
      collect_r, collect_i, n,
      [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 20'000, 0xC011);

  exact::AachCounterT<base::RelaxedDirectBackend> aach_r(n);
  exact::AachCounterT<base::InstrumentedBackend> aach_i(n);
  expect_equivalent_counters(
      aach_r, aach_i, n, [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 5'000, 0xAAC4);

  exact::SnapshotCounterT<base::RelaxedDirectBackend> snap_r(n);
  exact::SnapshotCounterT<base::InstrumentedBackend> snap_i(n);
  expect_equivalent_counters(
      snap_r, snap_i, n, [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 2'000, 0x5A45);

  exact::FetchAddCounterT<base::RelaxedDirectBackend> faa_r;
  exact::FetchAddCounterT<base::InstrumentedBackend> faa_i;
  expect_equivalent_counters(
      faa_r, faa_i, n, [](auto& c, unsigned) { c.increment(); },
      [](auto& c, unsigned) { return c.read(); }, 20'000, 0xFAA);

  core::KAdditiveCounterT<base::RelaxedDirectBackend> add_r(n, 64);
  core::KAdditiveCounterT<base::InstrumentedBackend> add_i(n, 64);
  expect_equivalent_counters(
      add_r, add_i, n, [](auto& c, unsigned pid) { c.increment(pid); },
      [](auto& c, unsigned) { return c.read(); }, 20'000, 0xADD);
}

TEST(BackendEquivalence, RelaxedMaxRegisters) {
  const std::uint64_t m = std::uint64_t{1} << 32;
  exact::BoundedMaxRegisterT<base::RelaxedDirectBackend> exact_r(m);
  exact::BoundedMaxRegisterT<base::InstrumentedBackend> exact_i(m);
  expect_equivalent_max_registers(exact_r, exact_i, m - 1, 5'000, 0xE4AC);

  core::KMultMaxRegisterT<base::RelaxedDirectBackend> kmult_r(m, 3);
  core::KMultMaxRegisterT<base::InstrumentedBackend> kmult_i(m, 3);
  expect_equivalent_max_registers(kmult_r, kmult_i, m - 1, 5'000, 0x7143);

  exact::UnboundedMaxRegisterT<base::RelaxedDirectBackend> unb_r;
  exact::UnboundedMaxRegisterT<base::InstrumentedBackend> unb_i;
  expect_equivalent_max_registers(unb_r, unb_i, base::kU64Max, 5'000, 0x0B0);

  core::KMultUnboundedMaxRegisterT<base::RelaxedDirectBackend> kunb_r(4);
  core::KMultUnboundedMaxRegisterT<base::InstrumentedBackend> kunb_i(4);
  expect_equivalent_max_registers(kunb_r, kunb_i, base::kU64Max, 5'000,
                                  0x1B1);
}

// --- the zero-overhead side of the policy contract -------------------

TEST(DirectBackendContract, NoStepsRecordedEvenWithRecorderInstalled) {
  base::Register<std::uint64_t, base::DirectBackend> reg(1);
  base::TasBitT<base::DirectBackend> bit;
  base::StepRecorder recorder(/*track_objects=*/true);
  {
    base::ScopedRecording on(recorder);
    reg.write(5);
    (void)reg.read();
    (void)bit.test_and_set();
    (void)bit.read();
  }
  EXPECT_EQ(recorder.total(), 0u);
  EXPECT_EQ(recorder.distinct_objects(), 0u);
}

TEST(DirectBackendContract, NoObjectIdsAllocated) {
  const base::ObjectId before = base::next_object_id();
  base::Register<std::uint64_t, base::DirectBackend> reg;
  base::TasBitT<base::DirectBackend> bit;
  core::KMultCounterT<base::DirectBackend> counter(4, 2);
  for (int i = 0; i < 100; ++i) counter.increment(i % 4);
  const base::ObjectId after = base::next_object_id();
  EXPECT_EQ(after, before + 1);  // only our two probe draws
  EXPECT_EQ(reg.id(), base::kInvalidObjectId);
  EXPECT_EQ(bit.id(), base::kInvalidObjectId);
}

TEST(DirectBackendContract, LayoutIdenticalToRawAtomics) {
  EXPECT_EQ(sizeof(base::Register<std::uint64_t, base::DirectBackend>),
            sizeof(std::atomic<std::uint64_t>));
  EXPECT_EQ(sizeof(base::TasBitT<base::DirectBackend>),
            sizeof(std::atomic<std::uint8_t>));
  // The instrumented builds carry exactly one ObjectId on top.
  EXPECT_EQ(sizeof(base::Register<std::uint64_t>),
            sizeof(std::atomic<std::uint64_t>) + sizeof(base::ObjectId));
}

TEST(RelaxedDirectBackendContract, ZeroOverheadAndRoleMapping) {
  // Cost model identical to DirectBackend: no steps, no ids, no storage.
  base::Register<std::uint64_t, base::RelaxedDirectBackend> reg(1);
  base::TasBitT<base::RelaxedDirectBackend> bit;
  base::StepRecorder recorder(/*track_objects=*/true);
  {
    base::ScopedRecording on(recorder);
    reg.write(5);
    (void)reg.read();
    (void)bit.test_and_set();
  }
  EXPECT_EQ(recorder.total(), 0u);
  EXPECT_EQ(reg.id(), base::kInvalidObjectId);
  EXPECT_EQ(
      sizeof(base::Register<std::uint64_t, base::RelaxedDirectBackend>),
      sizeof(std::atomic<std::uint64_t>));

  // The role mapping is the whole point; pin it.
  using base::OrderRole;
  static_assert(base::RelaxedDirectBackend::order(OrderRole::kLoadAcquire) ==
                std::memory_order_acquire);
  static_assert(base::RelaxedDirectBackend::order(OrderRole::kStoreRelease) ==
                std::memory_order_release);
  static_assert(base::RelaxedDirectBackend::order(OrderRole::kRmwAcqRel) ==
                std::memory_order_acq_rel);
  static_assert(base::RelaxedDirectBackend::order(OrderRole::kLoadRelaxed) ==
                std::memory_order_relaxed);
  // ... while the seq_cst backends ignore every role (model fidelity).
  static_assert(base::DirectBackend::order(OrderRole::kLoadRelaxed) ==
                std::memory_order_seq_cst);
  static_assert(base::InstrumentedBackend::order(OrderRole::kRmwRelaxed) ==
                std::memory_order_seq_cst);
}

TEST(InstrumentedBackendContract, StepsStillRecorded) {
  base::Register<std::uint64_t> reg;  // default = InstrumentedBackend
  base::StepRecorder recorder;
  {
    base::ScopedRecording on(recorder);
    reg.write(1);
    (void)reg.read();
  }
  EXPECT_EQ(recorder.writes(), 1u);
  EXPECT_EQ(recorder.reads(), 1u);
}

}  // namespace
}  // namespace approx
