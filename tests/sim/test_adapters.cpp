// Tests for the measurement adapters (src/sim/adapters.hpp): what every
// named adapter reports to the checkers (k, instrumented) on both
// backends, and that the step-model harness refuses an uninstrumented
// instance instead of reporting zero steps.
#include "sim/adapters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "sim/perturbation.hpp"

namespace approx::sim {
namespace {

constexpr unsigned kN = 16;
constexpr std::uint64_t kK = 5;  // ≥ √n, and distinct from 1
constexpr unsigned kShards = 4;
constexpr std::uint64_t kCapacity = std::uint64_t{1} << 20;

/// Builds `Default` (the un-suffixed name) and its DirectBackend form
/// from `args`, and checks both report `want_k` and their backend.
template <typename Default, template <typename> class AdapterT,
          typename... Args>
void expect_adapter(std::uint64_t want_k, Args... args) {
  static_assert(
      std::is_same_v<Default, AdapterT<base::InstrumentedBackend>>);
  Default model(args...);
  AdapterT<base::DirectBackend> direct(args...);
  EXPECT_EQ(model.k(), want_k);
  EXPECT_EQ(direct.k(), want_k);
  EXPECT_TRUE(model.instrumented());
  EXPECT_FALSE(direct.instrumented());
}

TEST(Adapters, KMultiplicativeReadsReportK) {
  expect_adapter<KMultCounterAdapter, KMultCounterAdapterT>(kK, kN, kK);
  expect_adapter<KMultCounterCorrectedAdapter, KMultCounterCorrectedAdapterT>(
      kK, kN, kK);
  expect_adapter<ShardedKMultCounterAdapter, ShardedKMultCounterAdapterT>(
      kK, kN, kK, kShards);
  expect_adapter<KMultMaxRegisterAdapter, KMultMaxRegisterAdapterT>(
      kK, kCapacity, kK);
  expect_adapter<KMultUnboundedMaxRegisterAdapter,
                 KMultUnboundedMaxRegisterAdapterT>(kK, kK);
}

TEST(Adapters, AdditiveAndExactReadsReportOne) {
  expect_adapter<KAdditiveCounterAdapter, KAdditiveCounterAdapterT>(1, kN, kK);
  expect_adapter<ShardedKAdditiveCounterAdapter,
                 ShardedKAdditiveCounterAdapterT>(1, kN, kK, kShards);
  expect_adapter<CollectCounterAdapter, CollectCounterAdapterT>(1, kN);
  expect_adapter<SnapshotCounterAdapter, SnapshotCounterAdapterT>(1, kN);
  expect_adapter<AachCounterAdapter, AachCounterAdapterT>(1, kN);
  expect_adapter<FetchAddCounterAdapter, FetchAddCounterAdapterT>(1);
  expect_adapter<ShardedSnapshotCounterAdapter,
                 ShardedSnapshotCounterAdapterT>(1, kN, 0, kShards);
  expect_adapter<ShardedFetchAddCounterAdapter,
                 ShardedFetchAddCounterAdapterT>(1, kN, 0, kShards);
  expect_adapter<ExactBoundedMaxRegisterAdapter,
                 ExactBoundedMaxRegisterAdapterT>(1, kCapacity);
  expect_adapter<ExactUnboundedMaxRegisterAdapter,
                 ExactUnboundedMaxRegisterAdapterT>(1);
}

TEST(Adapters, PerturbationRejectsUninstrumentedInstances) {
  KMultCounterAdapterT<base::DirectBackend> counter(kN, kK);
  EXPECT_THROW(perturb_counter(counter, kN, kK, 1000), std::invalid_argument);
  KMultMaxRegisterAdapterT<base::DirectBackend> reg(kCapacity, kK);
  EXPECT_THROW(perturb_max_register(reg, kK, kCapacity),
               std::invalid_argument);
}

}  // namespace
}  // namespace approx::sim
