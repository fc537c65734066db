// backend.hpp — compile-time policy splitting the hot path from the model
// path.
//
// Every base object (Register, TasBit, the snapshot slots, ...) is
// parameterized on a Backend policy deciding what a primitive application
// costs *besides* its atomic instruction:
//
//   * DirectBackend — nothing. No ObjectId allocation, no thread-local
//     recorder lookup, no scheduler yield point; `on_step` compiles to a
//     no-op and `ObjectHandle` is an empty type elided via
//     [[no_unique_address]]. A DirectBackend register is layout- and
//     cost-identical to a raw std::atomic. This is the production/bench
//     build: "as fast as the hardware allows".
//
//   * InstrumentedBackend — the paper's cost model. Objects draw a
//     process-wide unique ObjectId at construction, and every primitive
//     passes through base::record_step: first the sim::StepScheduler
//     yield hook (deterministic, seed-reproducible interleavings at
//     primitive granularity), then the thread-local StepRecorder (step
//     counts and distinct-object sets for the complexity experiments).
//     This is the test/sim build; the stepper / lin-check / perturbation
//     pipeline requires it.
//
//   * RelaxedDirectBackend — DirectBackend's cost model plus a weakened
//     memory-order mapping (see below). The fastest shipped build.
//
// The two seq_cst backends run the *same* algorithm templates, so
// model-checking results obtained on the instrumented build speak about
// the code the direct build ships (see
// tests/core/test_backend_equivalence.cpp).
//
// MEMORY-ORDER POLICY. The paper specifies its algorithms in the
// sequentially consistent interleaving model; compiling every primitive
// to memory_order_seq_cst is the faithful realization and is what
// DirectBackend and InstrumentedBackend do — the sim/lin-check pipeline
// and the e10/e15 instrumentation-cost experiments are byte-identical to
// the pre-policy build. But seq_cst pays a full fence per *store* on
// x86 and per load+store on ARM, even at sites whose correctness only
// needs a release/acquire pairing (or nothing at all). So each primitive
// site *requests an ordering role* (OrderRole) describing the weakest
// ordering the enclosing algorithm's proof sketch needs, and the backend
// maps roles to std::memory_order:
//
//   * DirectBackend / InstrumentedBackend map every role to seq_cst
//     (model fidelity — the interleaving semantics of the paper);
//   * RelaxedDirectBackend maps each role to exactly what it names.
//
// Every weakened site carries an audit comment in its algorithm's header
// justifying the role (grep "Memory-order audit"). The weakenings are
// race-checked by the TSan relaxed suites
// (tests/integration/test_relaxed_threads.cpp) and accuracy-checked by
// stepper-free adversarial property tests (tests/shard/); E16 measures
// the seq_cst cost they remove.
//
// Backend policy concept:
//
//   struct Backend {
//     static constexpr bool kInstrumented;
//     struct ObjectHandle {          // default-constructible
//       ObjectId id() const;         // kInvalidObjectId when uninstrumented
//     };
//     static void on_step(const ObjectHandle&, PrimitiveKind);
//     static constexpr std::memory_order order(OrderRole);
//   };
#pragma once

#include <atomic>
#include <cstdint>

#include "base/object_id.hpp"
#include "base/step_recorder.hpp"

namespace approx::base {

/// The ordering a primitive site requests from the backend. Roles name
/// the weakest ordering the enclosing algorithm's correctness argument
/// needs at that site; seq_cst backends ignore the request and stay
/// sequentially consistent.
enum class OrderRole : std::uint8_t {
  kLoadAcquire,   // load pairing with a kStoreRelease publication
  kStoreRelease,  // store publishing program-order-earlier writes
  kRmwAcqRel,     // RMW participating in a synchronization handshake
  kLoadRelaxed,   // load needing only per-location coherence
  kStoreRelaxed,  // store needing only per-location coherence
  kRmwRelaxed,    // RMW needing only the location's modification order
};

/// Zero-overhead backend: primitives cost exactly their atomic
/// instruction, sequentially consistent. Use for production builds that
/// want the paper's memory model verbatim, and as the seq_cst baseline
/// the E16 memory-order experiment compares against.
struct DirectBackend {
  static constexpr bool kInstrumented = false;

  /// Empty handle; objects carry no identity. Declared as a member via
  /// [[no_unique_address]] so it occupies no storage.
  struct ObjectHandle {
    constexpr ObjectHandle() noexcept = default;
    [[nodiscard]] static constexpr ObjectId id() noexcept {
      return kInvalidObjectId;
    }
  };

  static constexpr void on_step(const ObjectHandle& /*handle*/,
                                PrimitiveKind /*kind*/) noexcept {}

  /// Model fidelity: every primitive is sequentially consistent.
  static constexpr std::memory_order order(OrderRole /*role*/) noexcept {
    return std::memory_order_seq_cst;
  }
};

/// DirectBackend's zero-instrumentation cost model with the role-mapped
/// weakest orderings. The fastest shipped build: on x86 it removes the
/// full fence seq_cst stores pay (release stores are plain moves), on
/// ARM additionally the load-acquire upgrades seq_cst forces. Each
/// weakened site's justification lives with its algorithm ("Memory-order
/// audit" comments); the TSan relaxed suites race-check the mapping.
struct RelaxedDirectBackend {
  static constexpr bool kInstrumented = false;

  using ObjectHandle = DirectBackend::ObjectHandle;

  static constexpr void on_step(const ObjectHandle& /*handle*/,
                                PrimitiveKind /*kind*/) noexcept {}

  /// Maps each role to exactly the ordering it names.
  static constexpr std::memory_order order(OrderRole role) noexcept {
    switch (role) {
      case OrderRole::kLoadAcquire:
        return std::memory_order_acquire;
      case OrderRole::kStoreRelease:
        return std::memory_order_release;
      case OrderRole::kRmwAcqRel:
        return std::memory_order_acq_rel;
      case OrderRole::kLoadRelaxed:
      case OrderRole::kStoreRelaxed:
      case OrderRole::kRmwRelaxed:
        return std::memory_order_relaxed;
    }
    return std::memory_order_seq_cst;  // unreachable; defensive
  }
};

/// Model-faithful backend: per-object ids, scheduler yield point, step
/// recording, sequentially consistent primitives. Use for tests, the sim
/// pipeline and the step-complexity experiments. Matches the behaviour
/// base objects had before the policy split.
struct InstrumentedBackend {
  static constexpr bool kInstrumented = true;

  class ObjectHandle {
   public:
    ObjectHandle() noexcept : id_(next_object_id()) {}
    [[nodiscard]] ObjectId id() const noexcept { return id_; }

   private:
    ObjectId id_;
  };

  static void on_step(const ObjectHandle& handle, PrimitiveKind kind) {
    record_step(handle.id(), kind);
  }

  /// The sim pipeline's interleaving semantics are the paper's seq_cst
  /// model; roles are deliberately ignored so stepper/lin-check results
  /// keep speaking about the sequentially consistent algorithms.
  static constexpr std::memory_order order(OrderRole /*role*/) noexcept {
    return std::memory_order_seq_cst;
  }
};

}  // namespace approx::base
