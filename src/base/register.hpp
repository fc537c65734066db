// register.hpp — atomic read/write register base object.
//
// The paper's model: processes communicate through shared base objects
// accessed by primitives. `Register<T, Backend>` is the multi-reader/
// multi-writer atomic register supporting the historyless {read, write}
// primitives.
//
// The Backend policy (base/backend.hpp) decides what a primitive costs
// besides its atomic instruction: DirectBackend registers are layout- and
// cost-identical to a raw std::atomic<T>; InstrumentedBackend registers
// charge one step to the thread's StepRecorder and pass the scheduler
// yield point on every primitive. The default is InstrumentedBackend —
// the model-faithful build tests and experiments expect; hot paths opt
// into DirectBackend explicitly.
//
// Memory orders: every primitive *requests an OrderRole* from the
// backend (base/backend.hpp). The paper assumes atomic (linearizable)
// registers in a sequentially consistent shared memory, and the seq_cst
// backends map every role to memory_order_seq_cst — model fidelity (see
// README "Memory orders"). RelaxedDirectBackend maps the role to the weakest
// ordering it names; the defaults are the publication pairing
// (read = load-acquire, write = store-release) that every register
// protocol in this repo needs, and sites that can prove less request a
// relaxed role explicitly (with an audit comment at the call site).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "base/backend.hpp"
#include "base/object_id.hpp"
#include "base/step_recorder.hpp"

namespace approx::base {

/// Multi-reader multi-writer atomic register over a trivially copyable T
/// that fits in a lock-free std::atomic. Instrumentation is decided by
/// the Backend policy.
template <typename T, typename Backend = InstrumentedBackend>
class Register {
  static_assert(std::is_trivially_copyable_v<T>,
                "Register requires a trivially copyable value type");

 public:
  using backend_type = Backend;

  explicit Register(T initial = T{}) noexcept : cell_(initial) {}

  Register(const Register&) = delete;
  Register& operator=(const Register&) = delete;

  /// read primitive: returns the current value. The default role pairs
  /// with write()'s release publication; sites that can prove less
  /// instantiate read<OrderRole::kLoadRelaxed>(). Only load roles are
  /// representable — a store/RMW role is a compile error, so a misuse
  /// cannot reach the relaxed backend as an invalid memory_order.
  template <OrderRole role = OrderRole::kLoadAcquire>
  [[nodiscard]] T read() const noexcept {
    static_assert(role == OrderRole::kLoadAcquire ||
                      role == OrderRole::kLoadRelaxed,
                  "Register::read requires a load role");
    Backend::on_step(handle_, PrimitiveKind::kRead);
    return cell_.load(Backend::order(role));
  }

  /// write primitive: unconditionally overwrites the value (historyless).
  /// The default role publishes every program-order-earlier write to the
  /// reader that observes this value. Only store roles are representable.
  template <OrderRole role = OrderRole::kStoreRelease>
  void write(T value) noexcept {
    static_assert(role == OrderRole::kStoreRelease ||
                      role == OrderRole::kStoreRelaxed,
                  "Register::write requires a store role");
    Backend::on_step(handle_, PrimitiveKind::kWrite);
    cell_.store(value, Backend::order(role));
  }

  /// Base-object identity (instrumentation only; kInvalidObjectId under
  /// DirectBackend).
  [[nodiscard]] ObjectId id() const noexcept { return handle_.id(); }

  /// Un-instrumented peek for tests/debug; NOT a model primitive and never
  /// used by algorithm code.
  [[nodiscard]] T peek_unrecorded() const noexcept {
    return cell_.load(std::memory_order_seq_cst);
  }

 private:
  [[no_unique_address]] typename Backend::ObjectHandle handle_;
  std::atomic<T> cell_;
};

// The zero-overhead claim, enforced at compile time: a DirectBackend
// register adds nothing to the underlying atomic cell.
static_assert(sizeof(Register<std::uint64_t, DirectBackend>) ==
                  sizeof(std::atomic<std::uint64_t>),
              "DirectBackend Register must be layout-identical to the cell");
static_assert(sizeof(Register<std::uint64_t, RelaxedDirectBackend>) ==
                  sizeof(std::atomic<std::uint64_t>),
              "RelaxedDirectBackend Register must be layout-identical too");

}  // namespace approx::base
