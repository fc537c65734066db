// fetch_add_counter.hpp — hardware fetch&add reference baseline.
//
// NOT inside the paper's primitive model: fetch&add is neither historyless
// nor conditional, so none of the paper's lower bounds constrain it. It is
// included purely as the "what the hardware gives you" reference point in
// the throughput experiment (E10), the role the scalable-statistics-
// counters literature ([10] in the paper) plays in the motivation.
//
// For step accounting we charge one write step per increment and one read
// step per read; the hardware RMW has no counterpart among the model's
// primitive kinds. Under DirectBackend the counter is a bare atomic cell.
//
// Memory-order audit (RelaxedDirectBackend). The whole counter is one
// atomic cell, so the cell's modification order IS the linearization
// order of increments; nothing is published through the cell besides the
// count itself. The increment therefore requests kRmwRelaxed and the
// read kLoadRelaxed: a relaxed fetch&add still takes its unique place in
// the modification order, and a relaxed load returns some value of that
// order — on the multi-copy-atomic hardware we target (x86, ARMv8) the
// newest one the coherence fabric has made visible, i.e. a value inside
// the read's real-time interval. The formally seq_cst-faithful builds
// are the other two backends. (On x86 the RMW compiles to the same
// lock-prefixed instruction either way; the relaxed win is ARM's ldadd
// vs ldaddal and the compiler's freedom to keep the loop tight.)
#pragma once

#include <atomic>
#include <cstdint>

#include "base/backend.hpp"
#include "base/object_id.hpp"
#include "base/step_recorder.hpp"

namespace approx::exact {

/// Exact linearizable counter backed by a single fetch&add cell.
template <typename Backend = base::InstrumentedBackend>
class FetchAddCounterT {
 public:
  using backend_type = Backend;

  FetchAddCounterT() = default;

  FetchAddCounterT(const FetchAddCounterT&) = delete;
  FetchAddCounterT& operator=(const FetchAddCounterT&) = delete;

  void increment() {
    Backend::on_step(handle_, base::PrimitiveKind::kWrite);
    cell_.fetch_add(1, Backend::order(base::OrderRole::kRmwRelaxed));
  }

  [[nodiscard]] std::uint64_t read() const {
    Backend::on_step(handle_, base::PrimitiveKind::kRead);
    return cell_.load(Backend::order(base::OrderRole::kLoadRelaxed));
  }

 private:
  [[no_unique_address]] typename Backend::ObjectHandle handle_;
  std::atomic<std::uint64_t> cell_{0};
};

/// The model-faithful default instantiation (pre-policy class name).
using FetchAddCounter = FetchAddCounterT<base::InstrumentedBackend>;

}  // namespace approx::exact
