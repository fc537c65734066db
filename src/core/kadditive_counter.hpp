// kadditive_counter.hpp — deterministic k-additive-accurate counter
// (extension module).
//
// The paper contrasts its multiplicative relaxation with the k-*additive*
// counters of Aspnes, Attiya and Censor-Hillel [8] (reads may err by ±k),
// for which [8] proves an Ω(min(n−1, log m − log k)) worst-case lower
// bound with no matching upper bound. This module supplies the natural
// deterministic wait-free upper-bound construction so the two relaxations
// can be compared head-to-head (experiment E11):
//
//   Each process batches increments locally and flushes its batch to its
//   single-writer component of a collect counter every
//   c = ⌊k/n⌋ + 1 increments. At most c−1 ≤ k/n increments per process
//   are ever hidden, so a collect read undercounts by at most
//   n·⌊k/n⌋ ≤ k and never overcounts: every returned x satisfies
//   v − k ≤ x ≤ v for the exact count v at the linearization point
//   (linearize the read where the running exact count equals x + hidden…
//   ≤ x + k; monotonicity makes such a point exist inside the interval).
//
// Amortized step complexity: increments cost 1/c ≤ n/k shared writes
// (amortized O(1) for k ≥ n); reads cost n reads. Unlike Algorithm 1, the
// *read* cost is inherently Θ(n) here — which is exactly the contrast the
// ablation is meant to exhibit.
//
// Publish report. increment() and flush() return true iff they wrote
// the process's slot — the only writes a read observes, once per
// flush_every increments — so a false return leaves every read
// unchanged (the sharded registry's collect reads only rows that
// reported a write; shard/registry.hpp).
//
// Memory-order audit (RelaxedDirectBackend). Identical shape to the
// collect counter (see exact/collect_counter.hpp): single-writer
// monotone components, so the default register roles (release flush
// store, acquire collect loads) are the weakest sound pair; the ±k band
// argument only adds the observation that at most k increments are
// batched locally, which is unaffected by ordering.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "base/backend.hpp"
#include "base/register.hpp"

namespace approx::core {

/// Deterministic wait-free linearizable k-additive-accurate counter.
template <typename Backend = base::InstrumentedBackend>
class KAdditiveCounterT {
 public:
  using backend_type = Backend;

  /// @param num_processes n; pids are 0..n-1.
  /// @param k additive slack (k ≥ 0; k = 0 degenerates to exact).
  KAdditiveCounterT(unsigned num_processes, std::uint64_t k)
      : n_(num_processes),
        flush_every_(k / num_processes + 1),
        slots_(new Slot[num_processes]) {
    assert(num_processes >= 1);
  }

  KAdditiveCounterT(const KAdditiveCounterT&) = delete;
  KAdditiveCounterT& operator=(const KAdditiveCounterT&) = delete;

  /// Adds one to the count. At most one thread per pid. Returns true
  /// iff it wrote the slot (see the header's publish report).
  bool increment(unsigned pid) {
    assert(pid < n_);
    Slot& slot = slots_[pid];
    if (++slot.pending < flush_every_) return false;
    slot.shadow += slot.pending;
    slot.pending = 0;
    slot.reg.write(slot.shadow);
    return true;
  }

  /// Returns x with v − k ≤ x ≤ v. n read steps.
  [[nodiscard]] std::uint64_t read() const {
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < n_; ++i) sum += slots_[i].reg.read();
    return sum;
  }

  /// Forces `pid`'s pending batch out (e.g. at thread shutdown, so that a
  /// final read is exact). Not part of the hot path. Returns true iff it
  /// wrote the slot (a batch was pending).
  bool flush(unsigned pid) {
    assert(pid < n_);
    Slot& slot = slots_[pid];
    if (slot.pending == 0) return false;
    slot.shadow += slot.pending;
    slot.pending = 0;
    slot.reg.write(slot.shadow);
    return true;
  }

  [[nodiscard]] unsigned num_processes() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t flush_threshold() const noexcept {
    return flush_every_;
  }

 private:
  struct alignas(64) Slot {
    base::Register<std::uint64_t, Backend> reg{0};
    std::uint64_t shadow = 0;   // owner-only mirror of reg
    std::uint64_t pending = 0;  // owner-only unflushed batch (< flush_every_)
  };

  unsigned n_;
  std::uint64_t flush_every_;
  std::unique_ptr<Slot[]> slots_;
};

/// The model-faithful default instantiation (pre-policy class name).
using KAdditiveCounter = KAdditiveCounterT<base::InstrumentedBackend>;

}  // namespace approx::core
