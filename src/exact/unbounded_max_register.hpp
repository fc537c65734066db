// unbounded_max_register.hpp — exact max register over the full uint64
// domain.
//
// The paper cites Baig, Hendler, Milani and Travers (DISC 2019; ref [9])
// for unbounded max registers; that paper's construction is not restated
// in the reproduced paper, so we build the closest substitute: a
// two-level AACH-style decomposition by binary exponent.
//
//   * A 66-bounded exact max register `level_` stores t = ⌊log₂ v⌋ + 1 for
//     every written value v ≥ 1 (t = 0 means "nothing written yet").
//   * For each exponent e ≥ 1, a lazily-created 2^e-bounded exact max
//     register `mantissa_[e]` stores v − 2^e for the values with that
//     exponent.
//
//   write(v): e = ⌊log₂ v⌋; write the mantissa first, then announce e+1
//             in `level_` (announce-after-publish, as in the AACH tree).
//   read():   t = level_.read(); if t == 0 return 0; else return
//             2^(t−1) + mantissa_[t−1].read().
//
// Linearizability sketch. `level_` and each mantissa register are
// linearizable max registers. A read that obtains t returns a value
// x ∈ [2^(t−1), 2^t): (i) x is dominated by no completed write — any write
// of w with exponent e_w completed before the read began announced
// e_w + 1 ≤ t, and if e_w + 1 = t the mantissa register returns at least
// w's mantissa, so x ≥ w; (ii) x is justified — the mantissa value read
// was written by some write of exactly x whose mantissa step already
// happened, so that write can be linearized before the read. Monotonicity
// across reads follows from monotonicity of `level_` and of each mantissa
// register.
//
// Worst-case step complexity: O(log 66) + O(log v) = O(log v) per
// operation, matching the AACH unbounded construction. (The *amortized*
// polylog(n) bound of Baig et al. needs their more elaborate helping
// machinery; the k-multiplicative plug-in in src/core does not need it —
// see kmult_unbounded_max_register.hpp.)
//
// Memory-order audit (RelaxedDirectBackend). Announce-after-publish is
// the same pattern as inside the AACH tree, one level up: the mantissa
// tree is written first, then `level_` announces e+1, and both are
// BoundedMaxRegisterT instances whose bit writes are release stores and
// whose bit reads are acquire loads (see exact/bounded_max_register.hpp).
// A reader that obtains t from `level_` therefore synchronizes with the
// write that announced t, which program-order-follows that write's
// mantissa publication — the mantissa value the reader then loads is at
// least the announced write's. The mantissa-slot CAS publication is
// allocation bookkeeping, already acquire/acq_rel.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "exact/bounded_max_register.hpp"

namespace approx::exact {

/// Wait-free linearizable exact max register over [0, 2^64), built from
/// read/write registers only. O(log v) worst-case steps per operation.
template <typename Backend = base::InstrumentedBackend>
class UnboundedMaxRegisterT {
 public:
  using backend_type = Backend;

  UnboundedMaxRegisterT();
  ~UnboundedMaxRegisterT();

  UnboundedMaxRegisterT(const UnboundedMaxRegisterT&) = delete;
  UnboundedMaxRegisterT& operator=(const UnboundedMaxRegisterT&) = delete;

  /// Writes v; no-op on the abstract state unless v exceeds the maximum.
  void write(std::uint64_t v);

  /// Returns the maximum value written so far (0 if none).
  [[nodiscard]] std::uint64_t read() const;

 private:
  static constexpr unsigned kMaxExponent = 64;

  BoundedMaxRegisterT<Backend>* mantissa(unsigned exponent) const;

  BoundedMaxRegisterT<Backend> level_;  // stores ⌊log₂ v⌋ + 1 ∈ [0, 65]
  mutable std::atomic<BoundedMaxRegisterT<Backend>*> mantissa_[kMaxExponent];
};

/// The model-faithful default instantiation (pre-policy class name).
using UnboundedMaxRegister = UnboundedMaxRegisterT<base::InstrumentedBackend>;

// ---------------------------------------------------------------------
// Implementation.
// ---------------------------------------------------------------------

template <typename Backend>
UnboundedMaxRegisterT<Backend>::UnboundedMaxRegisterT() : level_(66) {
  for (auto& slot : mantissa_) {
    slot.store(nullptr, std::memory_order_relaxed);
  }
}

template <typename Backend>
UnboundedMaxRegisterT<Backend>::~UnboundedMaxRegisterT() {
  for (auto& slot : mantissa_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

template <typename Backend>
BoundedMaxRegisterT<Backend>* UnboundedMaxRegisterT<Backend>::mantissa(
    unsigned exponent) const {
  assert(exponent >= 1 && exponent < kMaxExponent);
  std::atomic<BoundedMaxRegisterT<Backend>*>& slot = mantissa_[exponent];
  BoundedMaxRegisterT<Backend>* reg = slot.load(std::memory_order_acquire);
  if (reg == nullptr) {
    auto fresh = std::make_unique<BoundedMaxRegisterT<Backend>>(
        std::uint64_t{1} << exponent);
    if (slot.compare_exchange_strong(reg, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      reg = fresh.release();
    }
    // else: lost the publication race; `fresh` frees the loser.
  }
  return reg;
}

template <typename Backend>
void UnboundedMaxRegisterT<Backend>::write(std::uint64_t v) {
  if (v == 0) return;  // initial value; no-op on the abstract maximum
  const unsigned e = base::floor_log2(v);
  if (e >= 1) {
    // Publish the mantissa before announcing the level (see header).
    mantissa(e)->write(v - (std::uint64_t{1} << e));
  }
  level_.write(e + 1);
}

template <typename Backend>
std::uint64_t UnboundedMaxRegisterT<Backend>::read() const {
  const std::uint64_t t = level_.read();
  if (t == 0) return 0;
  const unsigned e = static_cast<unsigned>(t - 1);
  const std::uint64_t base_value = e >= 64 ? 0 : (std::uint64_t{1} << e);
  if (e == 0) return 1;
  return base_value + mantissa(e)->read();
}

extern template class UnboundedMaxRegisterT<base::DirectBackend>;
extern template class UnboundedMaxRegisterT<base::RelaxedDirectBackend>;
extern template class UnboundedMaxRegisterT<base::InstrumentedBackend>;

}  // namespace approx::exact
