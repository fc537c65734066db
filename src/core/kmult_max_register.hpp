// kmult_max_register.hpp — Algorithm 2 of the paper.
//
// Wait-free linearizable m-bounded k-multiplicative-accurate max register
// with worst-case step complexity O(min(log₂ log_k m, n)) — Theorem IV.2,
// matching the perturbation lower bound of Theorem V.2, and an
// *exponential* improvement over the Θ(log₂ m) exact bound.
//
// The idea (paper §IV): store only the index of the bit to the left of
// the most-significant base-k digit of each written value, i.e.
// p = ⌊log_k v⌋ + 1, in an *exact* (⌊log_k(m−1)⌋ + 1)-bounded max
// register M (the AACH tree). A read returns k^p for the largest index p
// written (0 if none): since every value v with index p lies in
// [k^{p−1}, k^p − 1], the returned x = k^p satisfies v ≤ x ≤ v·k — within
// the two-sided band v/k ≤ x ≤ v·k.
//
// Memory-order audit (RelaxedDirectBackend): Algorithm 2 performs no
// primitives of its own — index computation is local, and the one shared
// object is the exact AACH index register, whose release/acquire
// justification lives in exact/bounded_max_register.hpp. (Same for the
// unbounded plug-in in kmult_unbounded_max_register.hpp and the bounded
// counter in kmult_bounded_counter.hpp, which delegate likewise.)
#pragma once

#include <cassert>
#include <cstdint>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "exact/bounded_max_register.hpp"

namespace approx::core {

namespace detail {
// Capacity of the exact index register: indices run over
// {0} ∪ {1, ..., ⌊log_k(m−1)⌋ + 1}, hence ⌊log_k(m−1)⌋ + 2 values.
inline std::uint64_t kmult_index_capacity(std::uint64_t m, std::uint64_t k) {
  assert(m >= 2 && k >= 2);
  return base::floor_log_k(k, m - 1) + 2;
}
}  // namespace detail

/// m-bounded k-multiplicative-accurate max register (Algorithm 2).
/// Writes accept values in [0, m); reads may return up to k·(m−1)
/// (the approximation may overshoot the domain, as in the paper).
template <typename Backend = base::InstrumentedBackend>
class KMultMaxRegisterT {
 public:
  using backend_type = Backend;

  /// @param m bound: writable values are {0, ..., m−1}, m ≥ 2.
  /// @param k accuracy parameter, k ≥ 2.
  KMultMaxRegisterT(std::uint64_t m, std::uint64_t k)
      : m_(m), k_(k), index_(detail::kmult_index_capacity(m, k)) {}

  KMultMaxRegisterT(const KMultMaxRegisterT&) = delete;
  KMultMaxRegisterT& operator=(const KMultMaxRegisterT&) = delete;

  /// Write(v), paper lines 7–10. Requires v < m. Writing 0 is a no-op on
  /// the abstract maximum (the initial value is 0).
  void write(std::uint64_t v) {
    assert(v < m_ && "KMultMaxRegister::write: value out of range");
    if (v == 0) return;  // 0 is the initial value; nothing to record
    const std::uint64_t p = base::floor_log_k(k_, v) + 1;  // line 8
    index_.write(p);                                       // line 9
  }

  /// Read(), paper lines 2–6: returns x with v/k ≤ x ≤ v·k for the
  /// maximum v written before the linearization point; 0 iff nothing
  /// (non-zero) was written.
  [[nodiscard]] std::uint64_t read() const {
    const std::uint64_t p = index_.read();  // line 3
    if (p == 0) return 0;                   // line 4
    return base::pow_k(k_, p);              // line 5
  }

  [[nodiscard]] std::uint64_t m() const noexcept { return m_; }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }

 private:
  std::uint64_t m_;
  std::uint64_t k_;
  exact::BoundedMaxRegisterT<Backend> index_;  // M: holds p = ⌊log_k v⌋ + 1
};

/// The model-faithful default instantiation (pre-policy class name).
using KMultMaxRegister = KMultMaxRegisterT<base::InstrumentedBackend>;

}  // namespace approx::core
