// kmult_unbounded_max_register.hpp — the unbounded plug-in (paper §I.B/§IV).
//
// The paper notes that its bounded k-multiplicative max register can be
// "plugged in" to the unbounded construction of Baig et al. [9] to obtain
// an *unbounded* k-multiplicative max register with sub-logarithmic
// amortized step complexity (details omitted there for space).
//
// The essence of the plug-in is that a k-multiplicative register only
// needs an exact register over the exponent domain, which is
// exponentially smaller than the value domain. Specialized to the 64-bit
// machine-word value domain, the exponent domain p = ⌊log_k v⌋ + 1 is
// *finite* (p ≤ ⌊log_k(2⁶⁴−1)⌋ + 1 ≤ 65), so one exact bounded AACH
// register realizes it wait-free with worst-case — not merely amortized —
// O(log₂ log_k V) steps per operation, where V = 2⁶⁴. This is
// sub-logarithmic in the value domain, the property the paper claims.
#pragma once

#include <cstdint>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "exact/bounded_max_register.hpp"

namespace approx::core {

/// Unbounded (full uint64 domain) k-multiplicative-accurate max register.
/// Worst-case O(log₂ log_k 2⁶⁴) ≤ O(log₂ 65) steps per operation.
template <typename Backend = base::InstrumentedBackend>
class KMultUnboundedMaxRegisterT {
 public:
  using backend_type = Backend;

  /// @param k accuracy parameter, k ≥ 2.
  explicit KMultUnboundedMaxRegisterT(std::uint64_t k)
      : k_(k), index_(base::floor_log_k(k, base::kU64Max) + 2) {}

  KMultUnboundedMaxRegisterT(const KMultUnboundedMaxRegisterT&) = delete;
  KMultUnboundedMaxRegisterT& operator=(const KMultUnboundedMaxRegisterT&) =
      delete;

  /// Writes any 64-bit value (0 is a no-op on the abstract maximum).
  void write(std::uint64_t v) {
    if (v == 0) return;
    index_.write(base::floor_log_k(k_, v) + 1);
  }

  /// Returns x with v/k ≤ x ≤ v·k for the maximum v written before the
  /// linearization point. Saturates at 2⁶⁴−1, which stays inside the band
  /// (x ≥ v always holds at saturation).
  [[nodiscard]] std::uint64_t read() const {
    const std::uint64_t p = index_.read();
    if (p == 0) return 0;
    return base::pow_k(k_, p);  // saturating
  }

  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }

  /// Depth of the exact exponent register (both operations are O(depth)).
  [[nodiscard]] unsigned index_register_depth() const noexcept {
    return index_.depth();
  }

 private:
  std::uint64_t k_;
  exact::BoundedMaxRegisterT<Backend> index_;
};

/// The model-faithful default instantiation (pre-policy class name).
using KMultUnboundedMaxRegister =
    KMultUnboundedMaxRegisterT<base::InstrumentedBackend>;

}  // namespace approx::core
