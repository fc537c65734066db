// help_pack.hpp — packed (switch position, sequence number) pairs for the
// helping array H[n] of Algorithm 1 (on the paper's and the corrected
// schedule alike).
//
// Each H[i] is a single 64-bit register holding the last switch position
// process i announced on together with i's count of successful test&sets.
// A reader that sees a process's sequence number advance by ≥ 2 during
// its scan knows a full announce happened inside the read and may return
// that announce's position (paper lines 50–55, Lemma III.3).
//
// Layout: position in the high 32 bits, sequence number in the low 32.
//
// HISTORY / GUARD. The seed packed the pair as (position << 24) | (sn &
// 0xFFFFFF): only 24 bits of sequence number, wrapping silently at 2^24.
// A wrapped sn makes the helping comparison `sn >= baseline + 2` see a
// *smaller* value after billions of announces, so a genuine helping
// window could be missed (stalling the wait-freedom argument) or — after
// a full wrap — a stale pair could masquerade as fresh and linearize a
// read at an ancient position. The split is now 32/32, and feasibility is
// *checked* rather than assumed:
//
//   * position is a switch index, bounded by (k+1) + k·⌈log_k 2^64⌉ for
//     any execution of < 2^64 increments — under 2^31 whenever
//     k ≤ kMaxSupportedK. Counter constructors *reject* k beyond that
//     bound (throw std::invalid_argument, in every build mode), making
//     the packing loss-free by construction;
//   * sn counts one per switch won, so it obeys the same bound;
//   * pack_help() additionally saturates both fields in every build mode
//     instead of wrapping (plus debug asserts, since reaching saturation
//     means the feasibility argument was violated): saturation can only
//     *disable* further helping detection (reads fall back to the
//     always-correct frontier scan), never corrupt a linearization
//     witness the way shifted-out position bits or a wrapped sn would.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace approx::core {

/// Bits of the packed word given to the sequence number.
inline constexpr unsigned kHelpSnBits = 32;

inline constexpr std::uint64_t kHelpSnMax =
    (std::uint64_t{1} << kHelpSnBits) - 1;

/// Largest packable switch position.
inline constexpr std::uint64_t kHelpPositionMax =
    (std::uint64_t{1} << (64 - kHelpSnBits)) - 1;

/// Largest accuracy parameter k for which every reachable switch index
/// and sequence number provably fits the packed layout (see header
/// comment). Enforced by the counter constructors.
inline constexpr std::uint64_t kMaxSupportedK = std::uint64_t{1} << 24;

/// Packs an announce (switch position, per-process sequence number).
/// Both fields saturate at their maxima rather than wrapping/shifting
/// out (unreachable for supported k; see check_help_pack_k).
[[nodiscard]] constexpr std::uint64_t pack_help(std::uint64_t position,
                                                std::uint64_t sn) noexcept {
  assert(position <= kHelpPositionMax &&
         "help pair: switch position exceeds the packed field");
  assert(sn <= kHelpSnMax && "help pair: sequence number exceeds 32 bits");
  if (position > kHelpPositionMax) position = kHelpPositionMax;
  if (sn > kHelpSnMax) sn = kHelpSnMax;
  return (position << kHelpSnBits) | sn;
}

/// Constructor guard shared by the counters: rejects accuracy parameters
/// outside the packing guarantee in every build mode.
inline void check_help_pack_k(std::uint64_t k) {
  if (k > kMaxSupportedK) {
    throw std::invalid_argument(
        "k-multiplicative counter: k exceeds kMaxSupportedK (help-pair "
        "packing guarantee, see core/help_pack.hpp)");
  }
}

[[nodiscard]] constexpr std::uint64_t unpack_help_position(
    std::uint64_t packed) noexcept {
  return packed >> kHelpSnBits;
}

[[nodiscard]] constexpr std::uint64_t unpack_help_sn(
    std::uint64_t packed) noexcept {
  return packed & kHelpSnMax;
}

static_assert(unpack_help_position(pack_help(kHelpPositionMax, kHelpSnMax)) ==
              kHelpPositionMax);
static_assert(unpack_help_sn(pack_help(kHelpPositionMax, kHelpSnMax)) ==
              kHelpSnMax);
static_assert(unpack_help_sn(pack_help(0, 0)) == 0);

}  // namespace approx::core
