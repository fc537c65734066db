// kmult_counter.hpp — Algorithm 1 of the paper, on two switch schedules.
//
// Wait-free linearizable *unbounded* k-multiplicative-accurate counter
// with O(1) amortized step complexity for k ≥ √n (Theorem III.9).
//
// Shared state (paper lines 1–3):
//   switch_j, j ∈ ℕ — 1-bit registers supporting test&set and read,
//     initially 0, realized as a SegmentedArray<TasBitT<Backend>>;
//   H[n] — helping array of (switch index, sequence number) pairs
//     (core/help_pack.hpp).
//
// Per-process persistent locals (lines 4–9): last_i, lcounter_i, limit_i,
// sn_i, l0_i — kept in a cache-line-padded per-process block; operations
// take an explicit pid and each pid must be driven by at most one thread
// at a time (the standard "process" discipline of the model).
//
// How it works (paper §III). The switch sequence opens with s *singles*,
// each accounting for 1 increment; the switches after them are
// partitioned into consecutive intervals of length k, and each switch of
// interval q ≥ 1, [s+(q−1)k, s+qk−1], accounts for k^q increments. A
// process batches increments locally until its lcounter reaches
// limit = k^q, then tries to announce the batch by test&setting one
// switch of region q — the singles for q = 0, interval q after them —
// resuming at its persistent cursor. Success resets the batch; winning
// the *last* switch of the region — or losing every attempt in it —
// multiplies limit by k. Reads scan the singles densely and only the
// first and last switch of each interval (persistent last_i avoids
// rescanning), and every n loop iterations scan H: a pair whose sequence
// number advanced by ≥ 2 since the first scan proves a switch was set
// entirely within the read — the read can return its value, which makes
// reads wait-free under concurrent increments.
//
// A read whose last switch seen set is h returns k times the increments
// the prefix [0, h] announces: value_at_position(h) = k·(h+1) for a
// single, k·(s + Σ_{l=1}^{q−1} k^{l+1} + p·k^q) for the p-th switch
// (p ∈ [1, k]) of interval q. Claim III.6 shows the exact count v
// linearized before the read satisfies v/k ≤ value ≤ v·k whenever k ≥ √n.
//
// The schedule is two compile-time constants: s, and whether winning a
// single writes H. s ≡ 1 (mod k) in both schedules, so every interval
// starts on a position ≡ 1 and ends on one ≡ 0 (mod k), and one scan
// rule serves both:
//
//   * PaperSchedule — Algorithm 1 as published: s = 1 (switch_0), and its
//     win writes nothing to H (lines 25–28). For h = qk + p the value is
//     the paper's ReturnValue(p, q) = k·(1 + p·k^{q+1} + Σ_{l=1}^{q}
//     k^{l+1}) (lines 30–34).
//   * CorrectedSchedule — the bootstrap fix below: s = k + 1, and each
//     single's win writes H like an interval win.
//
// REPRODUCTION FINDING. The paper's schedule violates the
// k-multiplicative band in the *bootstrap phase*: after one process wins
// switch_0, every process can batch up to k−1 increments locally
// (limit = k) while reads still stop at switch_0 and return
// ReturnValue(0,0) = k. The exact count can reach v = 1 + n(k−1), and
// v/k ≤ k requires n ≤ k+1 — NOT implied by the paper's k ≥ √n
// precondition. Claim III.6's closing algebra ("vop = ... + k^{q+2}")
// silently assumes q ≥ 1; at q = 0 the pulled-out k^{q+2} term does not
// exist. Concretely: n = 25, k = 5 = √n, 38 round-robin increments →
// read returns 5 < 38/5.
//
// The corrected schedule keeps the algorithm and re-weights the switch
// sequence: positions 0..k are singles instead of the lone switch_0, and
// interval [qk+1, (q+1)k] announces k^q per switch — one k-power *lower*
// than the paper's k^{q+1} for the same positions. The prefix invariant
// (Lemma III.2) is preserved, and now: if the singles are not exhausted,
// every completed increment has been announced (a process that loses
// every single has proven them full); once they are exhausted a read
// returns at least k·(k+1), which dominates the ≤ n(k^q − 1) hidden
// increments for k ≥ √n at *every* q, including the former q = 0 hole.
//
// Cost of the fix: a process can spend up to k+1 test&sets losing the
// singles region (once, ever — the cursor never rescans), so executions
// shorter than ~n·k steps see O(k) = O(√n) amortized bootstrap cost;
// asymptotically the amortized complexity is O(1) exactly as in the
// paper. Reads additionally scan the k+1 singles densely (once per
// process, amortized O(1)). The wait-free helping mechanism is unchanged.
//
// Publish report. increment() returns true iff it won a switch. A read
// returns the value of a switch it saw set (or of a helping witness's
// switch), so an increment that wins none cannot change what any read
// returns — the switch count, and with it the number of true returns,
// grows logarithmically in the count. The sharded registry marks a row
// on a true return and its sequenced collect reads only marked rows
// (shard/registry.hpp). The report is local computation: no step. One
// read is the exception: a read that returned through the helping
// witness may return more on its next scan with no new win, so the
// registry marks its row again, counting those returns through
// reads_via_helping().
//
// The Backend policy (base/backend.hpp) selects the zero-overhead direct
// build or the instrumented model build; `KMultCounter` and
// `KMultCounterCorrected` alias the instrumented instantiations.
//
// Memory-order audit (RelaxedDirectBackend). Three primitive families,
// each on its default role:
//
//   * switch test&set — kRmwAcqRel. The release half publishes the
//     announcer's state to whoever observes the bit; the acquire half is
//     what keeps Lemma III.2's prefix invariant causal under weak
//     memory: a process attempts the switches of an interval in order
//     and moves past a switch only by winning it or by a failed test&set
//     (which synchronizes with the winner), so when it sets switch l,
//     every switch its scan passed is set in its happens-before past —
//     and a reader's acquire scan that sees switch l set inherits that
//     past, making value_at_position's "prefix [0, l] is set" inference
//     sound.
//   * H[i] writes — release (line 18): the helping pair (l, sn) promises
//     that switch l is set; the program-order-earlier test&set win rides
//     on the release so a reader that takes the helped return
//     synchronizes with the complete announce it is returning.
//   * switch/H reads — acquire, pairing with the above.
//
// What is *not* preserved: the helping-scan baseline (lines 47–48) reads
// H[i] without a surrounding SC total order, so "sn advanced by ≥ 2
// since the baseline" counts advances since a possibly slightly stale
// baseline. On multi-copy-atomic hardware (x86, ARMv8) every load
// returns the newest coherent value, the baseline is interval-recent,
// and Lemma III.3's within-the-read witness stands; the seq_cst
// backends keep the formal proof verbatim. The adversarial accuracy
// property tests and the TSan relaxed suite exercise exactly this
// handshake. read_fast adds no new ordering requirement: its
// doubling/binary-search probes are acquire switch reads, its boundary
// verification re-reads in real-time order exactly like the linear scan,
// and its retry bound reuses the helping witness audited here.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/backend.hpp"
#include "base/kmath.hpp"
#include "base/register.hpp"
#include "base/segmented_array.hpp"
#include "base/test_and_set.hpp"
#include "core/help_pack.hpp"

namespace approx::core {

/// Algorithm 1's switch layout as published: s = 1 single (switch_0),
/// whose win is not announced in H.
struct PaperSchedule {
  static constexpr std::uint64_t singles(std::uint64_t /*k*/) { return 1; }
  static constexpr bool kSingleWinWritesHelp = false;
};

/// The bootstrap fix: s = k + 1 singles, each win announced in H.
struct CorrectedSchedule {
  static constexpr std::uint64_t singles(std::uint64_t k) { return k + 1; }
  static constexpr bool kSingleWinWritesHelp = true;
};

/// Wait-free linearizable k-multiplicative-accurate unbounded counter
/// (Algorithm 1) on the switch schedule `Schedule`. Accuracy requires
/// k ≥ √n — in every phase for CorrectedSchedule, past the bootstrap for
/// PaperSchedule. The constructor accepts any k ≥ 2 so the
/// k-sensitivity experiment (E3) can explore the threshold.
template <typename Backend, typename Schedule>
class SwitchCounterT {
 public:
  using backend_type = Backend;

  /// @param num_processes n; pids are 0..n-1.
  /// @param k accuracy parameter, 2 ≤ k ≤ kMaxSupportedK.
  SwitchCounterT(unsigned num_processes, std::uint64_t k);

  SwitchCounterT(const SwitchCounterT&) = delete;
  SwitchCounterT& operator=(const SwitchCounterT&) = delete;

  /// CounterIncrement (paper lines 10–29). At most one thread per pid.
  /// Returns true iff this increment won a switch (lines 16/26, singles
  /// included): only a won switch can change what a read returns, so a
  /// false return promises every read is unchanged by it (see the
  /// header's publish report).
  bool increment(unsigned pid);

  /// CounterRead (paper lines 35–58): returns x with v/k ≤ x ≤ v·k for
  /// the exact count v at the linearization point (for k ≥ √n).
  std::uint64_t read(unsigned pid);

  /// CounterRead via doubling + binary search (extension; §VI of the
  /// paper leaves the worst-case complexity of bounded approximate
  /// counters open). By the prefix invariant the set switches always
  /// form [0, S): a read can locate the boundary with O(log₂ S) probes
  /// instead of the linear cursor scan, then verify the boundary pair in
  /// order (h seen set, then h+1 seen unset ⇒ a linearization point
  /// exists where the prefix is exactly [0, h]). If writers keep growing
  /// the prefix past the verification, falls back to the helping-based
  /// linear read, preserving wait-freedom. Worst-case
  /// O(log₂(k·log_k v)) steps on the fast path, vs Θ(k·log_k v) for a
  /// cold-cursor linear read. Trade-off: does not use the persistent
  /// cursor, so its *amortized* cost is O(log) rather than O(1).
  std::uint64_t read_fast(unsigned pid);

  [[nodiscard]] unsigned num_processes() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t k() const noexcept { return k_; }

  /// True iff this instance satisfies the paper's k ≥ √n accuracy
  /// precondition.
  [[nodiscard]] bool accuracy_guaranteed() const noexcept;

  // --- test/diagnostic accessors (un-instrumented; not part of the
  //     algorithm and never called by it) ---

  /// Peeks switch_index without charging a step (invariant tests).
  [[nodiscard]] bool switch_set_unrecorded(std::uint64_t index) const;

  /// Smallest index whose switch is 0. By Lemma III.2 the set switches
  /// always form the prefix [0, first_unset).
  [[nodiscard]] std::uint64_t first_unset_switch_unrecorded() const;

  /// Value a read returns when the last switch it saw set is `position`
  /// (see the header comment). Exposed for unit tests.
  [[nodiscard]] std::uint64_t value_at_position(std::uint64_t position) const;

  /// Number of CounterRead instances by `pid` that returned through the
  /// helping mechanism (lines 50–55) rather than by finding an unset
  /// switch. Not part of the algorithm: the E13 helping ablation reads
  /// it, and the sharded registry marks a row after a helped read by it.
  [[nodiscard]] std::uint64_t reads_via_helping(unsigned pid) const {
    return locals_[pid].helping_returns;
  }

  /// Search attempts consumed by `pid`'s most recent read_fast call
  /// (diagnostic; pins the helping-derived retry bound ≤ 2n+2 in
  /// tests/core/test_read_fast.cpp).
  [[nodiscard]] std::uint64_t last_read_fast_attempts(unsigned pid) const {
    return locals_[pid].last_fast_attempts;
  }

 private:
  struct alignas(64) Local {
    std::uint64_t last = 0;       // last_i: scan cursor over the switches
    std::uint64_t memo_h = 0;     // last position this reader returned,
    std::uint64_t memo_value = 0;  // and value_at_position(memo_h)
    std::uint64_t lcounter = 0;   // unannounced increments
    std::uint64_t limit = 1;      // announce threshold k^q in region q
    std::uint64_t sn = 0;         // announces written to H by this process
    std::uint64_t cursor = 0;     // l0_i, as the next switch index to try
    std::uint64_t helping_returns = 0;    // reads_via_helping()
    std::uint64_t last_fast_attempts = 0;  // diagnostic
    std::vector<std::uint64_t> help;  // baseline seq numbers (helping scan)
  };

  // s: derived from k_ rather than stored, which keeps switches 0–31 on
  // the header's cache line.
  [[nodiscard]] std::uint64_t singles() const noexcept {
    return Schedule::singles(k_);
  }

  // Scan-position helpers (singles scanned densely, intervals at their
  // first and last switch).
  [[nodiscard]] std::uint64_t next_scan_position(std::uint64_t pos) const;
  [[nodiscard]] std::uint64_t previous_scan_position(std::uint64_t pos) const;

  // The helping witness shared by read() and read_fast(): baseline every
  // process's announce sequence number, later return through any pair
  // whose sn advanced by ≥ 2 (a complete announce inside the read —
  // paper lines 50–55, Lemma III.3).
  void capture_help_baseline(Local& me);
  [[nodiscard]] bool check_helped_return(Local& me, std::uint64_t& value);

  // value_at_position(h) through the reader's memo: a read that stops at
  // the same switch as this reader's previous one skips the arithmetic
  // (local computation either way).
  [[nodiscard]] std::uint64_t memoized_value(Local& me, std::uint64_t h) const;

  // switches_ comes last: its inline first segment then starts on the
  // cache line that holds the fields above, so a read of a young counter
  // touches that line and its reader's Local, nothing else.
  unsigned n_;
  std::uint64_t k_;
  std::unique_ptr<base::Register<std::uint64_t, Backend>[]> h_;  // H[n]
  std::unique_ptr<Local[]> locals_;
  base::SegmentedArray<base::TasBitT<Backend>> switches_;
};

/// Algorithm 1 as published.
template <typename Backend = base::InstrumentedBackend>
using KMultCounterT = SwitchCounterT<Backend, PaperSchedule>;

/// Algorithm 1 with the bootstrap fix: the band holds in every phase.
template <typename Backend = base::InstrumentedBackend>
using KMultCounterCorrectedT = SwitchCounterT<Backend, CorrectedSchedule>;

/// The model-faithful default instantiations (pre-policy class names).
using KMultCounter = KMultCounterT<base::InstrumentedBackend>;
using KMultCounterCorrected = KMultCounterCorrectedT<base::InstrumentedBackend>;

// ---------------------------------------------------------------------
// Implementation. Line numbers in comments refer to the paper's
// pseudocode.
// ---------------------------------------------------------------------

template <typename Backend, typename Schedule>
SwitchCounterT<Backend, Schedule>::SwitchCounterT(unsigned num_processes,
                                                  std::uint64_t k)
    : n_(num_processes),
      k_(k),
      h_(new base::Register<std::uint64_t, Backend>[num_processes]),
      locals_(new Local[num_processes]) {
  assert(num_processes >= 1);
  assert(k >= 2 && "the multiplicative parameter must be at least 2");
  assert(singles() % k == 1 && "intervals must start on residue 1 mod k");
  check_help_pack_k(k);
  for (unsigned i = 0; i < num_processes; ++i) {
    locals_[i].help.assign(num_processes, 0);
    locals_[i].memo_value = value_at_position(0);
  }
}

template <typename Backend, typename Schedule>
bool SwitchCounterT<Backend, Schedule>::accuracy_guaranteed() const noexcept {
  return k_ >= base::ceil_sqrt(n_);
}

// Lines 30–34 in the schedule's numbering. Saturating arithmetic: a
// saturated return still satisfies the band (see base/kmath.hpp), and
// reaching it would need ≥ 2^64 increments. One pass with a running
// power, which stops once the power saturates: the sum has saturated
// with it.
template <typename Backend, typename Schedule>
std::uint64_t SwitchCounterT<Backend, Schedule>::value_at_position(
    std::uint64_t position) const {
  const std::uint64_t s = singles();
  // Singles: position h set ⇒ h+1 increments announced (prefix).
  if (position < s) return base::sat_mul(k_, position + 1);
  // position is the p-th switch (p ∈ [1, k]) of interval q ≥ 1: all
  // singles, all of intervals 1..q−1 (k^{l+1} each), and p switches of
  // interval q (k^q each).
  const std::uint64_t q = (position - s) / k_ + 1;
  const std::uint64_t p = (position - s) % k_ + 1;
  std::uint64_t announced = s;
  std::uint64_t power = k_;  // k^l
  for (std::uint64_t l = 1; l < q && power != base::kU64Max; ++l) {
    power = base::sat_mul(power, k_);
    announced = base::sat_add(announced, power);
  }
  announced = base::sat_add(announced, base::sat_mul(p, power));
  return base::sat_mul(k_, announced);                        // line 34
}

template <typename Backend, typename Schedule>
std::uint64_t SwitchCounterT<Backend, Schedule>::memoized_value(
    Local& me, std::uint64_t h) const {
  if (h != me.memo_h) {
    me.memo_h = h;
    me.memo_value = value_at_position(h);
  }
  return me.memo_value;
}

template <typename Backend, typename Schedule>
bool SwitchCounterT<Backend, Schedule>::increment(unsigned pid) {
  assert(pid < n_);
  Local& me = locals_[pid];
  me.lcounter += 1;                                           // line 11
  if (me.lcounter != me.limit) return false;                  // line 12
  // limit = k^q: announce the batch on one switch of region q — the
  // singles for q = 0, interval q after them; either way its last switch
  // is s + qk − 1 — resuming at the persistent cursor (lines 13–15).
  const std::uint64_t q = base::exact_log_k(k_, me.limit);
  const std::uint64_t last = singles() + q * k_ - 1;
  for (std::uint64_t l = me.cursor; l <= last; ++l) {
    if (!switches_.at(l).test_and_set()) {                    // lines 16, 26
      if (q > 0 || Schedule::kSingleWinWritesHelp) {
        me.sn += 1;                                           // line 17
        h_[pid].write(pack_help(l, me.sn));                   // line 18
      }
      me.lcounter = 0;                                        // lines 19, 27
      me.cursor = l + 1;                                      // line 22
      if (l == last) me.limit = base::sat_mul(k_, me.limit);  // lines 20–21
      return true;                                            // line 23
    }
  }
  // Every switch of the region is set: enough increments are visible
  // globally that this batch may stay local (Claim III.6 absorbs it; a
  // batch kept past the singles is dominated by the k·s they announce).
  me.cursor = last + 1;                                       // line 24
  me.limit = base::sat_mul(k_, me.limit);                     // line 28
  return false;
}

template <typename Backend, typename Schedule>
std::uint64_t SwitchCounterT<Backend, Schedule>::next_scan_position(
    std::uint64_t pos) const {
  // Dense within the singles; inside an interval only its first (≡ 1)
  // and last (≡ 0 mod k) switch: last of one → first of the next.
  if (pos < singles() || pos % k_ == 0) return pos + 1;       // line 41
  return pos + (k_ - 1);                                      // line 43
}

template <typename Backend, typename Schedule>
std::uint64_t SwitchCounterT<Backend, Schedule>::previous_scan_position(
    std::uint64_t pos) const {
  assert(pos >= 1);
  // Singles, and the first switch of an interval (≡ 1 mod k), follow
  // their predecessor; the last follows the interval's first.
  if (pos <= singles() || pos % k_ == 1) return pos - 1;
  return pos - (k_ - 1);
}

template <typename Backend, typename Schedule>
void SwitchCounterT<Backend, Schedule>::capture_help_baseline(Local& me) {
  for (unsigned i = 0; i < n_; ++i) {                         // lines 47–48
    me.help[i] = unpack_help_sn(h_[i].read());
  }
}

template <typename Backend, typename Schedule>
bool SwitchCounterT<Backend, Schedule>::check_helped_return(
    Local& me, std::uint64_t& value) {
  for (unsigned i = 0; i < n_; ++i) {                         // lines 50–51
    const std::uint64_t pair = h_[i].read();
    if (unpack_help_sn(pair) >= me.help[i] + 2) {             // line 52
      // Process i completed a full announce inside this read; its
      // switch index is a safe linearization witness (Lemma III.3).
      me.helping_returns += 1;
      value = memoized_value(me, unpack_help_position(pair));  // 53–55
      return true;
    }
  }
  return false;
}

template <typename Backend, typename Schedule>
std::uint64_t SwitchCounterT<Backend, Schedule>::read(unsigned pid) {
  assert(pid < n_);
  Local& me = locals_[pid];
  std::uint64_t c = 0;                                        // line 36
  std::uint64_t h = 0;
  bool advanced = false;  // did the while loop run in *this* call?
  while (switches_.at(me.last).read()) {                      // line 37
    advanced = true;
    h = me.last;                                              // lines 38–39
    me.last = next_scan_position(me.last);                    // lines 40–43
    c += 1;                                                   // line 44
    if (c % n_ == 0) {                                        // line 45
      if (c == n_) {                                          // line 46
        capture_help_baseline(me);
      } else {
        std::uint64_t helped_value = 0;
        if (check_helped_return(me, helped_value)) return helped_value;
      }
    }
  }
  if (me.last == 0) return 0;                                 // lines 56–57
  // The loop exited immediately on the persistent cursor: the last
  // switch observed set is the cursor's scan-predecessor (each scanned
  // position was seen set when the cursor moved past it).
  if (!advanced) h = previous_scan_position(me.last);
  return memoized_value(me, h);                               // line 58
}

template <typename Backend, typename Schedule>
std::uint64_t SwitchCounterT<Backend, Schedule>::read_fast(unsigned pid) {
  // Retries under concurrent prefix growth are bounded via the helping
  // array rather than a fixed attempt count: every failed verification
  // witnesses ≥ 1 switch won strictly after the previous attempt, and a
  // process's second post-baseline win is preceded (program order) by
  // the H-write of its first, so after at most 2n+1 failed attempts some
  // H[i] has advanced by ≥ 2 since the baseline — a complete announce
  // inside this read, and exactly the linearization witness the linear
  // read's helping branch uses (Lemma III.3). Every win past switch_0
  // writes H on both schedules, and an attempt fails only after seeing
  // switch_0 set, so the paper schedule's silent switch_0 win is never
  // one of the witnessed wins. The loop therefore terminates within
  // kMaxAttempts = 2n+2 attempts; the final linear-read fallback is
  // belt-and-braces (unreachable unless the bound argument is violated),
  // keeping wait-freedom unconditional.
  assert(pid < n_);
  Local& me = locals_[pid];
  const std::uint64_t kMaxAttempts = 2 * std::uint64_t{n_} + 2;
  bool have_baseline = false;
  for (std::uint64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    me.last_fast_attempts = attempt + 1;
    // Doubling phase: find some unset index (the prefix is finite).
    std::uint64_t hi = 1;
    if (!switches_.at(0).read()) return 0;
    while (switches_.at(hi).read()) {
      hi = hi * 2;
    }
    // Invariant: switch_lo was seen set, switch_hi was seen unset.
    std::uint64_t lo = hi / 2;  // last probe of the doubling that was set
    while (lo + 1 < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (switches_.at(mid).read()) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // Verification in real-time order: h set, then h+1 unset. Both
    // observations holding in this order pins a configuration where the
    // set prefix is exactly [0, h] (switches only ever rise).
    if (switches_.at(lo).read() && !switches_.at(lo + 1).read()) {
      return memoized_value(me, lo);
    }
    // The boundary moved past lo+1: writers are announcing. Baseline
    // the helping array on the first failure, then watch for a ≥ 2
    // advance exactly as the linear read does.
    if (!have_baseline) {
      capture_help_baseline(me);
      have_baseline = true;
    } else {
      std::uint64_t helped_value = 0;
      if (check_helped_return(me, helped_value)) return helped_value;
    }
  }
  return read(pid);
}

template <typename Backend, typename Schedule>
bool SwitchCounterT<Backend, Schedule>::switch_set_unrecorded(
    std::uint64_t index) const {
  return switches_.at(index).peek_unrecorded();
}

template <typename Backend, typename Schedule>
std::uint64_t SwitchCounterT<Backend, Schedule>::first_unset_switch_unrecorded()
    const {
  std::uint64_t i = 0;
  while (switches_.at(i).peek_unrecorded()) ++i;
  return i;
}

// Compiled in kmult_counter.cpp for the three shipped backends on both
// schedules; other backends instantiate from this header.
extern template class SwitchCounterT<base::DirectBackend, PaperSchedule>;
extern template class SwitchCounterT<base::RelaxedDirectBackend, PaperSchedule>;
extern template class SwitchCounterT<base::InstrumentedBackend, PaperSchedule>;
extern template class SwitchCounterT<base::DirectBackend, CorrectedSchedule>;
extern template class SwitchCounterT<base::RelaxedDirectBackend,
                                     CorrectedSchedule>;
extern template class SwitchCounterT<base::InstrumentedBackend,
                                     CorrectedSchedule>;

}  // namespace approx::core
