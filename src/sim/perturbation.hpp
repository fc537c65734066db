// perturbation.hpp — executable perturbing-execution constructions.
//
// Section V of the paper derives worst-case lower bounds from
// L-perturbability (Aspnes et al. [5]): an adversary repeatedly appends a
// perturbing fragment that forces an outstanding Read to change its
// response, which in turn forces obstruction-free implementations from
// historyless primitives to access Ω(min(log₂ L, n)) distinct base
// objects in a single operation.
//
// The proofs pick concrete perturbing fragments:
//   * Max register (Lemma V.1): writes of v_r = k²·v_{r−1} + 1 — each
//     jumps outside the previous read's allowed band, so the read must
//     notice; the register bound m caps the rounds at Θ(log_k m).
//   * Counter (Lemma V.3): increment batches
//     I_r = (k²−1)·Σ_{j<r} I_j + r, capped at Θ(log_k m) rounds.
//
// This module *runs* those constructions against our implementations and
// measures what the bound constrains: the number of steps and of distinct
// base objects a solo read accesses after each round. The measured curves
// against the analytic Ω(min(log₂ log_k m, n)) shape are experiments E6
// and E7 (README "Experiment index").
#pragma once

#include <cstdint>
#include <vector>

#include "sim/adapters.hpp"

namespace approx::sim {

/// One round of a perturbation experiment.
struct PerturbationPoint {
  std::uint64_t round = 0;            // r
  std::uint64_t perturbation = 0;     // v_r (max register) or I_r (counter)
  std::uint64_t cumulative = 0;       // max written so far / total increments
  std::uint64_t read_steps = 0;       // steps of the solo read after round r
  std::uint64_t read_value = 0;       // value the solo read returned
  std::uint64_t distinct_objects = 0; // distinct base objects the read touched
};

/// Runs the Lemma V.1 schedule on `reg`: writes v_r = k²·v_{r−1} + 1 while
/// v_r < m, measuring a solo read after each write. Single-threaded (the
/// perturbing fragments of the proof are solo executions).
std::vector<PerturbationPoint> perturb_max_register(IMaxRegister& reg,
                                                    std::uint64_t k,
                                                    std::uint64_t m);

/// Runs the Lemma V.3 schedule on `counter`: increment batches
/// I_r = (k²−1)·Σ_{j<r} I_j + r, cycling increments over the pids of
/// `num_processes` processes, until the total would exceed `max_total`.
/// The solo read is performed by pid num_processes−1.
std::vector<PerturbationPoint> perturb_counter(ICounter& counter,
                                               unsigned num_processes,
                                               std::uint64_t k,
                                               std::uint64_t max_total);

}  // namespace approx::sim
