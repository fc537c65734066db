#include "sim/perturbation.hpp"

#include <stdexcept>

#include "base/kmath.hpp"
#include "base/step_recorder.hpp"

namespace approx::sim {
namespace {

// Measures a solo read: steps and distinct base objects accessed.
template <typename ReadFn>
PerturbationPoint measure_read(std::uint64_t round, std::uint64_t perturbation,
                               std::uint64_t cumulative, ReadFn&& read) {
  base::StepRecorder recorder(/*track_objects=*/true);
  std::uint64_t value;
  {
    base::ScopedRecording on(recorder);
    value = read();
  }
  return PerturbationPoint{round,
                           perturbation,
                           cumulative,
                           recorder.total(),
                           value,
                           recorder.distinct_objects()};
}

}  // namespace

std::vector<PerturbationPoint> perturb_max_register(IMaxRegister& reg,
                                                    std::uint64_t k,
                                                    std::uint64_t m) {
  // Step/object measurements require the instrumented backend; a direct
  // instance would silently report zero everywhere (checked in every
  // build mode, not just debug).
  if (!reg.instrumented()) {
    throw std::invalid_argument(
        "perturb_max_register needs an InstrumentedBackend instance");
  }
  std::vector<PerturbationPoint> series;
  // Round 0: the unperturbed read.
  series.push_back(measure_read(0, 0, 0, [&] { return reg.read(); }));

  std::uint64_t v = 0;
  for (std::uint64_t r = 1;; ++r) {
    // v_r = k²·v_{r−1} + 1, the Lemma V.1 perturbing write.
    const std::uint64_t next = base::sat_add(
        base::sat_mul(base::sat_mul(k, k), v), 1);
    if (next >= m || next <= v) break;  // bound reached (or saturated)
    v = next;
    reg.write(v);
    series.push_back(measure_read(r, v, v, [&] { return reg.read(); }));
  }
  return series;
}

std::vector<PerturbationPoint> perturb_counter(ICounter& counter,
                                               unsigned num_processes,
                                               std::uint64_t k,
                                               std::uint64_t max_total) {
  if (!counter.instrumented()) {
    throw std::invalid_argument(
        "perturb_counter needs an InstrumentedBackend instance");
  }
  std::vector<PerturbationPoint> series;
  const unsigned reader = num_processes - 1;
  series.push_back(
      measure_read(0, 0, 0, [&] { return counter.read(reader); }));

  std::uint64_t total = 0;
  unsigned next_pid = 0;
  for (std::uint64_t r = 1;; ++r) {
    // I_r = (k²−1)·Σ_{j<r} I_j + r, the Lemma V.3 perturbing batch.
    const std::uint64_t batch = base::sat_add(
        base::sat_mul(base::sat_mul(k, k) - 1, total), r);
    if (batch > max_total - total || total + batch < total) break;
    // The proof uses a fresh perturbing process per round; increments are
    // spread round-robin so no single process absorbs every batch.
    for (std::uint64_t i = 0; i < batch; ++i) {
      counter.increment(next_pid);
      next_pid = (next_pid + 1) % num_processes;
    }
    total += batch;
    series.push_back(
        measure_read(r, batch, total, [&] { return counter.read(reader); }));
  }
  return series;
}

}  // namespace approx::sim
