// step_complexity_demo — the instrumentation layer as a user-facing tool.
//
//   $ ./build/examples/step_complexity_demo
//
// Shows how to measure any operation sequence in the paper's cost model
// (shared-memory primitive applications) with StepRecorder, and uses it
// to reproduce, in miniature, the paper's two headline numbers: O(1)
// amortized counter increments and O(log log m) max-register reads.
//
// Step recording requires the InstrumentedBackend instantiations — the
// default when no backend template argument is given. DirectBackend
// objects (the production build) record nothing by design.
#include <cstdint>
#include <iostream>

#include "base/step_recorder.hpp"
#include "core/kmult_counter.hpp"
#include "core/kmult_max_register.hpp"
#include "exact/bounded_max_register.hpp"
#include "exact/collect_counter.hpp"

int main() {
  using namespace approx;

  // ---- measuring a single operation ------------------------------------
  core::KMultMaxRegister reg(/*m=*/std::uint64_t{1} << 40, /*k=*/2);
  base::StepRecorder recorder(/*track_objects=*/true);
  {
    base::ScopedRecording on(recorder);
    reg.write(123'456'789);
  }
  std::cout << "one Write on a 2^40-bounded k=2 max register:\n"
            << "  total steps       = " << recorder.total() << '\n'
            << "  reads / writes    = " << recorder.reads() << " / "
            << recorder.writes() << '\n'
            << "  distinct objects  = " << recorder.distinct_objects()
            << "  (the perturbation experiments track this)\n\n";

  // ---- amortized profile of a workload ----------------------------------
  constexpr unsigned kN = 16;
  core::KMultCounterCorrected approx_counter(kN, /*k=*/4);
  exact::CollectCounter exact_counter(kN);

  constexpr std::uint64_t kOps = 1'000'000;
  base::StepRecorder approx_rec;
  {
    base::ScopedRecording on(approx_rec);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      approx_counter.increment(static_cast<unsigned>(i % kN));
      if (i % 10 == 0) (void)approx_counter.read(0);
    }
  }
  base::StepRecorder exact_rec;
  {
    base::ScopedRecording on(exact_rec);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      exact_counter.increment(static_cast<unsigned>(i % kN));
      if (i % 10 == 0) (void)exact_counter.read();
    }
  }
  const double ops = static_cast<double>(kOps + kOps / 10);
  std::cout << "1M increments + 100k reads, n = 16:\n"
            << "  k-multiplicative counter: "
            << static_cast<double>(approx_rec.total()) / ops
            << " steps/op (paper: O(1) amortized)\n"
            << "  exact collect counter:    "
            << static_cast<double>(exact_rec.total()) / ops
            << " steps/op (reads cost n = 16 each)\n\n";

  // ---- worst-case single-op comparison ----------------------------------
  exact::BoundedMaxRegister exact_reg(std::uint64_t{1} << 40);
  exact_reg.write((std::uint64_t{1} << 40) - 1);
  reg.write((std::uint64_t{1} << 40) - 1);
  std::cout << "max-register read, domain 2^40:\n"
            << "  exact:        " << base::steps_of([&] { (void)exact_reg.read(); })
            << " steps (Theta(log m))\n"
            << "  approximate:  " << base::steps_of([&] { (void)reg.read(); })
            << " steps (O(log log m)) — the paper's exponential gap\n";
  return 0;
}
